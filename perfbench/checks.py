"""Output checks, written without the package's own code.

Each check takes an op's output and returns True when it holds.  Closed
forms come from the paper: the reference 3-port's long-time matrix is
i times the Grover coin, its N = 2 exit row is (0, i/2, i/2) and its
cumulative exit probability after N (even) encounters is 1 - 2^(1-N);
the heralded (Psi+, Psi+) gate succeeds with probability 169/13122 (o)
and 841/6561 (s); both herald conditions give a Klein four-group.  Other
gate rows are checked against a float creation-polynomial model of the
gate written here, independent of ``multiport.states`` and
``multiport.bell``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

BASIS = ("rational", "sqrt2", "sqrt3", "sqrt6")
BELL = ("Psi+", "Psi-", "Phi+", "Phi-")
UNITARITY_FLOOR = 1e-9
CONSERVATION_TOL = 1e-12
FLOAT_TOL = 1e-12


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def matrix_from_json(rows) -> np.ndarray:
    """Float ([re, im]) or exact ({"approx": [re, im]}) encoded entries."""
    return np.array(
        [[complex(*(v["approx"] if isinstance(v, dict) else v)) for v in row] for row in rows]
    )


def unitarity_dev(m: np.ndarray) -> float:
    return float(np.abs(m @ m.conj().T - np.eye(len(m))).max())


def dihedral_dev(m: np.ndarray) -> float:
    n = len(m)
    shift = np.roll(np.eye(n), 1, axis=0)
    reflect = np.eye(n)[[0] + list(range(n - 1, 0, -1))]
    return max(float(np.abs(p @ m @ p.T - m).max()) for p in (shift, reflect))


def grover(n: int) -> np.ndarray:
    return np.full((n, n), 2.0 / n) - np.eye(n)


def long_time_matrix_ok(data, n: int, identical: bool, reference: bool) -> bool:
    """``unitary`` output: unitary within max(residual, 1e-9), dihedral on
    identical vertices, and i * Grover for the reference 3-port."""
    m = matrix_from_json(data["matrix"])
    residual = data["residual"]
    if m.shape != (n, n) or not data["converged"]:
        return False
    if unitarity_dev(m) > max(residual, UNITARITY_FLOOR):
        return False
    if identical and dihedral_dev(m) > UNITARITY_FLOOR:
        return False
    if reference and n == 3:
        return float(np.abs(m - 1j * grover(3)).max()) <= max(residual, UNITARITY_FLOOR)
    return True


# ---------------------------------------------------------------------------
# convergence of the iterated long-time sum
# ---------------------------------------------------------------------------

# The reference device: 50/50 splitters r = i/sqrt2, t = 1/sqrt2, mirror
# round-trip factor -i, no edge phase.
REFERENCE = {"r": 1j / math.sqrt(2), "t": 1 / math.sqrt(2),
             "mirror_phase": -math.pi / 2, "edge_phase": 0.0}


def internal_step(n: int, r, t, mirror_phase, edge_phase):
    """(A, B) over a device's 3n internal modes: the clockwise mode
    leaving vertex v along edge v (index v), the counter-clockwise mode
    leaving v along edge v-1 (n + v) and v's mirror arm (2n + v).  ``A``
    scatters the internal state once at every vertex; column p of ``B``
    is the state after a photon enters at port p.  Each parameter is one
    value for every vertex (edge) or one per vertex (edge)."""
    r, t = (np.broadcast_to(np.asarray(x, dtype=complex), (n,)) for x in (r, t))
    m, e = (np.broadcast_to(np.exp(1j * np.asarray(x, dtype=float)), (n,))
            for x in (mirror_phase, edge_phase))
    A = np.zeros((3 * n, 3 * n), dtype=complex)
    B = np.zeros((3 * n, n), dtype=complex)
    for v in range(n):
        left, right = (v - 1) % n, (v + 1) % n
        # arriving clockwise from the left and counter-clockwise from the
        # right, the splitter sends r + t of them into the mirror arm ...
        A[2 * n + v, left] = t[v] * m[v]
        A[2 * n + v, n + right] = r[v] * m[v]
        # ... and splits what the mirror returns onto the two edges
        A[v, 2 * n + v] = r[v] * e[v]
        A[n + v, 2 * n + v] = t[v] * e[left]
        B[v, v] = t[v] * e[v]
        B[n + v, v] = r[v] * e[left]
    return A, B


def may_not_converge(n: int, max_steps: int, tol: float, **device) -> bool:
    """True when the amplitude left inside after ``max_steps``
    encounters, for the worst input port, is at least tol / 2: the
    iterated sum does not reach ``tol`` in time, or comes within a factor
    of 2 of missing it.  ``device`` holds r, t, mirror_phase and
    edge_phase as ``internal_step`` takes them."""
    A, B = internal_step(n, **device)
    inside = np.linalg.matrix_power(A, max_steps - 1) @ B
    return float(np.sqrt((np.abs(inside) ** 2).sum(axis=0)).max()) >= tol / 2


# ---------------------------------------------------------------------------
# exact numbers as the CLI encodes them
# ---------------------------------------------------------------------------


def quad(part) -> tuple:
    """{"rational": [num, den], "sqrt2": ...} -> four Fractions."""
    return tuple(Fraction(*part.get(name, (0, 1))) for name in BASIS)


def exact_scalar(value) -> tuple:
    return quad(value["re"]), quad(value["im"])


def add_quads(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def eighth_root(k: int) -> tuple:
    """e^{i k pi/4} as (re, im) quads."""
    half = Fraction(1, 2)
    cos = (1, half, 0, -half, -1, -half, 0, half)
    sin = (0, half, 1, half, 0, -half, -1, -half)

    def part(c):
        c = Fraction(c)
        return (c, 0, 0, 0) if c.denominator == 1 else (0, c, 0, 0)

    return tuple(tuple(Fraction(x) for x in part(t[k % 8])) for t in (cos, sin))


def halve(z) -> tuple:
    return tuple(tuple(c / 2 for c in part) for part in z)


def exits_ok(data, n: int, input_port: int, edge_k, mode: str, reference: bool) -> bool:
    """``exits`` output.

    At N = 2 the photon has crossed one edge: port v+1 gets r t e_v and
    port v-1 gets t r e_{v-1}, with r t = i/2 and e_k = e^{i k pi/4}, and
    every other port gets 0.  Conservation must hold to 1e-12.  For the
    reference 3-port, cumulative + 2^(1-N) == 1 at even N.
    """
    rows = data["rows"]
    if data["conservation_dev"] >= CONSERVATION_TOL:
        return False
    prev = 0.0
    for row in rows:
        cum = row["cumulative_probability"]
        cum = cum["approx"] if mode == "exact" else cum
        if cum < prev - FLOAT_TOL or cum > 1.0 + FLOAT_TOL:
            return False
        prev = cum
    right, left = (input_port + 1) % n, (input_port - 1) % n
    expected = {
        right: halve(eighth_root(edge_k[input_port] + 2)),
        left: halve(eighth_root(edge_k[left] + 2)),
    }
    zero = ((0,) * 4, (0,) * 4)
    for port, amp in enumerate(rows[1]["amplitudes"]):
        want = expected.get(port, zero)
        if mode == "exact":
            if exact_scalar(amp) != want:
                return False
        else:
            got = complex(*amp)
            ref = complex(_quad_float(want[0]), _quad_float(want[1]))
            if abs(got - ref) > FLOAT_TOL:
                return False
    if reference and n == 3:
        for row in rows:
            if row["n"] % 2:
                continue
            closed = 1 - Fraction(2) ** (1 - row["n"])
            cum = row["cumulative_probability"]
            if mode == "exact":
                if quad(cum) != (closed, 0, 0, 0):
                    return False
            elif abs(cum - float(closed)) > FLOAT_TOL:
                return False
    return True


def _quad_float(q) -> float:
    return sum(float(c) * math.sqrt(b) for c, b in zip(q, (1, 2, 3, 6)))


def paths_ok(data, length: int) -> bool:
    """Every path of a 50/50 device has |amplitude|^2 = 2^-N, and the
    reported sum equals the exact sum of the path amplitudes."""
    total = ((Fraction(0),) * 4, (Fraction(0),) * 4)
    for path in data["paths"]:
        if path["bs_encounters"] != length:
            return False
        re, im = path["amplitude"]["approx"]
        if abs(re * re + im * im - 2.0 ** -length) > FLOAT_TOL:
            return False
        amp = exact_scalar(path["amplitude"])
        total = (add_quads(total[0], amp[0]), add_quads(total[1], amp[1]))
    return exact_scalar(data["amplitude_sum"]) == total


# ---------------------------------------------------------------------------
# the heralded Bell gate
# ---------------------------------------------------------------------------


def klein_product(a: str, b: str, condition: str) -> str:
    """Gate output label by the group law: under s the identity is Phi+
    and every other element is its own inverse with a*b the third one;
    o is the same table with Psi and Phi swapped on every label."""
    if condition == "o":
        return _swap(klein_product(_swap(a), _swap(b), "s"))
    if a == b:
        return "Phi+"
    if a == "Phi+":
        return b
    if b == "Phi+":
        return a
    return ({"Phi-", "Psi+", "Psi-"} - {a, b}).pop()


def _swap(label: str) -> str:
    return ("Phi" if label.startswith("Psi") else "Psi") + label[-1]


def _bell_poly(label: str, pair) -> dict:
    p, q = pair
    sign = 1 if label.endswith("+") else -1
    if label.startswith("Psi"):
        terms = (((p, 0), (q, 1)), ((p, 1), (q, 0)))
    else:
        terms = (((p, 0), (q, 0)), ((p, 1), (q, 1)))
    amp = 2 ** -0.5
    return {tuple(sorted(terms[0])): amp, tuple(sorted(terms[1])): sign * amp}


def _poly_apply(u: np.ndarray, poly: dict) -> dict:
    out = {}
    for mono, coef in poly.items():
        partial = {(): coef}
        for port, pol in mono:
            nxt = {}
            for key, c in partial.items():
                for q in range(len(u)):
                    k2 = tuple(sorted(key + ((q, pol),)))
                    nxt[k2] = nxt.get(k2, 0j) + c * u[q, port]
            partial = nxt
        for key, c in partial.items():
            out[key] = out.get(key, 0j) + c
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(sorted(m1 + m2))
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _number_basis(poly: dict) -> dict:
    """Creation monomial coefficients -> normalised number-state amplitudes."""
    out = {}
    for mono, coef in poly.items():
        counts = {}
        for mode in mono:
            counts[mode] = counts.get(mode, 0) + 1
        factor = math.prod(math.sqrt(math.factorial(c)) for c in counts.values())
        key = tuple(sorted(counts.items()))
        out[key] = out.get(key, 0j) + coef * factor
    return out


def gate_model(in_label: str, in_pair, ctrl_label: str, ctrl_pair, condition: str):
    """(output label, success probability) of the gate on the reference
    3-port, from creation polynomials in floating point."""
    herald = (set(in_pair) & set(ctrl_pair)).pop()
    b, c = sorted((set(in_pair) | set(ctrl_pair)) - {herald})
    u = 1j * grover(3)
    four = _number_basis(
        _poly_mul(_poly_apply(u, _bell_poly(in_label, in_pair)),
                  _poly_apply(u, _bell_poly(ctrl_label, ctrl_pair)))
    )
    heralded = {}
    prob = 0.0
    for occ, amp in four.items():
        counts = dict(occ)
        ports = {}
        for (port, _pol), k in occ:
            ports[port] = ports.get(port, 0) + k
        if ports != {herald: 2, b: 1, c: 1}:
            continue
        h, v = counts.get((herald, 0), 0), counts.get((herald, 1), 0)
        if condition == "o" and (h, v) != (1, 1):
            continue
        if condition == "s" and (h, v) == (1, 1):
            continue
        prob += abs(amp) ** 2
        rest = tuple((m, k) for m, k in occ if m[0] != herald)
        scale = 1.0 if condition == "o" else 2 ** -0.5
        heralded[rest] = heralded.get(rest, 0j) + amp * scale
    norm = sum(abs(a) ** 2 for a in heralded.values())
    best, best_frac = None, 0.0
    for label in BELL:
        ref = _number_basis(_bell_poly(label, (b, c)))
        overlap = sum(ref[k].conjugate() * heralded.get(k, 0j) for k in ref)
        frac = abs(overlap) ** 2 / norm
        if frac > best_frac:
            best, best_frac = label, frac
    return (best if best_frac > 1 - 1e-9 else None), prob


def gate_ok(outcome, in_label, in_pair, ctrl_label, ctrl_pair, condition, model) -> bool:
    """``bell.process`` result against the group law, the model and the
    paper's exact (Psi+, Psi+) probabilities."""
    label, prob = model
    if outcome.output is None or outcome.output.short != label:
        return False
    if label != klein_product(in_label, ctrl_label, condition):
        return False
    if abs(outcome.probability - prob) > FLOAT_TOL:
        return False
    exact_prob = outcome.probability_exact
    if exact_prob is None or not exact_prob.is_rational():
        return False
    if float(exact_prob.as_fraction()) != outcome.probability:
        return False
    if in_label == ctrl_label == "Psi+":
        want = Fraction(169, 13122) if condition == "o" else Fraction(841, 6561)
        return exact_prob.as_fraction() == want
    return True


def truth_table_ok(data, models) -> bool:
    """``bell-table`` output: 16 rows, labels by the group law, and
    probabilities matching the model (exactly for (Psi+, Psi+))."""
    rows = data["rows"]
    if len(rows) != 16:
        return False
    for row in rows:
        a, b = row["input"], row["control"]
        for cond in ("s", "o"):
            label, prob = models[(a, b, cond)]
            if row["out_" + cond] != label or label != klein_product(a, b, cond):
                return False
            if abs(row["prob_" + cond] - prob) > FLOAT_TOL:
                return False
        if a == b == "Psi+" and (
            row["prob_o"] != float(Fraction(169, 13122))
            or row["prob_s"] != float(Fraction(841, 6561))
        ):
            return False
    return True


def group_table_ok(data, condition: str) -> bool:
    axioms = data["axioms"]
    if axioms["violations"] or not all(
        axioms[k] for k in ("closure", "commutative", "self_inverse", "klein_isomorphic")
    ):
        return False
    if axioms["identity"] != klein_product("Phi+", "Phi+", condition):
        return False
    elements = data["elements"]
    return data["table"] == [[klein_product(a, b, condition) for b in elements] for a in elements]


def cnot_ok(data) -> bool:
    rows = data["rows"]
    return len(rows) == 4 and all(
        r["output_bit"] == r["input_bit"] ^ r["control_bit"] for r in rows
    )


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def walk_ok(result, steps: int) -> bool:
    """Conservation below 1e-12 on every step, cumulative lead
    probabilities non-decreasing, and the total probability still 1."""
    if len(result.steps) != steps:
        return False
    prev = None
    for step in result.steps:
        if step.conservation_dev >= CONSERVATION_TOL:
            return False
        cum = step.lead_cumulative_probability
        if prev is not None and any(x < y - FLOAT_TOL for x, y in zip(cum, prev)):
            return False
        prev = cum
    last = result.steps[-1]
    return abs(last.internal_probability + sum(last.lead_cumulative_probability) - 1.0) < CONSERVATION_TOL
