"""Device compilation, exit records, path sums and closed forms.

The exit-amplitude table for the reference three-port is the conformance
oracle for the wiring convention: every value below was computed
independently by brute-force path enumeration before being frozen here.
"""

import cmath
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from multiport import cli, device, exact
from multiport.device import (
    MultiportSpec,
    amplitude_series,
    compare_up_to_global_phase,
    compile_spec,
    dense_step_operators,
    enumerate_paths,
    exit_record,
    grover_coin,
    long_time_matrix,
    steady_state,
    symmetric_unitary,
    triport_unitary,
)
from multiport.errors import ConvergenceError, SpecError
from multiport.matrices import Matrix
from multiport.states import port_label

F = Fraction
I_HALF = exact.I * exact.ExactComplex(F(1, 2))

# (N, A exit, B exit, C exit, step prob, cumulative) for input at A
TRIPORT_TABLE = (
    (2, 0, F(1, 2), F(1, 2), F(1, 2), F(1, 2)),
    (4, F(-1, 2), F(1, 4), F(1, 4), F(3, 8), F(7, 8)),
    (6, F(1, 4), F(-1, 8), F(-1, 8), F(3, 32), F(31, 32)),
    (8, F(-1, 8), F(1, 16), F(1, 16), F(3, 128), F(127, 128)),
    (10, F(1, 16), F(-1, 32), F(-1, 32), F(3, 512), F(511, 512)),
)


def exact_spec(**kw):
    return MultiportSpec(mode="exact", **kw)


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_structure_counts():
    dev3 = compile_spec(MultiportSpec(n=3))
    assert (dev3.bs_node_count, dev3.mirror_node_count) == (3, 3)
    assert (dev3.inter_vertex_mode_count, dev3.mirror_stub_mode_count) == (6, 6)
    dev4 = compile_spec(MultiportSpec(n=4))
    assert (dev4.bs_node_count, dev4.mirror_node_count) == (4, 4)
    assert (dev4.inter_vertex_mode_count, dev4.mirror_stub_mode_count) == (8, 8)


def test_compile_rejects_small_and_nonunitary():
    with pytest.raises(SpecError):
        compile_spec(MultiportSpec(n=2))
    # the port bound holds before anything of size n is built
    assert compile_spec(MultiportSpec(n=device._MAX_PORTS)).n == device._MAX_PORTS
    for n in (device._MAX_PORTS + 1, 10 ** 12):
        with pytest.raises(SpecError, match="at most"):
            compile_spec(MultiportSpec(n=n))
    with pytest.raises(SpecError):
        compile_spec(MultiportSpec(n=3, r=0.5 + 0j, t=0.5 + 0j))
    with pytest.raises(SpecError):
        compile_spec(MultiportSpec(n=3, mirror_factor=0.5 + 0j))
    # r and t both real violates the relative-phase constraint
    with pytest.raises(SpecError):
        compile_spec(MultiportSpec(n=3, r=1 / math.sqrt(2), t=1 / math.sqrt(2)))


def test_compile_rejects_non_finite():
    nan = float("nan")
    for kwargs in (
        dict(r=complex(nan, nan), t=complex(nan, nan)),
        dict(r=complex(math.inf, 0), t=0j),
        dict(mirror_factor=complex(nan, 0)),
        dict(edge_phases=nan),
        dict(edge_phases=[0.0, math.inf, 0.0]),
    ):
        with pytest.raises(SpecError):
            compile_spec(MultiportSpec(n=3, **kwargs))
    with pytest.raises(SpecError):
        compile_spec(exact_spec(n=3, edge_phases=nan))


def test_degenerate_splitters_allowed():
    for r, t in ((0j, 1 + 0j), (1j, 0j)):
        res = steady_state(MultiportSpec(n=3, r=r, t=t), tol=1e-12)
        assert res.converged
        assert res.matrix.unitarity_dev() < 1e-12
        # fully transmitting or reflecting vertices bounce straight back
        assert res.matrix.max_abs_dev(Matrix.identity(3).scaled(-1j)) < 1e-12


# ---------------------------------------------------------------------------
# exit records
# ---------------------------------------------------------------------------


def test_triport_table_exact():
    rec = exit_record(exact_spec(n=3), 0, 10)
    assert rec.conservation_dev == 0.0
    for n, a, b, c, step, cum in TRIPORT_TABLE:
        row = rec.steps[n - 1]
        for port, val in enumerate((a, b, c)):
            assert row.amplitudes[port] == exact.I * exact.ExactComplex(val)
        assert row.step_probability.as_fraction() == step
        assert row.cumulative_probability.as_fraction() == cum
    for n in (1, 3, 5, 7, 9):
        assert all(amp.is_zero() for amp in rec.steps[n - 1].amplitudes)


def test_exit_probability_law():
    # 1/2 at N=2; 6/2^N at even N >= 4; zero at odd N
    rec = exit_record(exact_spec(n=3, max_steps=24), 0, 24)
    for row in rec.steps[1:]:
        if row.n % 2 == 1:
            assert row.step_probability == 0
        elif row.n == 2:
            assert row.step_probability.as_fraction() == F(1, 2)
        else:
            assert row.step_probability.as_fraction() == F(6, 2 ** row.n)


def test_cyclic_permutation_of_input():
    rec_a = exit_record(exact_spec(n=3), 0, 10)
    rec_b = exit_record(exact_spec(n=3), 1, 10)
    for n in range(1, 11):
        for port in range(3):
            assert rec_b.steps[n - 1].amplitudes[(port + 1) % 3] == rec_a.steps[
                n - 1
            ].amplitudes[port]


def test_float_matches_exact():
    rec_f = exit_record(MultiportSpec(n=3), 0, 12)
    rec_e = exit_record(exact_spec(n=3), 0, 12)
    for n in range(1, 13):
        for port in range(3):
            assert complex(rec_f.steps[n - 1].amplitudes[port]) == pytest.approx(
                complex(rec_e.steps[n - 1].amplitudes[port]), abs=1e-14
            )
    assert rec_f.conservation_dev < 1e-14


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_single_path_a_to_b():
    paths = enumerate_paths(exact_spec(n=3), 0, 1, 2)
    assert len(paths) == 1
    assert paths[0].symbol_string == "tr"
    assert paths[0].amplitude == I_HALF
    assert paths[0].mirror_count == 0


def test_no_return_paths_at_n2():
    assert enumerate_paths(exact_spec(n=3), 0, 0, 2) == []


def test_return_paths_at_n4():
    paths = enumerate_paths(exact_spec(n=3), 0, 0, 4)
    assert len(paths) == 2
    quarter = exact.I * exact.ExactComplex(F(-1, 4))
    for p in paths:
        assert p.amplitude == quarter
        assert p.mirror_count == 1
        assert p.bs_encounters == 4
    assert {p.symbol_string for p in paths} == {"ttMtt", "rrMrr"}


def test_path_sums_match_exit_record():
    spec = exact_spec(n=3)
    rec = exit_record(spec, 0, 10)
    for n in range(2, 11):
        for port in range(3):
            total = exact.ZERO
            for p in enumerate_paths(spec, 0, port, n):
                total = total + p.amplitude
            assert total == rec.steps[n - 1].amplitudes[port], (n, port)


def test_path_magnitude_law():
    for p in enumerate_paths(exact_spec(n=3), 0, 1, 8):
        assert float(p.amplitude.abs_sq()) == pytest.approx(2.0 ** -8)


def test_mirror_counts_recorded_not_constrained():
    # the N=4 return paths each hit the mirror an odd number of times
    counts = sorted(p.mirror_count for p in enumerate_paths(exact_spec(n=3), 0, 0, 4))
    assert counts == [1, 1]
    hist = {}
    for n in range(2, 11):
        for port in range(3):
            for p in enumerate_paths(exact_spec(n=3), 0, port, n):
                hist[p.mirror_count] = hist.get(p.mirror_count, 0) + 1
    assert set(hist) & {1, 2, 3}, hist


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------


def test_steady_state_default_triport():
    res = steady_state(MultiportSpec(n=3), tol=1e-12)
    assert res.converged
    assert res.residual < 1e-12
    assert res.steps_used <= MultiportSpec().max_steps
    assert res.matrix.max_abs_dev(triport_unitary("float")) < 1e-9
    assert res.conservation_dev < 1e-13


def test_steady_state_exact_mode_runs():
    res = steady_state(exact_spec(n=3, max_steps=44), tol=1e-6)
    assert res.converged
    # residual amplitude norm after N encounters is sqrt(2^(1-N))
    assert res.residual == pytest.approx(math.sqrt(2.0 ** (1 - res.steps_used)))
    entry = res.matrix.entry(0, 0)
    assert complex(entry) == pytest.approx(complex(0, -1 / 3), abs=1e-6)


def test_dense_and_sparse_paths_agree():
    rng = random.Random(17)
    for _ in range(5):
        theta = rng.uniform(0.3, math.pi / 2 - 0.3)
        gamma = rng.uniform(0, 2 * math.pi)
        r = 1j * cmath.exp(1j * gamma) * math.sin(theta)
        t = cmath.exp(1j * gamma) * math.cos(theta)
        phase = rng.uniform(0, 2 * math.pi)
        spec = MultiportSpec(
            n=4, r=r, t=t, mirror_factor=cmath.exp(1j * phase), max_steps=60
        )
        dense = steady_state(spec, tol=1e-15)
        # independent accumulation through the per-step record engine
        dev = compile_spec(spec)
        acc = np.zeros((4, 4), dtype=complex)
        for port in range(4):
            rec = exit_record(spec, port, 60)
            for row in rec.steps:
                acc[:, port] += np.array([complex(a) for a in row.amplitudes])
        assert np.abs(acc - dense.matrix.to_numpy()).max() < 1e-13


def test_nonconvergence_is_flagged():
    res = steady_state(MultiportSpec(n=3, max_steps=10), tol=1e-12)
    assert not res.converged
    assert res.residual > 1e-12


def _steady_state_by_steps(spec, tol):
    """Reference float steady state: one encounter per iteration."""
    a, b, c = dense_step_operators(compile_spec(spec))
    x = b.copy()
    u = np.zeros((spec.n, spec.n), dtype=complex)
    exited = np.zeros(spec.n)
    conservation = 0.0
    for k in range(2, spec.max_steps + 1):
        exits = c @ x
        u += exits
        exited += (np.abs(exits) ** 2).sum(axis=0)
        x = a @ x
        internal = (np.abs(x) ** 2).sum(axis=0)
        conservation = max(conservation, float(np.abs(internal + exited - 1.0).max()))
        residual = float(np.sqrt(internal.max()))
        if residual < tol:
            return u, residual, k, True, conservation
    return u, residual, spec.max_steps, False, conservation


def _random_float_spec(rng, max_steps):
    """A random device, identical at every vertex or set per vertex."""
    n = rng.randint(3, 8)
    count = rng.choice((1, n))
    thetas = [rng.uniform(0.05, math.pi / 2 - 0.05) for _ in range(count)]
    gammas = [rng.uniform(0, 2 * math.pi) for _ in range(count)]
    mirror = [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(count)]
    edge = [rng.uniform(0, 2 * math.pi) for _ in range(count)]
    r = [1j * cmath.exp(1j * g) * math.sin(th) for th, g in zip(thetas, gammas)]
    t = [cmath.exp(1j * g) * math.cos(th) for th, g in zip(thetas, gammas)]

    def per_vertex(values):
        return values if count > 1 else values[0]

    return MultiportSpec(
        n=n,
        r=per_vertex(r),
        t=per_vertex(t),
        mirror_factor=per_vertex(mirror),
        edge_phases=per_vertex(edge),
        max_steps=max_steps,
    )


def test_float_steady_state_matches_step_by_step_sum():
    rng = random.Random(2024)
    defaults = [(MultiportSpec(n=n), 1e-12) for n in range(3, 9)]
    cases = defaults + [(MultiportSpec(n=n, max_steps=9), 1.0) for n in range(3, 9)]
    cases += [(MultiportSpec(n=3, r=0j, t=1 + 0j, max_steps=9), 1.0)]
    for max_steps in (2, 3, 4, 5, 8, 9, 100, 1000):
        for tol in (1e-12, 1e-6, 1e-3, 0.5, 1.0, 2.0):
            for _ in range(3):
                cases.append((_random_float_spec(rng, max_steps), tol))
    for spec, tol in cases:
        u, residual, steps_used, converged, _ = _steady_state_by_steps(spec, tol)
        res = steady_state(spec, tol=tol)
        assert (res.converged, res.steps_used) == (converged, steps_used), spec
        assert np.abs(res.matrix.to_numpy() - u).max() < 1e-12
        assert res.residual == pytest.approx(residual, rel=1e-9, abs=1e-14)
        assert res.conservation_dev < 1e-12
    # the reference device at the defaults drains too slowly for n = 5, 7, 8
    unconverged = {spec.n for spec, tol in defaults if not steady_state(spec, tol).converged}
    assert unconverged == {5, 7, 8}


def test_n4_default_unitary_and_dihedral():
    res = steady_state(MultiportSpec(n=4), tol=1e-10)
    m = res.matrix.to_numpy()
    assert res.matrix.unitarity_dev() < 1e-9
    shift = np.roll(np.eye(4), 1, axis=0)
    reflect = np.eye(4)[[0, 3, 2, 1]]
    for p in (shift, reflect):
        assert np.abs(p @ m @ p.T - m).max() < 1e-12


def test_n4_grover_phase_search():
    """Grid the mirror phase and refine; some phase must reproduce the
    4-dimensional Grover coin up to global phase.

    The evaluator is dense matrix powering of the one-step operators,
    independent of the stepping engine.
    """
    g4 = grover_coin(4).to_numpy()

    def steady_dense(phase, steps):
        spec = MultiportSpec(n=4, mirror_factor=cmath.exp(1j * phase), max_steps=4)
        a, b, c = dense_step_operators(compile_spec(spec))
        x = b.copy()
        u = np.zeros((4, 4), dtype=complex)
        for _ in range(steps):
            u += c @ x
            x = a @ x
        return u

    def dev_at(phase, steps=60):
        u = steady_dense(phase, steps)
        ref = u[0, 1] / g4[0, 1]
        ref /= abs(ref)
        return float(np.abs(u - ref * g4).max())

    phases = np.arange(0.0, 2 * math.pi, 1e-3)
    devs = np.array([dev_at(p) for p in phases])
    best = int(devs.argmin())
    lo, hi = phases[best] - 1e-3, phases[best] + 1e-3
    for _ in range(120):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if dev_at(m1, 160) < dev_at(m2, 160):
            hi = m2
        else:
            lo = m1
    found = (lo + hi) / 2
    assert dev_at(found, 160) < 1e-6
    # the phase found is the same -i mirror factor the 3-port uses
    assert cmath.exp(1j * found) == pytest.approx(-1j, abs=1e-6)
    # and the stepping engine agrees with the coin at that phase
    res = steady_state(
        MultiportSpec(n=4, mirror_factor=cmath.exp(1j * found), max_steps=200),
        tol=1e-10,
    )
    ok, phase, dev = compare_up_to_global_phase(res.matrix, grover_coin(4), tol=1e-6)
    assert ok


# ---------------------------------------------------------------------------
# symmetric family, grover coin, global phase
# ---------------------------------------------------------------------------


def test_symmetric_unitary_reproduces_canonical_matrix():
    m = symmetric_unitary(-math.pi / 2, 0.0)
    assert m.max_abs_dev(triport_unitary("float")) < 1e-15
    exact_m = symmetric_unitary(-math.pi / 2, 0.0, mode="exact")
    assert exact_m == triport_unitary("exact")


def test_symmetric_unitary_degenerates_to_phase():
    m = symmetric_unitary(0.7, math.pi / 2)
    expect = Matrix.identity(3).scaled(cmath.exp(0.7j))
    assert m.max_abs_dev(expect) < 1e-15


def test_symmetric_unitary_always_unitary():
    rng = random.Random(23)
    for _ in range(100):
        m = symmetric_unitary(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        assert m.unitarity_dev() < 1e-12


def test_grover_coin_values_and_involution():
    g2 = grover_coin(2)
    assert g2.max_abs_dev(Matrix([[0, 1], [1, 0]])) == 0
    g3 = grover_coin(3, "exact")
    assert g3.entry(0, 0) == exact.ExactComplex(F(-1, 3))
    assert g3.entry(0, 1) == exact.ExactComplex(F(2, 3))
    for n in (2, 3, 4, 5):
        g = grover_coin(n)
        assert (g @ g).max_abs_dev(Matrix.identity(n)) < 1e-15
    # the canonical triport matrix is i times the coin
    u = triport_unitary("exact")
    assert u == grover_coin(3, "exact").scaled(exact.I)


def test_compare_up_to_global_phase():
    u = triport_unitary("float")
    ok, phase, dev = compare_up_to_global_phase(u, grover_coin(3), tol=1e-12)
    assert ok and dev < 1e-15
    assert phase == pytest.approx(1j, abs=1e-12)
    ok, phase, _dev = compare_up_to_global_phase(u, u)
    assert ok and phase == pytest.approx(1, abs=1e-12)
    ok, _phase, dev = compare_up_to_global_phase(u, Matrix.identity(3))
    assert not ok and dev > 0.1


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_return_port():
    s = amplitude_series(exact_spec(n=3), 0, 0, n_max=10)
    sums = [amp for _n, amp in s.partial_sums]
    expect = [F(-1, 2), F(-1, 4), F(-3, 8), F(-5, 16)]
    assert [a / exact.I for a in sums] == [exact.ExactComplex(v) for v in expect]
    assert s.extrapolated == exact.I * exact.ExactComplex(F(-1, 3))
    assert s.ratio == exact.ExactComplex(F(-1, 2))


def test_series_transmission_port():
    s = amplitude_series(exact_spec(n=3), 0, 1, n_max=12)
    assert s.terms[0] == (2, I_HALF)
    assert s.extrapolated == exact.I * exact.ExactComplex(F(2, 3))


def test_series_float_mode():
    s = amplitude_series(MultiportSpec(n=3), 0, 1, n_max=14)
    assert complex(s.extrapolated) == pytest.approx(2j / 3, abs=1e-12)


def test_series_refusal_on_non_geometric():
    # heterogeneous mirrors break the constant ratio
    spec = MultiportSpec(
        n=3,
        mirror_factor=[cmath.exp(0.4j), cmath.exp(1.1j), cmath.exp(2.0j)],
    )
    with pytest.raises(ConvergenceError):
        amplitude_series(spec, 0, 0, n_max=14)


# ---------------------------------------------------------------------------
# step rows against the hand-written wiring they replaced
# ---------------------------------------------------------------------------


def _amp_is_zero(amp, mode):
    return amp.is_zero() if mode == "exact" else abs(amp) <= 1e-300


class _ReferenceEvolution:
    """Reference: per-vertex stepping with the wiring written out by hand."""

    def __init__(self, dev, input_port):
        self.dev = dev
        self.input_port = input_port
        self.zero = exact.field(dev.mode).zero
        self.state = {}
        self.encounter = 0
        self.cumulative = self.zero if dev.mode == "exact" else 0.0
        self.conservation_dev = 0.0

    def internal_prob(self):
        total = self.zero if self.dev.mode == "exact" else 0.0
        for amp in self.state.values():
            total = total + exact.abs_sq(amp)
        return total

    def step(self):
        dev = self.dev
        n = dev.n
        zero = self.zero
        self.encounter += 1
        inject = self.input_port if self.encounter == 1 else None
        state = self.state
        new = {}
        exits = []
        step_prob = zero if dev.mode == "exact" else 0.0
        for v in range(n):
            a_s = state.get(("cw", (v - 1) % n), zero)
            a_e = state.get(("ccw", (v + 1) % n), zero)
            a_m = state.get(("mir", v), zero)
            rv, tv = dev.r[v], dev.t[v]
            out_ext = tv * a_e + rv * a_s
            out_mir = rv * a_e + tv * a_s
            if inject == v:
                one = exact.field(dev.mode).one
                out_e = tv * one + rv * a_m
                out_s = rv * one + tv * a_m
            else:
                out_e = rv * a_m
                out_s = tv * a_m
            exits.append(out_ext)
            step_prob = step_prob + exact.abs_sq(out_ext)
            if not _amp_is_zero(out_e, dev.mode):
                new[("cw", v)] = out_e * dev.edge_factor[v]
            if not _amp_is_zero(out_s, dev.mode):
                new[("ccw", v)] = out_s * dev.edge_factor[(v - 1) % n]
            if not _amp_is_zero(out_mir, dev.mode):
                new[("mir", v)] = out_mir * dev.mirror[v]
        self.state = new
        self.cumulative = self.cumulative + step_prob
        total = self.internal_prob() + self.cumulative
        self.conservation_dev = max(self.conservation_dev, abs(float(total) - 1.0))
        return tuple(exits), step_prob


def _reference_steady_state_exact(dev, tol):
    columns, worst, steps_used, converged, conservation = [], 0.0, 0, True, 0.0
    for port in range(dev.n):
        evo = _ReferenceEvolution(dev, port)
        acc = [exact.ZERO] * dev.n
        for n in range(1, dev.max_steps + 1):
            exits, _prob = evo.step()
            acc = [a + e for a, e in zip(acc, exits)]
            residual = math.sqrt(max(float(evo.internal_prob()), 0.0))
            if residual < tol:
                steps_used = max(steps_used, n)
                break
        else:
            steps_used = dev.max_steps
            converged = False
        worst = max(worst, residual)
        conservation = max(conservation, evo.conservation_dev)
        columns.append(acc)
    rows = tuple(tuple(columns[j][i] for j in range(dev.n)) for i in range(dev.n))
    return Matrix(rows, "exact"), worst, steps_used, converged, conservation


def _reference_paths(dev, input_port, exit_port, n):
    """Reference: depth-first search over hand-written arrival cases."""
    paths = []
    stack = [("ext", input_port, 1, exact.field(dev.mode).one, (), 0)]
    while stack:
        kind, v, k, amp, syms, mirrors = stack.pop()
        if k > n:
            continue
        rv, tv = dev.r[v], dev.t[v]
        nxt, prv = (v + 1) % dev.n, (v - 1) % dev.n
        if kind == "ext":
            stack.append(("edge_s", nxt, k + 1, amp * tv * dev.edge_factor[v], syms + (("t", v),), mirrors))
            stack.append(("edge_e", prv, k + 1, amp * rv * dev.edge_factor[prv], syms + (("r", v),), mirrors))
        elif kind in ("edge_s", "edge_e"):
            exit_sym, exit_amp = ("r", rv) if kind == "edge_s" else ("t", tv)
            mir_sym, mir_amp = ("t", tv) if kind == "edge_s" else ("r", rv)
            if k == n and v == exit_port:
                paths.append((syms + ((exit_sym, v),), amp * exit_amp, mirrors))
            stack.append(
                ("mir", v, k + 1, amp * mir_amp * dev.mirror[v], syms + ((mir_sym, v), ("M", v)), mirrors + 1)
            )
        else:
            stack.append(("edge_s", nxt, k + 1, amp * rv * dev.edge_factor[v], syms + (("r", v),), mirrors))
            stack.append(("edge_e", prv, k + 1, amp * tv * dev.edge_factor[prv], syms + (("t", v),), mirrors))
    paths.sort(key=lambda p: "".join(sym for sym, _v in p[0]))
    return paths


def _reference_dense(dev):
    n = dev.n
    A = np.zeros((3 * n, 3 * n), dtype=complex)
    B = np.zeros((3 * n, n), dtype=complex)
    C = np.zeros((n, 3 * n), dtype=complex)
    for v in range(n):
        r, t, m = complex(dev.r[v]), complex(dev.t[v]), complex(dev.mirror[v])
        e_cw, e_ccw = complex(dev.edge_factor[v]), complex(dev.edge_factor[(v - 1) % n])
        A[v, 2 * n + v] = r * e_cw
        A[n + v, 2 * n + v] = t * e_ccw
        A[2 * n + v, n + (v + 1) % n] = r * m
        A[2 * n + v, (v - 1) % n] = t * m
        C[v, n + (v + 1) % n] = t
        C[v, (v - 1) % n] = r
        B[v, v] = t * e_cw
        B[n + v, v] = r * e_ccw
    return A, B, C


_EXACT_SPLITTERS = (
    (exact.I * exact.INV_SQRT2, exact.INV_SQRT2),
    (-exact.I * exact.INV_SQRT2, exact.INV_SQRT2),
    (exact.I * exact.SQRT3 * exact.ExactComplex(F(1, 2)), exact.ExactComplex(F(1, 2))),
    (exact.I * exact.ExactComplex(F(1, 2)), exact.SQRT3 * exact.ExactComplex(F(1, 2))),
    (exact.I, exact.ZERO),
)


def _heterogeneous_spec(rng, mode, n, max_steps):
    """A seeded n-port device with its own r, t and mirror at every
    vertex and its own phase on every edge (pi/4 grid in exact mode)."""
    if mode == "exact":
        r, t = [], []
        for _ in range(n):
            rv, tv = rng.choice(_EXACT_SPLITTERS)
            w = exact.eighth_root(rng.randrange(8))
            r.append(w * rv)
            t.append(w * tv)
        mirror = [exact.eighth_root(rng.randrange(8)) for _ in range(n)]
        edge = [rng.randrange(8) * math.pi / 4 for _ in range(n)]
    else:
        r, t = [], []
        for _ in range(n):
            theta = rng.choice((0.0, rng.uniform(0.05, math.pi / 2 - 0.05)))
            gamma = rng.uniform(0, 2 * math.pi)
            r.append(1j * cmath.exp(1j * gamma) * math.sin(theta))
            t.append(cmath.exp(1j * gamma) * math.cos(theta))
        mirror = [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        edge = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
    return MultiportSpec(
        n=n, r=r, t=t, mirror_factor=mirror, edge_phases=edge, max_steps=max_steps, mode=mode
    )


def _same(a, b, mode):
    return a == b if mode == "exact" else abs(complex(a) - complex(b)) <= 1e-12


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_step_rows_match_hand_written_wiring(mode):
    rng = random.Random(4 if mode == "exact" else 44)
    n_max, path_lengths = (10, (2, 4, 6, 8)) if mode == "exact" else (40, (2, 4, 6, 8, 10))
    for n in list(range(3, 9)) * (2 if mode == "exact" else 5):
        spec = _heterogeneous_spec(rng, mode, n, max_steps=60)
        dev = compile_spec(spec)

        for got, want in zip(dense_step_operators(dev), _reference_dense(dev)):
            if mode == "exact":
                assert np.abs(got - want).max() < 1e-15
            else:
                assert np.array_equal(got, want)

        for port in sorted({0, rng.randrange(dev.n)}):
            rec = exit_record(spec, port, n_max)
            evo = _ReferenceEvolution(dev, port)
            for step in rec.steps:
                exits, prob = evo.step()
                assert len(step.amplitudes) == len(exits)
                assert all(_same(a, b, mode) for a, b in zip(step.amplitudes, exits))
                assert _same(step.step_probability, prob, mode)
                assert _same(step.cumulative_probability, evo.cumulative, mode)
                assert type(step.step_probability) is type(prob)
                assert all(type(a) is type(b) for a, b in zip(step.amplitudes, exits))
            assert rec.conservation_dev == pytest.approx(evo.conservation_dev, abs=1e-12)
            if mode == "exact":
                assert rec.conservation_dev == evo.conservation_dev

        for length in path_lengths:
            start, stop = rng.randrange(dev.n), rng.randrange(dev.n)
            got = enumerate_paths(spec, start, stop, length)
            want = _reference_paths(dev, start, stop, length)
            assert len(got) == len(want)
            # a symbol string names one path, so sorting fixes the order
            assert len({p.symbol_string for p in got}) == len(got)
            for path, (steps, amp, mirrors) in zip(got, want):
                assert path.steps == steps
                assert path.annotated == " ".join(f"{s}@{port_label(v)}" for s, v in steps)
                assert (path.bs_encounters, path.mirror_count) == (length, mirrors)
                assert _same(path.amplitude, amp, mode)


def test_exact_steady_state_matches_hand_written_stepping():
    rng = random.Random(8)
    for n, max_steps, tol in ((3, 24, 1e-3), (4, 6, 0.5), (6, 16, 0.1), (7, 12, 0.3), (8, 10, 0.5)):
        spec = _heterogeneous_spec(rng, "exact", n, max_steps)
        matrix, residual, steps_used, converged, conservation = _reference_steady_state_exact(
            compile_spec(spec), tol
        )
        res = steady_state(spec, tol=tol)
        assert res.matrix == matrix
        assert (res.steps_used, res.converged) == (steps_used, converged)
        assert (res.residual, res.conservation_dev) == (residual, conservation)


def test_enumerate_paths_checks_its_inputs(monkeypatch):
    spec = MultiportSpec(n=3)
    for args in ((-1, 0, 4), (3, 0, 4), (0, -1, 4), (0, 3, 4), (0, 0, 0), (0, 0, -3), (0, 0, 101)):
        with pytest.raises(SpecError):
            enumerate_paths(spec, *args)
    # the paths are counted before any is built: too many are refused at
    # once, and an odd length (no path exits at odd N) finds none at once
    long = MultiportSpec(n=3, max_steps=200)
    with pytest.raises(SpecError, match="paths of 60 encounters"):
        enumerate_paths(long, 0, 0, 60)
    assert enumerate_paths(long, 0, 0, 61) == []
    # the count is exact: the cap admits exactly as many paths as are listed
    spec = exact_spec(n=5, edge_phases=[0, math.pi / 4, 0, math.pi, 0])
    listed = len(enumerate_paths(spec, 0, 2, 10))
    monkeypatch.setattr(device, "_MAX_PATHS", listed)
    assert len(enumerate_paths(spec, 0, 2, 10)) == listed
    monkeypatch.setattr(device, "_MAX_PATHS", listed - 1)
    with pytest.raises(SpecError, match=f"{listed} paths"):
        enumerate_paths(spec, 0, 2, 10)


# ---------------------------------------------------------------------------
# long-time matrix on the reachable subspace
# ---------------------------------------------------------------------------

# reachable dimension of the reference device's 3n internal modes
REACHABLE_DIM = {3: 7, 4: 8, 5: 13, 6: 14, 7: 19, 8: 20}


def test_long_time_matrix_exact_triport_is_closed_form():
    res = long_time_matrix(exact_spec(n=3))
    assert res.matrix == triport_unitary("exact")
    assert (res.method, res.residual, res.unitarity_dev) == ("resolvent", 0.0, 0.0)


@pytest.mark.parametrize("n", range(4, 9))
def test_long_time_matrix_exact_diagonal_and_unitarity(n):
    m = long_time_matrix(exact_spec(n=n)).matrix
    diagonal = exact.I * exact.ExactComplex(F(2 - n, n))
    assert all(m.entry(i, i) == diagonal for i in range(n))
    assert m @ m.dagger() == Matrix.identity(n, "exact")


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_reachable_dimensions_of_reference_devices(mode):
    for n, dim in REACHABLE_DIM.items():
        res = long_time_matrix(MultiportSpec(n=n, mode=mode))
        assert (res.reachable_dim, res.trapped_modes) == (dim, 3 * n - dim)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_unitary_command_at_defaults_for_every_port_count(mode, capsys):
    for n in range(3, 9):
        assert cli.main(["unitary", "--n", str(n), "--mode", mode]) == 0, capsys.readouterr().err
        data = json.loads(capsys.readouterr().out)["data"]
        assert (data["reachable_dim"], data["residual"] < 1e-12) == (REACHABLE_DIM[n], True)


def test_float_long_time_matrix_matches_converged_sum():
    """Seeded identical and heterogeneous devices, n = 3..8, wherever the
    truncated sum converges."""
    rng = random.Random(77)
    compared = 0
    for trial in range(120):
        n = 3 + trial % 6
        if trial % 2:
            spec = _heterogeneous_spec(rng, "float", n, 20000)
        else:
            spec = _random_float_spec(rng, 20000)
        summed = steady_state(spec, tol=1e-12)
        if not summed.converged:
            continue
        res = long_time_matrix(spec)
        assert res.matrix.max_abs_dev(summed.matrix) < 1e-10, spec
        assert res.unitarity_dev < 1e-12
        assert res.residual < 1e-12
        compared += 1
    assert compared >= 100


def test_exact_long_time_matrix_matches_float():
    """Seeded devices with phases on the pi/4 grid, solved in both modes."""
    rng = random.Random(31)
    for n in range(3, 9):
        for _ in range(2):
            spec = _heterogeneous_spec(rng, "exact", n, 100)
            exact_res = long_time_matrix(spec)
            float_spec = MultiportSpec(
                n=n,
                r=[complex(v) for v in spec.r],
                t=[complex(v) for v in spec.t],
                mirror_factor=[complex(v) for v in spec.mirror_factor],
                edge_phases=spec.edge_phases,
            )
            float_res = long_time_matrix(float_spec)
            assert exact_res.matrix.max_abs_dev(float_res.matrix) < 1e-12
            assert exact_res.reachable_dim == float_res.reachable_dim


def test_float_and_exact_agree_on_trapped_modes():
    """All 384 homogeneous devices on the pi/4 grid (n = 3..8, mirror
    factor and edge phase each an eighth turn): the float count of
    trapped modes, read off A's spectrum with a tolerance, equals the
    exact count, found by exact zero tests.  A mirror factor of 1 traps
    two modes of the 3-port although I - A has full rank, so the count
    is not the rank of the solve."""
    for n in range(3, 9):
        for k in range(8):
            factor = exact.field("exact").phase(k * math.pi / 4)
            for e in range(8):
                edge = e * math.pi / 4
                exact_res = long_time_matrix(
                    MultiportSpec(n=n, mirror_factor=factor, edge_phases=edge, mode="exact")
                )
                float_res = long_time_matrix(
                    MultiportSpec(n=n, mirror_factor=complex(factor), edge_phases=edge)
                )
                assert float_res.reachable_dim == exact_res.reachable_dim, (n, k, e)
                assert exact_res.matrix.max_abs_dev(float_res.matrix) < 1e-12, (n, k, e)
    for mode in ("float", "exact"):
        assert long_time_matrix(MultiportSpec(n=3, mirror_factor=1, mode=mode)).reachable_dim == 7
    A, _B, _C = dense_step_operators(compile_spec(MultiportSpec(n=3, mirror_factor=1)))
    assert np.linalg.matrix_rank(np.eye(9) - A) == 9


def _krylov_dim(A, B):
    """The dimension of span[B, AB, A^2 B, ...] by block Arnoldi, two
    orthogonalization passes per candidate: the float method that the
    eigenvalue count replaced, kept as its reference."""
    k = A.shape[0]
    Q = np.empty((k, k), dtype=complex)
    d = 0
    pending = list(B.T)
    for v in pending:  # grows while the basis does
        if d == k:
            break
        w = v
        for _ in range(2):
            w = w - Q[:, :d] @ (Q[:, :d].conj().T @ w)
        norm = np.linalg.norm(w)
        if norm > 1e-10 * np.linalg.norm(v):
            Q[:, d] = w / norm
            pending.append(A @ Q[:, d])
            d += 1
    return d


def test_float_trapped_count_matches_krylov_dimension():
    """Seeded devices set per vertex, each splitter angle at an end of the
    benchmark's range (0.1 or pi/2 - 0.1), with random phases.  Some have
    eigenvalues of A within 1e-4 of the unit circle that no mode is
    trapped on; ``reachable_dim`` is the Krylov dimension on all."""
    rng = random.Random(2110)
    for trial in range(240):
        n = 3 + trial % 6
        thetas = [rng.choice((0.1, math.pi / 2 - 0.1)) for _ in range(n)]
        gammas = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
        spec = MultiportSpec(
            n=n,
            r=[1j * cmath.exp(1j * g) * math.sin(th) for th, g in zip(thetas, gammas)],
            t=[cmath.exp(1j * g) * math.cos(th) for th, g in zip(thetas, gammas)],
            mirror_factor=[cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)],
            edge_phases=[rng.uniform(0, 2 * math.pi) for _ in range(n)],
        )
        A, B, _C = dense_step_operators(compile_spec(spec))
        assert long_time_matrix(spec).reachable_dim == _krylov_dim(A, B), spec


def test_failed_float_solve_is_a_convergence_error(monkeypatch, capsys):
    """A LinAlgError from the least-squares solve or the eigenvalue count
    exits 3, like any other unsolved long-time matrix."""

    def fail(*_args, **_kwargs):
        raise np.linalg.LinAlgError("did not converge")

    for name in ("lstsq", "eigvals"):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, name, fail)
            with pytest.raises(ConvergenceError):
                long_time_matrix(MultiportSpec(n=4))
            assert cli.main(["unitary", "--n", "4", "--mode", "float"]) == 3
            assert capsys.readouterr().out == ""


def test_long_time_matrix_bounds_its_residual():
    with pytest.raises(ConvergenceError):
        long_time_matrix(MultiportSpec(n=5), tol=1e-300)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(SpecError):
            long_time_matrix(MultiportSpec(n=3), tol=tol)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_exit_record_above_the_amplitude_bound_is_refused(mode):
    """n_max x 4n amplitudes one encounter past ``_MAX_RECORD_AMPLITUDES``
    is refused before anything of that size is built."""
    n = 3
    n_max = device._MAX_RECORD_AMPLITUDES // (4 * n) + 1
    spec = MultiportSpec(n=n, max_steps=n_max, mode=mode)
    with pytest.raises(SpecError, match="at most"):
        exit_record(spec, 0, n_max)
    assert len(exit_record(spec, 0, 4).steps) == 4


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_exit_record_refuses_encounters_outside_the_record(mode):
    """Encounters count from 1: encounter 0 and encounter len + 1 are
    refused, not read as the last and an IndexError."""
    rec = exit_record(MultiportSpec(n=3, mode=mode), 0, 5)
    assert rec.cumulative(5) == rec.steps[-1].cumulative_probability
    assert rec.amplitude(1, 2) == rec.steps[0].amplitudes[2]
    for n in (0, -1, 6):
        with pytest.raises(SpecError, match="outside 1..5"):
            rec.cumulative(n)
        with pytest.raises(SpecError, match="outside 1..5"):
            rec.amplitude(n, 0)


def test_exact_steady_state_stops_at_the_first_small_residual():
    """Exact steady_state steps one encounter at a time and keeps only the
    current state, so a huge ``max_steps`` costs nothing unless the sum
    runs that long; a full history of 10^6 encounters would never finish."""
    for n, tol, steps_used in ((3, 1e-3, 22), (4, 1e-6, 4)):
        start = time.perf_counter()
        res = steady_state(MultiportSpec(n=n, mode="exact", max_steps=10 ** 6), tol=tol)
        assert time.perf_counter() - start < 1.0
        assert (res.steps_used, res.converged) == (steps_used, True)
    assert res.residual == 0.0
