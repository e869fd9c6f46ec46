"""Bell-state processing: heralded four-photon gates and their group law.

The gate geometry is the triangular one: the input pair enters ports
A/B, the control pair enters A/C, acceptance is conditioned on the two
photons that exit the shared port A, and the product state lives on B/C.
Generalized port pairs are accepted as long as they share exactly one
herald port.

Two herald conditions exist.  ``o`` keeps the component with opposite
polarizations at the herald port (a plain occupation projection).  ``s``
keeps the same-polarization component and applies the coherent
functional (<2H| + <2V|)/sqrt2, which preserves the relative phase of
the two branches; a decohering projector would scramble the output
labels.  Reported ``probability`` is the squared norm of the projected
component of the four-photon product built from unit-norm inputs; the
bosonic enhancement of the product is exposed separately as
``product_norm_sq`` and the normalized ``herald_fraction``.

The gate never builds the four-photon product or the Bell images.  Its
herald sector (two photons at the herald port, one at each output port)
is 12 amplitudes, each a signed sum of products of two permanents of at
most 4 x 4 submatrices of the port matrix, one for the H and one for the
V photons (Scheel, quant-ph/0406127; Aaronson and Arkhipov,
arXiv:1011.3245).  A table row where the gate never heralds (the
heralded state is zero) has no output label.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import exact
from .device import triport_unitary
from .errors import InvariantViolation, SpecError
from .matrices import Matrix
from .states import (
    H,
    V,
    MultiPhotonState,
    apply_port_unitary,
    bosonic_product,
    occupation_key,
    port_label,
)

FAMILIES = ("Psi", "Phi")
SIGNS = {"+": 1, "-": -1}


@dataclass(frozen=True)
class BellLabel:
    """One of the four two-photon entangled states on an ordered port pair."""

    family: str  # "Psi" or "Phi"
    sign: int  # +1 or -1
    pair: Tuple[int, int] = (0, 1)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(f"unknown Bell family {self.family!r}")
        if self.sign not in (1, -1):
            raise SpecError("Bell sign must be +1 or -1")
        if self.pair[0] == self.pair[1]:
            raise SpecError("Bell pair ports must be distinct")
        if self.pair[0] > self.pair[1]:
            object.__setattr__(self, "pair", (self.pair[1], self.pair[0]))

    @property
    def short(self) -> str:
        return f"{self.family}{'+' if self.sign > 0 else '-'}"

    def __str__(self):
        return f"{self.short}@{port_label(self.pair[0])}{port_label(self.pair[1])}"


def parse_bell_short(text: str, pair: Tuple[int, int] = (0, 1)) -> BellLabel:
    name = text.strip()
    family = name[:-1].capitalize()
    sign = SIGNS.get(name[-1])
    if family not in FAMILIES or sign is None:
        raise SpecError(f"not a Bell label: {text!r}")
    return BellLabel(family, sign, pair)


@dataclass(frozen=True)
class HeraldCondition:
    """Same- (s) or opposite- (o) polarization detection at the herald port."""

    kind: str
    herald_port: int

    def __post_init__(self):
        _check_condition(self.kind)


def _check_condition(kind: str) -> None:
    if kind not in ("s", "o"):
        raise SpecError(f"herald condition must be 's' or 'o', got {kind!r}")


def bell_state(label: BellLabel, n_ports: int = 3, mode: str = "exact") -> MultiPhotonState:
    """Normalized two-photon state for a Bell label."""
    p, q = label.pair
    if label.family == "Psi":
        first = {(p, H): 1, (q, V): 1}
        second = {(p, V): 1, (q, H): 1}
    else:
        first = {(p, H): 1, (q, H): 1}
        second = {(p, V): 1, (q, V): 1}
    F = exact.field(mode)
    return MultiPhotonState(
        {
            occupation_key(first): F.inv_sqrt2,
            occupation_key(second): F.inv_sqrt2 * (F.one if label.sign > 0 else -F.one),
        },
        n_ports,
        mode,
    )


@dataclass
class BellClassification:
    label: Optional[BellLabel]
    phase: Optional[complex]
    overlaps: Dict[str, float]  # |<bell|state>|^2 / norm^2 per label


def classify_bell(
    state: MultiPhotonState, pair: Tuple[int, int], tol: float = 1e-9
) -> BellClassification:
    """Match a two-photon state against the four Bell states on ``pair``.

    A label wins when its normalized overlap exceeds 1 - tol; the global
    phase of the match is returned and never affects the label.  The
    overlaps are read off the state's HV/VH (Psi) and HH/VV (Phi)
    amplitudes x, y on the pair: <Bell+-|state> = (x +- y)/sqrt2.
    """
    norm = float(state.norm_sq())
    overlaps: Dict[str, float] = {}
    if norm == 0.0:
        return BellClassification(None, None, overlaps)
    p, q = sorted(pair)
    if p < 0 or q >= state.n_ports:
        raise SpecError(f"pair {pair} outside ports 0..{state.n_ports - 1}")
    if p == q:
        raise SpecError("Bell pair ports must be distinct")
    F = exact.field(state.mode)
    hh, hv, vh, vv = (state.terms.get((((p, a), 1), ((q, b), 1)), F.zero) for a, b in _PAIR_POLS)
    best = None
    for family, x, y in (("Psi", hv, vh), ("Phi", hh, vv)):
        for sign, ov in ((1, x + y), (-1, x - y)):  # sqrt2 times the overlap
            frac = float(exact.abs_sq(ov)) / (2 * norm)
            overlaps[family + ("+" if sign > 0 else "-")] = frac
            if best is None or frac > best[0]:
                best = (frac, family, sign, ov)
    frac, family, sign, ov = best
    if frac < 1.0 - tol:
        return BellClassification(None, None, overlaps)
    phase = complex(ov * F.inv_sqrt2)
    return BellClassification(BellLabel(family, sign, pair), phase / abs(phase), overlaps)


def intermediate_expansion(
    label: BellLabel, unitary: Optional[Matrix] = None, mode: str = "exact"
) -> MultiPhotonState:
    """Two-photon image of a Bell state under the port matrix, one photon
    at a time; exposes the coefficients the gate pipeline multiplies."""
    u = unitary if unitary is not None else triport_unitary(mode)
    return apply_port_unitary(u, bell_state(label, u.dim, u.mode))


@dataclass
class GateOutcome:
    """Heralded result of one input/control pair."""

    output: Optional[BellLabel]
    global_phase: Optional[complex]
    probability: float
    probability_exact: Optional[exact.ExactComplex]
    functional_norm_sq: float
    herald_fraction: float
    product_norm_sq: float
    heralded_state: MultiPhotonState


#: Herald-port (H, V) photon counts of the herald sector's three branches.
_HERALD_BRANCHES = ((2, 0), (1, 1), (0, 2))
#: Polarizations of an output pair's four amplitudes, in the order they are kept.
_PAIR_POLS = ((H, H), (H, V), (V, H), (V, V))


class _Gate:
    """The gate on one port matrix and one input/control port geometry.

    The H and V photons of an input x control term pair scatter
    independently, so an amplitude of the herald sector is the sum over
    the term pairs of their amplitudes times perm(U[H out, H in]) perm(U[V
    out, V in]) / sqrt(prod n!), with n the photon counts per mode of the
    output and of the two input terms (Scheel, quant-ph/0406127).  Each
    permanent is expanded along its first column into minors one column
    smaller; every minor, permanent and product of two is built once per
    _Gate, so a ``process`` call or a table builds each once.
    """

    def __init__(self, unitary: Matrix, herald: int, out_ports: Tuple[int, int]):
        self.entries, self.n_ports, self.mode = unitary.rows, unitary.dim, unitary.mode
        self.F, self.out_ports, self.built = exact.field(unitary.mode), out_ports, {}
        # H photon count -> (slot, H rows, V rows) of the sector's 12 outputs:
        # each herald branch x _PAIR_POLS.  Rows are in the order herald, out
        # ports, so equal minors of two outputs have equal keys.
        self.outputs: Dict[int, list] = {}
        for slot, ((nh, nv), pols) in enumerate(itertools.product(_HERALD_BRANCHES, _PAIR_POLS)):
            rows = ([herald] * nh, [herald] * nv)
            for port, pol in zip(out_ports, pols):
                rows[pol].append(port)
            self.outputs.setdefault(len(rows[H]), []).append((slot, tuple(rows[H]), tuple(rows[V])))

    def perm(self, rows: tuple, cols: tuple):
        """The permanent of U[rows, cols], for tuples of ports of one length
        with a port once per photon, equal ports next to each other."""
        if len(cols) < 2:
            return self.entries[rows[0]][cols[0]] if cols else self.F.one
        value = self.built.get((rows, cols))
        if value is None:
            col, rest, terms = cols[0], cols[1:], []
            for k, row in enumerate(rows):
                u = self.entries[row][col]
                if not self.F.is_zero(u):
                    terms.append(u * self.perm(rows[:k] + rows[k + 1:], rest))
            value = self.built[rows, cols] = sum(terms[1:], terms[0]) if terms else self.F.zero
        return value

    def sector(self, state_in: MultiPhotonState, state_ctrl: MultiPhotonState) -> list:
        """The 12 herald-sector amplitudes of the product of the images of
        two two-photon states."""
        F, built = self.F, self.built
        amps = [None] * 12
        for occ_in, a_in in state_in.terms.items():
            for occ_ctrl, a_ctrl in state_ctrl.terms.items():
                coef = a_in * a_ctrl
                cols = ([], [])
                for (port, pol), k in occ_in + occ_ctrl:
                    cols[pol].extend((port,) * k)
                    if k > 1:
                        coef = coef / F.sqrt_int(math.factorial(k))
                cols_h, cols_v = tuple(sorted(cols[H])), tuple(sorted(cols[V]))
                for slot, rows_h, rows_v in self.outputs.get(len(cols_h), ()):
                    key = (rows_h, cols_h, rows_v, cols_v)
                    term = built.get(key)
                    if term is None:
                        term = built[key] = self.perm(rows_h, cols_h) * self.perm(rows_v, cols_v)
                    term = coef * term
                    amps[slot] = term if amps[slot] is None else amps[slot] + term
        # Two photons at the herald mode: the output norm 1/sqrt(2!).
        return [F.zero if a is None else a if 4 <= slot < 8 else a * F.inv_sqrt2
                for slot, a in enumerate(amps)]

    def herald(self, amps: list, product_norm_sq: float, kind: str) -> GateOutcome:
        """Apply one herald condition to the amplitudes of ``sector``."""
        F, (b, c) = self.F, self.out_ports
        if kind == "o":
            heralded = amps[4:8]
        else:
            heralded = [(x + y) * F.inv_sqrt2 for x, y in zip(amps[:4], amps[8:])]
        terms = {(((b, pb), 1), ((c, pc), 1)): a for (pb, pc), a in zip(_PAIR_POLS, heralded)}
        state = MultiPhotonState(terms, self.n_ports, self.mode)
        norm = state.norm_sq()
        branches = amps[:4] + amps[8:]  # the same-polarization branches
        prob_scalar = norm if kind == "o" else sum(
            (exact.abs_sq(a) for a in branches if not F.is_zero(a)), F.real_zero)
        probability = float(prob_scalar)
        cls = classify_bell(state, self.out_ports)  # no label when zero
        fraction = probability / product_norm_sq if product_norm_sq else 0.0
        exact_prob = prob_scalar if self.mode == "exact" else None
        return GateOutcome(cls.label, cls.phase, probability, exact_prob, float(norm), fraction,
                           product_norm_sq, state)


def _gate_unitary(unitary: Optional[Matrix], mode: Optional[str]) -> Matrix:
    """The gate's port matrix: the reference triport, or a supplied unitary.

    The product norm is read off the untransformed Bell states, which
    holds only for a unitary matrix, so a supplied one must be unitary:
    exactly in exact mode, to 1e-12 in float mode.
    """
    if unitary is None:
        mode = mode or "exact"
        exact.field(mode)  # an unknown mode is a SpecError
        return _reference_gate(mode)
    if mode is not None and mode != unitary.mode:
        raise SpecError("mode disagrees with the supplied unitary")
    if not unitary.is_unitary():
        raise SpecError("the gate matrix is not unitary")
    return unitary


_reference_gate = functools.cache(triport_unitary)  # built on first use; a Matrix is immutable


def _gate_ports(input_pair: Tuple[int, int], control_pair: Tuple[int, int]):
    """(herald port, output pair) of an input/control port-pair geometry."""
    shared = set(input_pair) & set(control_pair)
    if len(shared) != 1:
        raise SpecError("input and control pairs must share exactly one herald port")
    herald = shared.pop()
    out_ports = tuple(sorted((set(input_pair) | set(control_pair)) - {herald}))
    if len(out_ports) != 2:
        raise SpecError("gate needs two distinct output ports")
    return herald, out_ports


def process(
    input_label: BellLabel,
    control_label: BellLabel,
    condition: str,
    unitary: Optional[Matrix] = None,
    mode: Optional[str] = None,
) -> GateOutcome:
    """Run the four-photon gate for one input/control pair: its herald
    sector from products of permanents of the port matrix (``_Gate``),
    then the herald condition on the output pair's four amplitudes, which
    are classified as a Bell state."""
    unitary = _gate_unitary(unitary, mode)
    herald, out_ports = _gate_ports(input_label.pair, control_label.pair)
    kind = HeraldCondition(condition, herald).kind
    gate = _Gate(unitary, herald, out_ports)
    states = [bell_state(label, unitary.dim, unitary.mode)
              for label in (input_label, control_label)]
    return gate.herald(gate.sector(*states), float(bosonic_product(*states).norm_sq()), kind)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

_ORDER = ("Psi+", "Psi-", "Phi+", "Phi-")


@dataclass
class TruthTableRow:
    input: str
    control: str
    out_s: Optional[str]  # None where the gate never heralds
    out_o: Optional[str]
    prob_s: float
    prob_o: float


@dataclass
class TruthTable:
    rows: List[TruthTableRow]

    def row(self, input_short: str, control_short: str) -> TruthTableRow:
        for r in self.rows:
            if r.input == input_short and r.control == control_short:
                return r
        raise KeyError((input_short, control_short))


def _outcomes(
    in_shorts, ctrl_shorts, conditions, unitary, mode, input_pair, control_pair
) -> Dict[Tuple[str, str, str], GateOutcome]:
    """``process`` for every (input, control, condition), keyed that way.

    Each permanent of the port matrix is built once for the whole table,
    and each input x control herald sector once for every condition.
    """
    labels_in = [parse_bell_short(short, input_pair) for short in in_shorts]
    labels_ctrl = [parse_bell_short(short, control_pair) for short in ctrl_shorts]
    unitary = _gate_unitary(unitary, None if unitary is not None else mode)
    herald, out_ports = _gate_ports(labels_in[0].pair, labels_ctrl[0].pair)
    gate = _Gate(unitary, herald, out_ports)
    states_ctrl = [bell_state(label, unitary.dim, unitary.mode) for label in labels_ctrl]
    out = {}
    for in_short, label_in in zip(in_shorts, labels_in):
        state_in = bell_state(label_in, unitary.dim, unitary.mode)
        for ctrl_short, state_ctrl in zip(ctrl_shorts, states_ctrl):
            amps = gate.sector(state_in, state_ctrl)
            norm_sq = float(bosonic_product(state_in, state_ctrl).norm_sq())
            for cond in conditions:
                out[in_short, ctrl_short, cond] = gate.herald(amps, norm_sq, cond)
    return out


def _output_short(out: GateOutcome, in_short: str, ctrl_short: str) -> Optional[str]:
    """The row's output label, None where the gate never heralds (the
    heralded state is zero); a nonzero output must be a Bell state."""
    if out.output is None:
        if out.heralded_state.is_zero():
            return None
        raise InvariantViolation(
            f"gate output for ({in_short}, {ctrl_short}) is not a Bell state"
        )
    return out.output.short


def full_truth_table(
    unitary: Optional[Matrix] = None, mode: str = "exact",
    input_pair: Tuple[int, int] = (0, 1), control_pair: Tuple[int, int] = (0, 2),
) -> TruthTable:
    """All 16 input x control rows under both herald conditions."""
    outcomes = _outcomes(_ORDER, _ORDER, ("s", "o"), unitary, mode, input_pair, control_pair)
    rows = []
    for in_short in _ORDER:
        for ctrl_short in _ORDER:
            out_s = outcomes[in_short, ctrl_short, "s"]
            out_o = outcomes[in_short, ctrl_short, "o"]
            rows.append(
                TruthTableRow(
                    in_short,
                    ctrl_short,
                    _output_short(out_s, in_short, ctrl_short),
                    _output_short(out_o, in_short, ctrl_short),
                    out_s.probability,
                    out_o.probability,
                )
            )
    return TruthTable(rows)


@dataclass
class CnotRow:
    input_bit: int
    control_bit: int
    output_bit: Optional[int]  # None where the gate never heralds
    input: str
    control: str
    output: Optional[str]


def cnot_table(unitary: Optional[Matrix] = None, mode: str = "exact") -> List[CnotRow]:
    """The four-row bit table under the s condition.

    Inputs and controls are the polarization-interchange-odd pair
    (Psi +/-), outputs the even pair (Phi +/-); + encodes bit 0 and -
    encodes bit 1 for both families.  A row where the gate never heralds
    has no output.
    """
    psi = ("Psi+", "Psi-")
    outcomes = _outcomes(psi, psi, ("s",), unitary, mode, (0, 1), (0, 2))
    rows = []
    for in_short in psi:
        for ctrl_short in psi:
            out = _output_short(outcomes[in_short, ctrl_short, "s"], in_short, ctrl_short)
            if out is not None and not out.startswith("Phi"):
                raise InvariantViolation("CNOT rows must produce Phi-type outputs")
            rows.append(
                CnotRow(
                    0 if in_short.endswith("+") else 1,
                    0 if ctrl_short.endswith("+") else 1,
                    None if out is None else 0 if out.endswith("+") else 1,
                    in_short,
                    ctrl_short,
                    out,
                )
            )
    return rows


@dataclass
class GroupAxiomReport:
    closure: bool
    commutative: bool
    identity: Optional[str]
    self_inverse: bool
    klein_isomorphic: bool
    violations: Tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return not self.violations


@dataclass
class GroupTable:
    elements: Tuple[str, ...]
    products: Dict[Tuple[str, str], Optional[str]]  # None where the gate never heralds
    axioms: GroupAxiomReport

    def cell(self, a: str, b: str) -> Optional[str]:
        return self.products[(a, b)]

    def as_grid(self) -> List[List[Optional[str]]]:
        return [[self.products[(a, b)] for b in self.elements] for a in self.elements]


def group_table(
    condition: str, unitary: Optional[Matrix] = None, mode: str = "exact"
) -> GroupTable:
    """Family-level multiplication table induced by one herald condition,
    with a report on the axioms it satisfies."""
    _check_condition(condition)
    outcomes = _outcomes(_ORDER, _ORDER, (condition,), unitary, mode, (0, 1), (0, 2))
    products: Dict[Tuple[str, str], str] = {
        (a, b): _output_short(out, a, b) for (a, b, _cond), out in outcomes.items()
    }
    violations: List[str] = []

    closure = all(v in _ORDER for v in products.values())
    if not closure:
        violations.append("closure")

    commutative = all(
        products[(a, b)] == products[(b, a)] for a in _ORDER for b in _ORDER
    )
    if not commutative:
        violations.append("commutativity")

    identity = None
    for e in _ORDER:
        if all(products[(e, x)] == x and products[(x, e)] == x for x in _ORDER):
            if identity is not None:
                violations.append("unique-identity")
                break
            identity = e
    if identity is None:
        violations.append("identity")

    self_inverse = identity is not None and all(
        products[(x, x)] == identity for x in _ORDER
    )
    if identity is not None and not self_inverse:
        violations.append("self-inverse")

    klein = False
    if identity is not None and closure:
        rest = [x for x in _ORDER if x != identity]
        a, b = rest[0], rest[1]
        c = products[(a, b)]
        if c == rest[2]:
            bits = {identity: 0, a: 1, b: 2, c: 3}
            klein = all(
                bits[products[(x, y)]] == bits[x] ^ bits[y]
                for x in _ORDER
                for y in _ORDER
            )
    if not klein:
        violations.append("z2xz2-isomorphism")

    axioms = GroupAxiomReport(
        closure, commutative, identity, self_inverse, klein, tuple(violations)
    )
    return GroupTable(_ORDER, products, axioms)
