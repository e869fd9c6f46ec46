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
"""

from __future__ import annotations

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
    merge_occupations,
    occupation_key,
    occupation_port_counts,
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
    F = exact.field(state.mode)

    def amp(pol_p, pol_q):
        return state.terms.get(occupation_key({(p, pol_p): 1, (q, pol_q): 1}), F.zero)

    amplitudes = {"Psi": (amp(H, V), amp(V, H)), "Phi": (amp(H, H), amp(V, V))}
    best = None
    for family in FAMILIES:
        x, y = amplitudes[family]
        for sign in (1, -1):
            label = BellLabel(family, sign, pair)
            ov = x + y if sign > 0 else x - y  # sqrt2 times the overlap
            frac = float(exact.abs_sq(ov)) / (2 * norm)
            overlaps[label.short] = frac
            if best is None or frac > best[0]:
                best = (frac, label, ov)
    frac, label, ov = best
    if frac < 1.0 - tol:
        return BellClassification(None, None, overlaps)
    phase = complex(ov * F.inv_sqrt2)
    phase = phase / abs(phase)
    return BellClassification(label, phase, overlaps)


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


def _counts_key(counts: Dict[int, int]) -> tuple:
    return tuple(sorted((port, k) for port, k in counts.items() if k))


def _sector_product(
    img_in: MultiPhotonState, img_ctrl: MultiPhotonState, herald: int, out_ports: Tuple[int, int]
) -> Dict[Tuple[int, int], MultiPhotonState]:
    """The herald sector of the bosonic product of two Bell images.

    The sector is two photons at ``herald`` and one on each output port.
    Only the image-term pairs whose per-port counts add up to it are
    multiplied, and each output term receives its contributions in the
    order ``bosonic_product`` adds them.  The result maps each herald
    (H, V) count of ``_HERALD_BRANCHES`` to its branch, with the herald
    modes stripped: a state on the output ports.
    """
    mode = img_in.mode
    target = {herald: 2, out_ports[0]: 1, out_ports[1]: 1}
    ctrl_by_counts: Dict[tuple, list] = {}
    for occ, amp in img_ctrl.terms.items():
        ctrl_by_counts.setdefault(_counts_key(occupation_port_counts(occ)), []).append((occ, amp))
    branches: Dict[Tuple[int, int], Dict] = {key: {} for key in _HERALD_BRANCHES}
    for occ_in, a_in in img_in.terms.items():
        need = dict(target)
        for port, k in occupation_port_counts(occ_in).items():
            need[port] = need.get(port, 0) - k  # a negative count has no partner
        for occ_ctrl, a_ctrl in ctrl_by_counts.get(_counts_key(need), ()):
            occ, amp = merge_occupations(occ_in, occ_ctrl, a_in * a_ctrl, mode)
            counts = dict(occ)
            branch = branches[counts.get((herald, H), 0), counts.get((herald, V), 0)]
            rest = tuple((m, k) for m, k in occ if m[0] != herald)
            cur = branch.get(rest)
            branch[rest] = amp if cur is None else cur + amp
    return {
        key: MultiPhotonState(terms, img_in.n_ports, mode) for key, terms in branches.items()
    }


def _gate_unitary(unitary: Optional[Matrix], mode: Optional[str]) -> Matrix:
    """The gate's port matrix: the reference triport, or a supplied unitary.

    The product norm is read off the untransformed Bell states, which
    holds only for a unitary matrix, so a supplied one must be unitary:
    exactly in exact mode, to 1e-12 in float mode.
    """
    if unitary is None:
        return triport_unitary(mode or "exact")
    if mode is not None and mode != unitary.mode:
        raise SpecError("mode disagrees with the supplied unitary")
    if not unitary.is_unitary():
        raise SpecError("the gate matrix is not unitary")
    return unitary


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


def _herald(
    branches: Dict[Tuple[int, int], MultiPhotonState],
    product_norm_sq: float,
    kind: str,
    out_ports: Tuple[int, int],
) -> GateOutcome:
    """Apply one herald condition to the herald branches of a product."""
    mode = branches[1, 1].mode
    if kind == "o":
        heralded = branches[1, 1]
        prob_scalar = heralded.norm_sq()
    else:
        two_h, two_v = branches[2, 0], branches[0, 2]
        prob_scalar = two_h.norm_sq() + two_v.norm_sq()
        heralded = (two_h + two_v).scaled(exact.field(mode).inv_sqrt2)
    probability = float(prob_scalar)
    label = phase = None
    if not heralded.is_zero():
        cls = classify_bell(heralded, out_ports)
        label, phase = cls.label, cls.phase
    return GateOutcome(
        label,
        phase,
        probability,
        prob_scalar if mode == "exact" else None,
        float(heralded.norm_sq()),
        probability / product_norm_sq if product_norm_sq else 0.0,
        product_norm_sq,
        heralded,
    )


def _bell_and_image(unitary: Matrix, label: BellLabel):
    state = bell_state(label, unitary.dim, unitary.mode)
    return state, apply_port_unitary(unitary, state)


def _heralded_product(bell_in, bell_ctrl, herald, out_ports):
    """(herald branches, squared norm) of the four-photon product.

    ``bell_in`` and ``bell_ctrl`` are (Bell state, image) pairs.  The
    Fock-space map of a unitary preserves norms, so the product of the
    images has the norm of the product of the Bell states: four terms.
    """
    (state_in, img_in), (state_ctrl, img_ctrl) = bell_in, bell_ctrl
    product_norm_sq = float(bosonic_product(state_in, state_ctrl).norm_sq())
    return _sector_product(img_in, img_ctrl, herald, out_ports), product_norm_sq


def process(
    input_label: BellLabel,
    control_label: BellLabel,
    condition: str,
    unitary: Optional[Matrix] = None,
    mode: Optional[str] = None,
) -> GateOutcome:
    """Run the four-photon gate for one input/control pair.

    Pipeline: apply the port matrix to each Bell state photon-wise, take
    the sector of their bosonic product with two photons at the herald
    port and one at each output port, then apply the herald condition and
    classify what remains on the output pair.
    """
    unitary = _gate_unitary(unitary, mode)
    herald, out_ports = _gate_ports(input_label.pair, control_label.pair)
    cond = HeraldCondition(condition, herald)
    branches, product_norm_sq = _heralded_product(
        _bell_and_image(unitary, input_label),
        _bell_and_image(unitary, control_label),
        herald,
        out_ports,
    )
    return _herald(branches, product_norm_sq, cond.kind, out_ports)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

_ORDER = ("Psi+", "Psi-", "Phi+", "Phi-")


@dataclass
class TruthTableRow:
    input: str
    control: str
    out_s: str
    out_o: str
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

    Each Bell image, and each input x control herald sector with its
    norm, is built once and read by every condition.
    """
    labels_in = [parse_bell_short(short, input_pair) for short in in_shorts]
    labels_ctrl = [parse_bell_short(short, control_pair) for short in ctrl_shorts]
    unitary = _gate_unitary(unitary, None if unitary is not None else mode)
    herald, out_ports = _gate_ports(labels_in[0].pair, labels_ctrl[0].pair)
    bells_ctrl = [_bell_and_image(unitary, label) for label in labels_ctrl]
    out = {}
    for in_short, label_in in zip(in_shorts, labels_in):
        bell_in = _bell_and_image(unitary, label_in)
        for ctrl_short, bell_ctrl in zip(ctrl_shorts, bells_ctrl):
            branches, product_norm_sq = _heralded_product(bell_in, bell_ctrl, herald, out_ports)
            for cond in conditions:
                out[in_short, ctrl_short, cond] = _herald(
                    branches, product_norm_sq, cond, out_ports
                )
    return out


def _output_short(out: GateOutcome, in_short: str, ctrl_short: str) -> str:
    if out.output is None:
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
    output_bit: int
    input: str
    control: str
    output: str


def cnot_table(unitary: Optional[Matrix] = None, mode: str = "exact") -> List[CnotRow]:
    """The four-row bit table under the s condition.

    Inputs and controls are the polarization-interchange-odd pair
    (Psi +/-), outputs the even pair (Phi +/-); + encodes bit 0 and -
    encodes bit 1 for both families.
    """
    psi = ("Psi+", "Psi-")
    outcomes = _outcomes(psi, psi, ("s",), unitary, mode, (0, 1), (0, 2))
    rows = []
    for in_short in psi:
        for ctrl_short in psi:
            out = outcomes[in_short, ctrl_short, "s"]
            if out.output is None or out.output.family != "Phi":
                raise InvariantViolation("CNOT rows must produce Phi-type outputs")
            rows.append(
                CnotRow(
                    0 if in_short.endswith("+") else 1,
                    0 if ctrl_short.endswith("+") else 1,
                    0 if out.output.sign > 0 else 1,
                    in_short,
                    ctrl_short,
                    out.output.short,
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
    products: Dict[Tuple[str, str], str]
    axioms: GroupAxiomReport

    def cell(self, a: str, b: str) -> str:
        return self.products[(a, b)]

    def as_grid(self) -> List[List[str]]:
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
