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
    occupation_key,
    port_label,
    project,
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

    def with_pair(self, pair: Tuple[int, int]) -> "BellLabel":
        return BellLabel(self.family, self.sign, pair)

    def family_swapped(self) -> "BellLabel":
        other = "Phi" if self.family == "Psi" else "Psi"
        return BellLabel(other, self.sign, self.pair)

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
    inv = exact.INV_SQRT2 if mode == "exact" else complex(2 ** -0.5)
    sgn = exact.scalar_one(mode) if label.sign > 0 else -exact.scalar_one(mode)
    return MultiPhotonState(
        {
            occupation_key(first): inv,
            occupation_key(second): inv * sgn,
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
    phase of the match is returned and never affects the label.
    """
    norm = float(state.norm_sq())
    overlaps: Dict[str, float] = {}
    if norm == 0.0:
        return BellClassification(None, None, overlaps)
    best = None
    for family in FAMILIES:
        for sign in (1, -1):
            label = BellLabel(family, sign, pair)
            ref = bell_state(label, state.n_ports, state.mode)
            ov = ref.overlap(state)
            frac = float(exact.abs_sq(ov)) / norm
            overlaps[label.short] = frac
            if best is None or frac > best[0]:
                best = (frac, label, ov)
    frac, label, ov = best
    if frac < 1.0 - tol:
        return BellClassification(None, None, overlaps)
    phase = complex(ov)
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


def _herald_sector(four: MultiPhotonState, herald: int, out_pair: Tuple[int, int]):
    b, c = out_pair

    def in_sector(occ: Dict) -> bool:
        counts: Dict[int, int] = {}
        for (port, _pol), k in occ.items():
            counts[port] = counts.get(port, 0) + k
        return counts.get(herald, 0) == 2 and counts.get(b, 0) == 1 and counts.get(c, 0) == 1

    return project(four, in_sector)


def _strip_herald(state: MultiPhotonState, herald: int) -> MultiPhotonState:
    stripped = {}
    for occ, amp in state.terms.items():
        rest = tuple((m, k) for m, k in occ if m[0] != herald)
        cur = stripped.get(rest)
        stripped[rest] = amp if cur is None else cur + amp
    return MultiPhotonState(stripped, state.n_ports, state.mode)


def _gate_unitary(unitary: Optional[Matrix], mode: Optional[str]) -> Matrix:
    if unitary is None:
        return triport_unitary(mode or "exact")
    if mode is not None and mode != unitary.mode:
        raise SpecError("mode disagrees with the supplied unitary")
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
    sector: MultiPhotonState,
    product_norm_sq: float,
    kind: str,
    herald: int,
    out_ports: Tuple[int, int],
) -> GateOutcome:
    """Apply one herald condition to the herald sector of a product."""
    mode = sector.mode
    if kind == "o":
        comp = project(sector, lambda occ: occ.get((herald, H), 0) == 1 and occ.get((herald, V), 0) == 1)
        heralded = _strip_herald(comp, herald)
        functional = heralded
    else:
        two_h = project(sector, lambda occ: occ.get((herald, H), 0) == 2)
        two_v = project(sector, lambda occ: occ.get((herald, V), 0) == 2)
        comp = two_h + two_v
        inv = exact.INV_SQRT2 if mode == "exact" else complex(2 ** -0.5)
        functional = (_strip_herald(two_h, herald) + _strip_herald(two_v, herald)).scaled(inv)
        heralded = functional

    prob_scalar = comp.norm_sq()
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
        float(functional.norm_sq()),
        probability / product_norm_sq if product_norm_sq else 0.0,
        product_norm_sq,
        heralded,
    )


def _heralded_product(img_in, img_ctrl, herald, out_ports):
    """(herald sector, squared norm) of the four-photon product."""
    four = bosonic_product(img_in, img_ctrl)
    return _herald_sector(four, herald, out_ports), float(four.norm_sq())


def process(
    input_label: BellLabel,
    control_label: BellLabel,
    condition: str,
    unitary: Optional[Matrix] = None,
    mode: Optional[str] = None,
) -> GateOutcome:
    """Run the four-photon gate for one input/control pair.

    Pipeline: apply the port matrix to each Bell state photon-wise, take
    the bosonic product, keep the sector with two photons at the herald
    port and one at each output port, then apply the herald condition and
    classify what remains on the output pair.
    """
    unitary = _gate_unitary(unitary, mode)
    herald, out_ports = _gate_ports(input_label.pair, control_label.pair)
    cond = HeraldCondition(condition, herald)
    sector, product_norm_sq = _heralded_product(
        apply_port_unitary(unitary, bell_state(input_label, unitary.dim, unitary.mode)),
        apply_port_unitary(unitary, bell_state(control_label, unitary.dim, unitary.mode)),
        herald,
        out_ports,
    )
    return _herald(sector, product_norm_sq, cond.kind, herald, out_ports)


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

    Each Bell image, and each input x control product with its norm, is
    built once and read by every condition.
    """
    labels_in = [parse_bell_short(short, input_pair) for short in in_shorts]
    labels_ctrl = [parse_bell_short(short, control_pair) for short in ctrl_shorts]
    unitary = _gate_unitary(unitary, None if unitary is not None else mode)
    herald, out_ports = _gate_ports(labels_in[0].pair, labels_ctrl[0].pair)

    def image(label):
        return apply_port_unitary(unitary, bell_state(label, unitary.dim, unitary.mode))

    imgs_ctrl = [image(label) for label in labels_ctrl]
    out = {}
    for in_short, label_in in zip(in_shorts, labels_in):
        img_in = image(label_in)
        for ctrl_short, img_ctrl in zip(ctrl_shorts, imgs_ctrl):
            sector, product_norm_sq = _heralded_product(img_in, img_ctrl, herald, out_ports)
            for cond in conditions:
                out[in_short, ctrl_short, cond] = _herald(
                    sector, product_norm_sq, cond, herald, out_ports
                )
    return out


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
            if out_s.output is None or out_o.output is None:
                raise InvariantViolation(
                    f"gate output for ({in_short}, {ctrl_short}) is not a Bell state"
                )
            rows.append(
                TruthTableRow(
                    in_short,
                    ctrl_short,
                    out_s.output.short,
                    out_o.output.short,
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
    table = full_truth_table(unitary, mode)
    products: Dict[Tuple[str, str], str] = {}
    for row in table.rows:
        products[(row.input, row.control)] = row.out_s if condition == "s" else row.out_o
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
