"""Bell-state gate engine against an independent four-photon oracle.

The oracle expands everything as complex polynomials over the six
single-photon modes: a state is a dict from a sorted mode-tuple monomial
to a coefficient, the port matrix substitutes each letter, products just
merge monomials, and number-basis amplitudes are recovered with the
sqrt(multiplicity!) dictionary at the very end.  No code is shared with
the package's occupation-basis machinery.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from multiport import bell, exact
from multiport.bell import (
    BellLabel,
    bell_state,
    classify_bell,
    cnot_table,
    full_truth_table,
    group_table,
    intermediate_expansion,
    parse_bell_short,
    process,
)
from multiport.device import grover_coin, symmetric_unitary, triport_unitary
from multiport.errors import InvariantViolation, SpecError
from multiport.matrices import Matrix
from multiport.states import (
    H,
    V,
    MultiPhotonState,
    apply_port_unitary,
    bosonic_product,
    occupation_key,
    project,
)

F = Fraction

# Printed reference table: (input, control) -> (out_s, out_o)
REFERENCE_TABLE = {
    ("Psi+", "Psi+"): ("Phi+", "Psi+"),
    ("Psi+", "Psi-"): ("Phi-", "Psi-"),
    ("Psi-", "Psi+"): ("Phi-", "Psi-"),
    ("Psi-", "Psi-"): ("Phi+", "Psi+"),
    ("Psi+", "Phi+"): ("Psi+", "Phi+"),
    ("Psi+", "Phi-"): ("Psi-", "Phi-"),
    ("Psi-", "Phi+"): ("Psi-", "Phi-"),
    ("Psi-", "Phi-"): ("Psi+", "Phi+"),
    ("Phi+", "Phi+"): ("Phi+", "Psi+"),
    ("Phi+", "Phi-"): ("Phi-", "Psi-"),
    ("Phi-", "Phi+"): ("Phi-", "Psi-"),
    ("Phi-", "Phi-"): ("Phi+", "Psi+"),
    ("Phi+", "Psi+"): ("Psi+", "Phi+"),
    ("Phi+", "Psi-"): ("Psi-", "Phi-"),
    ("Phi-", "Psi+"): ("Psi-", "Phi-"),
    ("Phi-", "Psi-"): ("Psi+", "Phi+"),
}


# ---------------------------------------------------------------------------
# polynomial oracle
# ---------------------------------------------------------------------------


def _mode(port, pol):
    return 2 * port + pol


def poly_bell(short, pair):
    p, q = pair
    inv = 1 / math.sqrt(2)
    if short.startswith("Psi"):
        first = (_mode(p, 0), _mode(q, 1))
        second = (_mode(p, 1), _mode(q, 0))
    else:
        first = (_mode(p, 0), _mode(q, 0))
        second = (_mode(p, 1), _mode(q, 1))
    sign = 1 if short.endswith("+") else -1
    return {
        tuple(sorted(first)): inv,
        tuple(sorted(second)): inv * sign,
    }


def poly_apply(u, poly):
    out = {}
    for mono, coef in poly.items():
        partial = {(): coef}
        for letter in mono:
            port, pol = letter // 2, letter % 2
            nxt = {}
            for m2, c2 in partial.items():
                for q in range(3):
                    w = complex(u.entry(q, port))
                    if w == 0:
                        continue
                    key = tuple(sorted(m2 + (_mode(q, pol),)))
                    nxt[key] = nxt.get(key, 0j) + c2 * w
            partial = nxt
        for m2, c2 in partial.items():
            out[m2] = out.get(m2, 0j) + c2
    return out


def poly_mul(p1, p2):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            key = tuple(sorted(m1 + m2))
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def poly_to_occupations(poly):
    """monomial coefficients -> number-basis amplitudes (times sqrt(n_m!))."""
    out = {}
    for mono, coef in poly.items():
        counts = {}
        for letter in mono:
            counts[letter] = counts.get(letter, 0) + 1
        factor = 1.0
        for c in counts.values():
            factor *= math.sqrt(math.factorial(c))
        key = occupation_key({(m // 2, m % 2): c for m, c in counts.items()})
        out[key] = out.get(key, 0j) + coef * factor
    return {k: v for k, v in out.items() if abs(v) > 1e-13}


def oracle_gate(in_short, ctrl_short, condition):
    u = triport_unitary("float")
    img_in = poly_apply(u, poly_bell(in_short, (0, 1)))
    img_ctrl = poly_apply(u, poly_bell(ctrl_short, (0, 2)))
    four = poly_to_occupations(poly_mul(img_in, img_ctrl))

    def port_counts(occ):
        counts = {}
        for (port, _pol), c in occ:
            counts[port] = counts.get(port, 0) + c
        return counts

    sector = {
        occ: amp
        for occ, amp in four.items()
        if port_counts(occ) == {0: 2, 1: 1, 2: 1}
    }
    if condition == "o":
        comp = {
            occ: amp
            for occ, amp in sector.items()
            if dict(occ).get((0, H), 0) == 1 and dict(occ).get((0, V), 0) == 1
        }
        prob = sum(abs(a) ** 2 for a in comp.values())
        bc = {
            tuple((m, c) for m, c in occ if m[0] != 0): amp for occ, amp in comp.items()
        }
    else:
        prob = 0.0
        bc = {}
        for which in (H, V):
            branch = {
                occ: amp
                for occ, amp in sector.items()
                if dict(occ).get((0, which), 0) == 2
            }
            prob += sum(abs(a) ** 2 for a in branch.values())
            for occ, amp in branch.items():
                key = tuple((m, c) for m, c in occ if m[0] != 0)
                bc[key] = bc.get(key, 0j) + amp / math.sqrt(2)
    return bc, prob


# ---------------------------------------------------------------------------
# definitions and classification
# ---------------------------------------------------------------------------


def test_bell_state_definitions():
    psi_plus = bell_state(BellLabel("Psi", 1, (0, 1)))
    assert psi_plus.amplitude({(0, H): 1, (1, V): 1}) == exact.INV_SQRT2
    assert psi_plus.amplitude({(0, V): 1, (1, H): 1}) == exact.INV_SQRT2
    phi_minus_bc = bell_state(BellLabel("Phi", -1, (1, 2)))
    assert phi_minus_bc.amplitude({(1, H): 1, (2, H): 1}) == exact.INV_SQRT2
    assert phi_minus_bc.amplitude({(1, V): 1, (2, V): 1}) == -exact.INV_SQRT2


def test_all_labels_normalized():
    for family in ("Psi", "Phi"):
        for sign in (1, -1):
            for pair in itertools.combinations(range(3), 2):
                assert bell_state(BellLabel(family, sign, pair)).norm_sq() == 1


def test_label_normalizes_pair_order():
    assert BellLabel("Psi", 1, (2, 0)).pair == (0, 2)
    with pytest.raises(SpecError):
        BellLabel("Psi", 1, (1, 1))


def test_classify_direct_and_signed():
    phi_plus = bell_state(BellLabel("Phi", 1, (1, 2)))
    cls = classify_bell(phi_plus, (1, 2))
    assert cls.label.short == "Phi+" and cls.phase == pytest.approx(1)
    flipped = bell_state(BellLabel("Psi", 1, (1, 2))).scaled(-exact.ONE)
    cls = classify_bell(flipped, (1, 2))
    assert cls.label.short == "Psi+" and cls.phase == pytest.approx(-1)


def test_classify_rejects_product_state():
    from multiport.states import MultiPhotonState

    product = MultiPhotonState(
        {occupation_key({(1, H): 1, (2, V): 1}): exact.ONE}, 3, "exact"
    )
    cls = classify_bell(product, (1, 2))
    assert cls.label is None
    assert cls.overlaps["Psi+"] == pytest.approx(0.5)
    assert cls.overlaps["Psi-"] == pytest.approx(0.5)


def test_classification_ignores_global_phase():
    state = bell_state(BellLabel("Phi", -1, (1, 2))).scaled(
        exact.eighth_root(3)
    )
    cls = classify_bell(state, (1, 2))
    assert cls.label.short == "Phi-"


# ---------------------------------------------------------------------------
# intermediate expansion
# ---------------------------------------------------------------------------


def test_intermediate_expansion_exact_coefficients():
    img = intermediate_expansion(BellLabel("Psi", 1, (0, 1)))
    same_port = exact.SQRT2 * exact.ExactComplex(F(2, 9))

    def bell_coeff(label):
        return bell_state(label).overlap(img)

    assert img.amplitude({(0, H): 1, (0, V): 1}) == same_port
    assert img.amplitude({(1, H): 1, (1, V): 1}) == same_port
    assert img.amplitude({(2, H): 1, (2, V): 1}) == -2 * same_port
    assert bell_coeff(BellLabel("Psi", 1, (0, 1))) == exact.ExactComplex(F(-5, 9))
    assert bell_coeff(BellLabel("Psi", 1, (0, 2))) == exact.ExactComplex(F(-2, 9))
    assert bell_coeff(BellLabel("Psi", 1, (1, 2))) == exact.ExactComplex(F(-2, 9))
    assert img.norm_sq() == 1


def test_intermediate_expansion_matches_oracle():
    u = triport_unitary("float")
    for short in ("Psi+", "Psi-", "Phi+", "Phi-"):
        img = intermediate_expansion(parse_bell_short(short, (0, 1)), u)
        expected = poly_to_occupations(poly_apply(u, poly_bell(short, (0, 1))))
        assert set(img.terms) == set(expected)
        for occ, amp in expected.items():
            assert complex(img.terms[occ]) == pytest.approx(amp, abs=1e-12)
        assert float(img.norm_sq()) == pytest.approx(1.0, abs=1e-12)


def test_phi_expansion_has_same_port_pairs():
    img = intermediate_expansion(BellLabel("Phi", 1, (0, 1)))
    assert img.amplitude({(0, H): 2}) == exact.ExactComplex(F(2, 9))
    assert img.amplitude({(2, V): 2}) == exact.ExactComplex(F(-4, 9))
    assert img.norm_sq() == 1


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def test_four_photon_structure_coefficients():
    u = triport_unitary("exact")
    img_in = intermediate_expansion(BellLabel("Psi", 1, (0, 1)), u)
    img_ctrl = intermediate_expansion(BellLabel("Psi", 1, (0, 2)), u)
    four = bosonic_product(img_in, img_ctrl)
    # the 2-at-A sector of the product: amplitudes solve the decomposition
    # x * |HV>_A Psi+_BC + y * (Psi+_AB Psi+_AC expansion)
    mixed = four.amplitude({(0, H): 1, (0, V): 1, (1, H): 1, (2, V): 1})
    mixed2 = four.amplitude({(0, H): 1, (0, V): 1, (1, V): 1, (2, H): 1})
    same = four.amplitude({(0, H): 2, (1, V): 1, (2, V): 1})
    same2 = four.amplitude({(0, V): 2, (1, H): 1, (2, H): 1})
    assert mixed == mixed2 == exact.ExactComplex(F(13, 162))
    assert same == same2 == exact.SQRT2 * exact.ExactComplex(F(29, 162))
    y = same / (exact.SQRT2 * exact.ExactComplex(F(1, 2)))
    assert y == exact.ExactComplex(F(29, 81))
    x = (mixed - y * exact.ExactComplex(F(1, 2))) * exact.SQRT2
    assert x == exact.SQRT2 * exact.ExactComplex(F(-8, 81))


def test_process_psi_psi_both_conditions():
    label_in = BellLabel("Psi", 1, (0, 1))
    label_ctrl = BellLabel("Psi", 1, (0, 2))
    out_o = process(label_in, label_ctrl, "o")
    assert out_o.output.short == "Psi+"
    assert out_o.probability_exact.as_fraction() == F(169, 13122)
    assert out_o.probability == pytest.approx(0.0128791, abs=1e-6)
    out_s = process(label_in, label_ctrl, "s")
    assert out_s.output.short == "Phi+"
    assert out_s.probability_exact.as_fraction() == F(841, 6561)
    assert out_s.functional_norm_sq == pytest.approx(841 / 13122, abs=1e-12)
    assert out_s.product_norm_sq == pytest.approx(1.5, abs=1e-12)


def test_process_matches_polynomial_oracle():
    for in_short in ("Psi+", "Psi-", "Phi+", "Phi-"):
        for ctrl_short in ("Psi+", "Psi-", "Phi+", "Phi-"):
            for condition in ("s", "o"):
                out = process(
                    parse_bell_short(in_short, (0, 1)),
                    parse_bell_short(ctrl_short, (0, 2)),
                    condition,
                    triport_unitary("float"),
                )
                bc, prob = oracle_gate(in_short, ctrl_short, condition)
                assert out.probability == pytest.approx(prob, abs=1e-12)
                assert set(out.heralded_state.terms) == set(bc)
                for occ, amp in bc.items():
                    assert complex(out.heralded_state.terms[occ]) == pytest.approx(
                        amp, abs=1e-12
                    )


def test_unitarity_transport_through_product():
    u = triport_unitary("exact")
    for in_short in ("Psi+", "Phi-"):
        for ctrl_short in ("Psi-", "Phi+"):
            raw_in = bell_state(parse_bell_short(in_short, (0, 1)))
            raw_ctrl = bell_state(parse_bell_short(ctrl_short, (0, 2)))
            imaged = bosonic_product(
                intermediate_expansion(parse_bell_short(in_short, (0, 1)), u),
                intermediate_expansion(parse_bell_short(ctrl_short, (0, 2)), u),
            )
            assert imaged.norm_sq() == bosonic_product(raw_in, raw_ctrl).norm_sq()


def test_herald_completeness():
    for in_short in ("Psi+", "Phi+"):
        for ctrl_short in ("Psi-", "Phi-"):
            out_s = process(
                parse_bell_short(in_short, (0, 1)),
                parse_bell_short(ctrl_short, (0, 2)),
                "s",
            )
            out_o = process(
                parse_bell_short(in_short, (0, 1)),
                parse_bell_short(ctrl_short, (0, 2)),
                "o",
            )
            rejected = 1.0 - out_s.herald_fraction - out_o.herald_fraction
            assert 0.0 <= out_s.herald_fraction <= 1.0
            assert rejected == pytest.approx(
                1.0 - (out_s.probability + out_o.probability) / out_s.product_norm_sq,
                abs=1e-12,
            )


def test_zero_probability_outcome():
    # a cyclic port permutation leaves only one photon at the herald port
    perm = Matrix(
        [
            [exact.ZERO, exact.ZERO, exact.ONE],
            [exact.ONE, exact.ZERO, exact.ZERO],
            [exact.ZERO, exact.ONE, exact.ZERO],
        ],
        "exact",
    )
    out = process(BellLabel("Psi", 1, (0, 1)), BellLabel("Psi", 1, (0, 2)), "o", perm)
    assert out.output is None
    assert out.probability == 0.0


def test_pairs_must_share_one_port():
    with pytest.raises(SpecError):
        process(BellLabel("Psi", 1, (0, 1)), BellLabel("Psi", 1, (0, 1)), "s")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_full_truth_table_matches_reference():
    table = full_truth_table()
    assert len(table.rows) == 16
    for row in table.rows:
        assert (row.out_s, row.out_o) == REFERENCE_TABLE[(row.input, row.control)]
        assert row.prob_s > 0 and row.prob_o > 0


def test_truth_table_symmetric_in_input_and_control():
    table = full_truth_table()
    for a, b in itertools.product(("Psi+", "Psi-", "Phi+", "Phi-"), repeat=2):
        r1, r2 = table.row(a, b), table.row(b, a)
        assert (r1.out_s, r1.out_o) == (r2.out_s, r2.out_o)


def test_family_swap_maps_s_column_to_o_column():
    table = full_truth_table()

    def swap(short):
        return ("Phi" if short.startswith("Psi") else "Psi") + short[-1]

    for a, b in itertools.product(("Psi+", "Psi-", "Phi+", "Phi-"), repeat=2):
        assert table.row(swap(a), swap(b)).out_o == swap(table.row(a, b).out_s)


def test_psi_plus_restriction_selects_any_output():
    table = full_truth_table()
    outputs = {
        table.row("Psi+", ctrl).out_s for ctrl in ("Psi+", "Psi-", "Phi+", "Phi-")
    }
    assert outputs == {"Phi+", "Phi-", "Psi+", "Psi-"}
    assert table.row("Psi+", "Psi+").out_s == "Phi+"
    assert table.row("Psi+", "Phi-").out_s == "Psi-"


def test_cnot_is_xor():
    rows = cnot_table()
    assert len(rows) == 4
    for row in rows:
        assert row.output_bit == row.input_bit ^ row.control_bit
    lookup = {(r.input, r.control): r.output for r in rows}
    assert lookup[("Psi+", "Psi+")] == "Phi+"
    assert lookup[("Psi+", "Psi-")] == "Phi-"
    assert lookup[("Psi-", "Psi-")] == "Phi+"


def test_group_axioms_s_condition():
    table = group_table("s")
    assert table.axioms.all_hold
    assert table.axioms.identity == "Phi+"
    assert table.axioms.closure and table.axioms.commutative
    assert table.axioms.self_inverse and table.axioms.klein_isomorphic
    for x in table.elements:
        assert table.cell(x, x) == "Phi+"
        assert table.cell("Phi+", x) == x


def test_group_o_condition_is_family_relabeling():
    s_table = group_table("s")
    o_table = group_table("o")
    assert o_table.axioms.all_hold
    assert o_table.axioms.identity == "Psi+"

    def swap(short):
        return ("Phi" if short.startswith("Psi") else "Psi") + short[-1]

    for a in s_table.elements:
        for b in s_table.elements:
            assert o_table.cell(swap(a), swap(b)) == swap(s_table.cell(a, b))


@pytest.mark.parametrize("condition", ["x", "", "S", "so", "os", None])
def test_group_table_rejects_unknown_condition(condition, monkeypatch):
    def no_table_work(*_args):
        raise AssertionError("table work before the condition was checked")

    monkeypatch.setattr("multiport.bell._Gate", no_table_work)
    with pytest.raises(SpecError):
        group_table(condition)


# ---------------------------------------------------------------------------
# tables against per-row process calls
# ---------------------------------------------------------------------------

ORDER = ("Psi+", "Psi-", "Phi+", "Phi-")


def reference_truth_table(unitary, mode, input_pair, control_pair):
    """The tables as one pair of ``process`` calls per row."""
    rows = {}
    for in_short in ORDER:
        for ctrl_short in ORDER:
            label_in = parse_bell_short(in_short, input_pair)
            label_ctrl = parse_bell_short(ctrl_short, control_pair)
            rows[in_short, ctrl_short] = tuple(
                process(label_in, label_ctrl, cond, unitary, None if unitary else mode)
                for cond in ("s", "o")
            )
    return rows


def reference_cnot_rows(unitary, mode):
    rows = []
    for in_short in ("Psi+", "Psi-"):
        for ctrl_short in ("Psi+", "Psi-"):
            out = process(
                parse_bell_short(in_short, (0, 1)),
                parse_bell_short(ctrl_short, (0, 2)),
                "s",
                unitary,
                None if unitary else mode,
            )
            rows.append((in_short, ctrl_short, out.output.short))
    return rows


def assert_same_outcome(got, want, exact_mode):
    assert got.output == want.output
    assert got.probability_exact == want.probability_exact
    assert set(got.heralded_state.terms) == set(want.heralded_state.terms)
    if exact_mode:
        assert got.probability == want.probability
        assert got.heralded_state.terms == want.heralded_state.terms
        assert got.functional_norm_sq == want.functional_norm_sq
        assert got.herald_fraction == want.herald_fraction
        assert got.product_norm_sq == want.product_norm_sq
        assert got.global_phase == want.global_phase
        return
    for field in ("probability", "functional_norm_sq", "herald_fraction", "product_norm_sq"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-12)
    for occ, amp in want.heralded_state.terms.items():
        assert got.heralded_state.terms[occ] == pytest.approx(amp, abs=1e-12)
    if want.global_phase is None:
        assert got.global_phase is None
    else:
        assert got.global_phase == pytest.approx(want.global_phase, abs=1e-12)


TABLE_CASES = [
    (None, "exact", (0, 1), (0, 2)),
    (None, "float", (0, 1), (0, 2)),
    (None, "exact", (0, 1), (1, 2)),
    (None, "float", (2, 1), (2, 0)),
    ("sym-exact", None, (0, 1), (0, 2)),
    ("sym-exact", None, (0, 1), (1, 2)),
    ("sym-float", None, (0, 1), (0, 2)),
    ("sym-float", None, (0, 2), (1, 2)),
]


def _case_unitary(name):
    if name == "sym-exact":
        return symmetric_unitary(3 * math.pi / 4, 0.0, "exact")
    if name == "sym-float":
        return symmetric_unitary(0.3, 1.1, "float")
    return None


@pytest.mark.parametrize("unitary_name,mode,input_pair,control_pair", TABLE_CASES)
def test_tables_match_per_row_process(unitary_name, mode, input_pair, control_pair):
    unitary = _case_unitary(unitary_name)
    exact_mode = (unitary.mode if unitary is not None else mode) == "exact"
    reference = reference_truth_table(unitary, mode, input_pair, control_pair)

    outcomes = bell._outcomes(
        ORDER, ORDER, ("s", "o"), unitary, mode, input_pair, control_pair
    )
    assert len(outcomes) == 32
    for (in_short, ctrl_short), (want_s, want_o) in reference.items():
        assert_same_outcome(outcomes[in_short, ctrl_short, "s"], want_s, exact_mode)
        assert_same_outcome(outcomes[in_short, ctrl_short, "o"], want_o, exact_mode)

    table = full_truth_table(unitary, mode, input_pair, control_pair)
    assert [(r.input, r.control) for r in table.rows] == list(reference)
    for row in table.rows:
        want_s, want_o = reference[row.input, row.control]
        assert (row.out_s, row.out_o) == (want_s.output.short, want_o.output.short)
        if exact_mode:
            assert row.prob_s == want_s.probability and row.prob_o == want_o.probability
        else:
            assert row.prob_s == pytest.approx(want_s.probability, abs=1e-12)
            assert row.prob_o == pytest.approx(want_o.probability, abs=1e-12)

    if input_pair == (0, 1) and control_pair == (0, 2):
        rows = cnot_table(unitary, mode)
        assert [(r.input, r.control, r.output) for r in rows] == reference_cnot_rows(
            unitary, mode
        )
        for condition in ("s", "o"):
            products = group_table(condition, unitary, mode).products
            column = 0 if condition == "s" else 1
            assert products == {
                key: outs[column].output.short for key, outs in reference.items()
            }


@pytest.mark.parametrize(
    "input_pair,control_pair",
    [((0, 1), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 2)), ((0, 1), (2, 3))],
)
def test_tables_reject_bad_pairs(input_pair, control_pair):
    with pytest.raises(SpecError):
        full_truth_table(input_pair=input_pair, control_pair=control_pair)


def test_tables_build_each_image_and_product_once(monkeypatch):
    """A table builds one ``_Gate``, in which each permanent and each
    product of two is built once and read by every row, and one herald
    sector per (input, control) pair, read by both conditions."""
    calls = {"_Gate": 0, "sector": 0}
    gate_class, sector = bell._Gate, bell._Gate.sector

    class BuiltOnce(dict):
        def __setitem__(self, key, value):
            assert key not in self, f"{key} built twice"
            super().__setitem__(key, value)

    def counted_gate(*args):
        calls["_Gate"] += 1
        gate = gate_class(*args)
        gate.built = BuiltOnce()
        return gate

    def counted_sector(self, *args):
        calls["sector"] += 1
        assert isinstance(self.built, BuiltOnce)
        return sector(self, *args)

    monkeypatch.setattr(bell, "_Gate", counted_gate)
    monkeypatch.setattr(gate_class, "sector", counted_sector)
    full_truth_table()
    assert calls == {"_Gate": 1, "sector": 16}
    cnot_table(mode="float")
    assert calls == {"_Gate": 2, "sector": 20}


# ---------------------------------------------------------------------------
# herald-sector gate against the full four-photon product
# ---------------------------------------------------------------------------


def reference_classify(state, pair, tol=1e-9):
    """Classification by overlaps with the four reference Bell states."""
    norm = float(state.norm_sq())
    overlaps = {}
    best = None
    for short in ORDER:
        label = parse_bell_short(short, pair)
        ov = bell_state(label, state.n_ports, state.mode).overlap(state)
        overlaps[short] = float(exact.abs_sq(ov)) / norm
        if best is None or overlaps[short] > best[0]:
            best = (overlaps[short], label, ov)
    frac, label, ov = best
    if frac < 1.0 - tol:
        return None, None, overlaps
    phase = complex(ov)
    return label, phase / abs(phase), overlaps


def reference_outcome(label_in, label_ctrl, condition, unitary):
    """The gate through the whole four-photon product: bosonic product of
    the two images, projection on the herald sector, herald condition,
    herald modes stripped, classification."""
    mode = unitary.mode
    herald = (set(label_in.pair) & set(label_ctrl.pair)).pop()
    b, c = sorted((set(label_in.pair) | set(label_ctrl.pair)) - {herald})
    four = bosonic_product(
        apply_port_unitary(unitary, bell_state(label_in, unitary.dim, mode)),
        apply_port_unitary(unitary, bell_state(label_ctrl, unitary.dim, mode)),
    )

    def port_counts(occ):
        counts = {}
        for (port, _pol), k in occ.items():
            counts[port] = counts.get(port, 0) + k
        return counts

    sector = project(four, lambda occ: port_counts(occ) == {herald: 2, b: 1, c: 1})

    def strip(state):
        out = {}
        for occ, amp in state.terms.items():
            rest = tuple((m, k) for m, k in occ if m[0] != herald)
            out[rest] = out[rest] + amp if rest in out else amp
        return MultiPhotonState(out, state.n_ports, mode)

    if condition == "o":
        comp = project(sector, lambda occ: occ.get((herald, H)) == 1 == occ.get((herald, V)))
        heralded = strip(comp)
    else:
        two_h = project(sector, lambda occ: occ.get((herald, H)) == 2)
        two_v = project(sector, lambda occ: occ.get((herald, V)) == 2)
        comp = two_h + two_v
        inv = exact.INV_SQRT2 if mode == "exact" else complex(2 ** -0.5)
        heralded = (strip(two_h) + strip(two_v)).scaled(inv)
    prob = comp.norm_sq()
    product_norm_sq = float(four.norm_sq())
    label = phase = None
    if not heralded.is_zero():
        label, phase, _ = reference_classify(heralded, (b, c))
    return bell.GateOutcome(
        label,
        phase,
        float(prob),
        prob if mode == "exact" else None,
        float(heralded.norm_sq()),
        float(prob) / product_norm_sq if product_norm_sq else 0.0,
        product_norm_sq,
        heralded,
    )


def _random_unitary(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return Matrix.from_numpy(q * (np.diag(r) / np.abs(np.diag(r))))


def _permutation(perm):
    return Matrix(
        [[exact.ONE if perm[j] == i else exact.ZERO for j in range(3)] for i in range(3)],
        "exact",
    )


SECTOR_UNITARIES = {
    "triport-exact": lambda: triport_unitary("exact"),
    "triport-float": lambda: triport_unitary("float"),
    "sym-exact": lambda: symmetric_unitary(math.pi / 4, math.pi, "exact"),
    "sym-float": lambda: symmetric_unitary(0.3, 1.1, "float"),
    "swap-bc": lambda: _permutation((0, 2, 1)),
    "cyclic": lambda: _permutation((1, 2, 0)),
    "random-11": lambda: _random_unitary(11),
    "random-12": lambda: _random_unitary(12),
}
SECTOR_GEOMETRIES = [((0, 1), (0, 2)), ((0, 1), (1, 2)), ((2, 1), (2, 0))]


@pytest.mark.parametrize("geometry", SECTOR_GEOMETRIES)
@pytest.mark.parametrize("unitary_name", sorted(SECTOR_UNITARIES))
def test_sector_gate_matches_full_product(unitary_name, geometry):
    unitary = SECTOR_UNITARIES[unitary_name]()
    input_pair, control_pair = geometry
    exact_mode = unitary.mode == "exact"
    outcomes = bell._outcomes(ORDER, ORDER, ("s", "o"), unitary, None, input_pair, control_pair)
    assert len(outcomes) == 32
    for (in_short, ctrl_short, condition), got in outcomes.items():
        label_in = parse_bell_short(in_short, input_pair)
        label_ctrl = parse_bell_short(ctrl_short, control_pair)
        want = reference_outcome(label_in, label_ctrl, condition, unitary)
        assert_same_outcome(got, want, exact_mode)
        if want.heralded_state.is_zero():
            continue
        out_pair = tuple(sorted(set(input_pair) ^ set(control_pair)))
        cls = classify_bell(want.heralded_state, out_pair)
        label, phase, overlaps = reference_classify(want.heralded_state, out_pair)
        assert cls.label == label and list(cls.overlaps) == list(overlaps)
        if exact_mode:
            assert (cls.phase, cls.overlaps) == (phase, overlaps)
        else:
            assert all(cls.overlaps[k] == pytest.approx(v, abs=1e-12) for k, v in overlaps.items())
            assert cls.phase is None if phase is None else cls.phase == pytest.approx(phase, abs=1e-12)


def _random_two_photon_state(rng, mode):
    """A seeded two-photon state on three ports with no polarization
    symmetry: every occupation, random amplitudes."""
    modes = [(port, pol) for port in range(3) for pol in (H, V)]
    terms = {}
    for i, m1 in enumerate(modes):
        for m2 in modes[i:]:
            counts = {m1: 1}
            counts[m2] = counts.get(m2, 0) + 1
            re, im = rng.randint(-9, 9), rng.randint(-9, 9)
            terms[occupation_key(counts)] = (
                exact.ExactComplex(F(re, 7), F(im, 5)) if mode == "exact" else complex(re / 7, im / 5)
            )
    return MultiPhotonState(terms, 3, mode)


SECTOR_STATE_UNITARIES = {
    "exact": [
        lambda: triport_unitary("exact"),
        lambda: symmetric_unitary(math.pi / 4, math.pi, "exact"),
        lambda: _permutation((1, 2, 0)),
    ],
    "float": [
        lambda: triport_unitary("float"),
        lambda: symmetric_unitary(0.3, 1.1, "float"),
        lambda: _random_unitary(13),
    ],
}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_sector_product_and_herald_match_full_product(mode):
    """The herald sector and both herald conditions of ``_Gate`` on states
    without the H <-> V symmetry of Bell states (doubly occupied modes
    included), against the whole product of their images.  Equal in exact
    mode; in float mode, where the two add their terms in different
    orders, within 4 eps times the product's norm (the largest error over
    1800 seeded trials was 1.2 eps times it)."""
    rng = random.Random(61 if mode == "exact" else 62)
    zero = exact.field(mode).zero

    for trial in range(6):
        s1, s2 = _random_two_photon_state(rng, mode), _random_two_photon_state(rng, mode)
        herald = rng.randrange(3)
        out_ports = tuple(p for p in range(3) if p != herald)
        unitary = SECTOR_STATE_UNITARIES[mode][trial % 3]()
        four = bosonic_product(apply_port_unitary(unitary, s1), apply_port_unitary(unitary, s2))
        tol = 0 if mode == "exact" else 4 * sys.float_info.epsilon * math.sqrt(four.norm_sq())

        def same(got, want):
            return got == want if mode == "exact" else abs(got - want) <= tol

        gate = bell._Gate(unitary, herald, out_ports)
        amps = gate.sector(s1, s2)
        assert len(amps) == 12
        branches = {}
        for index, (h, v) in enumerate(((2, 0), (1, 1), (0, 2))):
            want = {}
            for occ, amp in four.terms.items():
                counts = dict(occ)
                ports = {}
                for (port, _pol), k in occ:
                    ports[port] = ports.get(port, 0) + k
                if ports == {herald: 2, out_ports[0]: 1, out_ports[1]: 1} and (
                    counts.get((herald, H), 0), counts.get((herald, V), 0)
                ) == (h, v):
                    want[tuple((m, k) for m, k in occ if m[0] != herald)] = amp
            pols = ((H, H), (H, V), (V, H), (V, V))
            got = {
                occupation_key({(out_ports[0], pb): 1, (out_ports[1], pc): 1}): a
                for (pb, pc), a in zip(pols, amps[4 * index:4 * index + 4])
            }
            assert set(want) <= set(got)
            for key, a in got.items():
                assert same(a, want.get(key, zero))
            branches[h, v] = want
        for kind, keys in (("o", [(1, 1)]), ("s", [(2, 0), (0, 2)])):
            out = gate.herald(amps, 1.0, kind)
            prob = sum(
                (exact.abs_sq(a) for key in keys for a in branches[key].values()),
                exact.field(mode).real_zero,
            )
            assert out.probability == pytest.approx(float(prob), abs=1e-12)
            assert out.probability_exact == (prob if mode == "exact" else None)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_classify_matches_reference_overlaps(mode):
    """classify_bell against overlaps with the four reference states, on
    seeded states that are and are not Bell states, on each port pair."""
    rng = random.Random(71)
    for _ in range(12):
        pair = tuple(sorted(rng.sample(range(3), 2)))
        state = _random_two_photon_state(rng, mode)
        if rng.random() < 0.5:
            label = parse_bell_short(rng.choice(ORDER), pair)
            ref = bell_state(label, 3, mode)
            state = ref.scaled(next(iter(state.terms.values())))
        cls = classify_bell(state, pair)
        label, phase, overlaps = reference_classify(state, pair)
        assert cls.label == label and list(cls.overlaps) == list(overlaps)
        if mode == "exact":
            assert (cls.phase, cls.overlaps) == (phase, overlaps)
        else:
            assert all(cls.overlaps[k] == pytest.approx(v, abs=1e-12) for k, v in overlaps.items())
            assert cls.phase is None if phase is None else cls.phase == pytest.approx(phase, abs=1e-12)


def _off_unitary(mode):
    """A gate matrix that misses unitarity by a little: exactly in exact
    mode, by 1e-9 in float mode."""
    u = triport_unitary(mode)
    rows = [list(r) for r in u.rows]
    rows[0][0] = rows[0][0] + (exact.ExactComplex(F(1, 10 ** 9)) if mode == "exact" else 1e-9)
    return Matrix(rows, mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_gate_rejects_non_unitary_matrix(mode):
    u = _off_unitary(mode)
    with pytest.raises(SpecError):
        process(BellLabel("Psi", 1, (0, 1)), BellLabel("Psi", 1, (0, 2)), "s", u)
    with pytest.raises(SpecError):
        full_truth_table(u, mode)
    with pytest.raises(SpecError):
        cnot_table(u, mode)
    with pytest.raises(SpecError):
        group_table("o", u, mode)
    if mode == "float":
        # within the 1e-12 float tolerance the matrix is accepted
        rows = [list(r) for r in triport_unitary("float").rows]
        rows[0][0] += 1e-14
        assert cnot_table(Matrix(rows, "float"), "float")


# Where the 4-port Grover coin as gate matrix never heralds: the heralded
# state is zero.  (Psi-, Phi-, s) and (Phi-, Psi-, s) still have a nonzero
# same-polarization probability, which the coherent functional cancels.
GROVER4_CANCELLED = {("Psi-", "Phi-", "s"), ("Phi-", "Psi-", "s")}
GROVER4_SILENT = GROVER4_CANCELLED | {
    ("Psi+", "Psi-", "s"), ("Psi-", "Psi+", "s"), ("Psi-", "Phi+", "o"),
    ("Psi-", "Phi-", "o"), ("Phi+", "Psi-", "o"), ("Phi-", "Psi-", "o"),
}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_tables_leave_rows_that_never_herald_unlabelled(mode):
    """A row whose heralded state is zero has no output label in every
    table; every other row of grover_coin(4) is a Bell state."""
    u = grover_coin(4, mode)
    outcomes = bell._outcomes(ORDER, ORDER, ("s", "o"), u, None, (0, 1), (0, 2))
    silent = {key for key, out in outcomes.items() if out.heralded_state.is_zero()}
    assert silent == GROVER4_SILENT
    for key, out in outcomes.items():
        assert (out.output is None) == (key in silent)
        assert (out.probability == 0.0) == (key in silent - GROVER4_CANCELLED)
        if key in GROVER4_CANCELLED and mode == "exact":
            assert out.probability_exact == F(1, 32)
    table = full_truth_table(u, mode)
    for row in table.rows:
        for cond, out in (("s", row.out_s), ("o", row.out_o)):
            key = (row.input, row.control, cond)
            assert out == (None if key in silent else outcomes[key].output.short)
    for cond in ("s", "o"):
        group = group_table(cond, u, mode)
        assert {key for key, out in group.products.items() if out is None} == {
            (a, b) for a, b, c in silent if c == cond
        }
        assert "closure" in group.axioms.violations
    rows = cnot_table(u, mode)
    assert [(r.input, r.control, r.output, r.output_bit) for r in rows] == [
        ("Psi+", "Psi+", "Phi+", 0), ("Psi+", "Psi-", None, None),
        ("Psi-", "Psi+", None, None), ("Psi-", "Psi-", "Phi+", 0),
    ]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_tables_refuse_nonzero_outputs_that_are_no_bell_state(mode, monkeypatch):
    """A heralded output that is nonzero and no Bell state stays an
    invariant violation in every table.  A port matrix acts alike on both
    polarizations, so every nonzero output of Bell inputs is a Bell state:
    here the classification is made to match none."""
    def no_label(*_args, **_kwargs):
        return bell.BellClassification(None, None, {})

    monkeypatch.setattr(bell, "classify_bell", no_label)
    for u in (None, grover_coin(4, mode)):
        for build in (full_truth_table, lambda u, mode: group_table("s", u, mode),
                      lambda u, mode: group_table("o", u, mode), cnot_table):
            with pytest.raises(InvariantViolation, match="is not a Bell state"):
                build(u, mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_gate_pairs_outside_the_matrix_are_spec_errors(mode):
    """A pair that names a port the matrix lacks is an invalid spec, not an
    IndexError, in ``process`` and in the tables; on a matrix that has the
    port, the same geometry runs."""
    with pytest.raises(SpecError):
        process(BellLabel("Psi", 1, (0, 3)), BellLabel("Psi", 1, (0, 2)), "s", None, mode)
    with pytest.raises(SpecError):
        full_truth_table(None, mode, (0, 1), (0, 3))
    with pytest.raises(SpecError):
        process(BellLabel("Psi", 1, (0, 1)), BellLabel("Phi", 1, (4, 1)), "o", grover_coin(4, mode))
    u = grover_coin(4, mode)
    out = process(BellLabel("Psi", 1, (0, 3)), BellLabel("Psi", 1, (0, 2)), "s", u)
    assert out.output is not None or out.heralded_state.is_zero()
