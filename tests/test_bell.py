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
from fractions import Fraction

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
from multiport.device import symmetric_unitary, triport_unitary
from multiport.errors import SpecError
from multiport.matrices import Matrix
from multiport.states import H, V, bosonic_product, occupation_key

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

    monkeypatch.setattr("multiport.bell.apply_port_unitary", no_table_work)
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
    calls = {"apply_port_unitary": 0, "bosonic_product": 0}

    def counted(name):
        original = getattr(bell, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(bell, name, wrapper)

    counted("apply_port_unitary")
    counted("bosonic_product")
    full_truth_table()
    assert calls == {"apply_port_unitary": 8, "bosonic_product": 16}
    cnot_table(mode="float")
    assert calls == {"apply_port_unitary": 12, "bosonic_product": 20}
