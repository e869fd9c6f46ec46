"""Bosonic product, port-matrix action and projection.

The independent oracle here works in first quantization: a two-photon
state is a symmetric tensor over the 2n single-photon modes, the port
matrix acts as U (x) U on the tensor, and occupation amplitudes are read
off with the |1,1> <-> sqrt2-symmetrized and |2> <-> diagonal mapping.
It shares no code with the number-basis machinery it checks.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from multiport import exact
from multiport.errors import CapacityError, DimensionMismatchError
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
from multiport.device import triport_unitary


def ket(counts, n_ports=3, mode="exact", amp=None):
    amp = amp if amp is not None else exact.field(mode).one
    return MultiPhotonState({occupation_key(counts): amp}, n_ports, mode)


def bell_like(pair, kind, sign, n_ports=3, mode="exact"):
    p, q = pair
    inv = exact.INV_SQRT2 if mode == "exact" else complex(2 ** -0.5)
    s = exact.field(mode).one if sign > 0 else -exact.field(mode).one
    if kind == "psi":
        a = {(p, H): 1, (q, V): 1}
        b = {(p, V): 1, (q, H): 1}
    else:
        a = {(p, H): 1, (q, H): 1}
        b = {(p, V): 1, (q, V): 1}
    return MultiPhotonState(
        {occupation_key(a): inv, occupation_key(b): inv * s}, n_ports, mode
    )


# ---------------------------------------------------------------------------
# first-quantized oracle for two-photon port-matrix action
# ---------------------------------------------------------------------------


def _mode_index(port, pol, n_ports):
    return 2 * port + pol


def two_photon_tensor(state, n_ports):
    """Symmetric first-quantized tensor of a two-photon state."""
    d = 2 * n_ports
    t = np.zeros((d, d), dtype=complex)
    for occ, amp in state.terms.items():
        modes = []
        for (port, pol), c in occ:
            modes.extend([_mode_index(port, pol, n_ports)] * c)
        a, b = modes
        z = complex(amp)
        if a == b:
            t[a, a] += z
        else:
            t[a, b] += z / math.sqrt(2)
            t[b, a] += z / math.sqrt(2)
    return t


def tensor_to_occupations(t, n_ports):
    d = 2 * n_ports
    out = {}
    for a in range(d):
        for b in range(a, d):
            amp = t[a, a] if a == b else t[a, b] * math.sqrt(2)
            if abs(amp) < 1e-14:
                continue
            counts = {}
            for m in (a, b):
                key = (m // 2, m % 2)
                counts[key] = counts.get(key, 0) + 1
            out[occupation_key(counts)] = amp
    return out


def oracle_apply(unitary, state, n_ports):
    u = unitary.to_numpy()
    d = 2 * n_ports
    big = np.zeros((d, d), dtype=complex)
    for p in range(n_ports):
        for q in range(n_ports):
            for pol in (0, 1):
                big[2 * q + pol, 2 * p + pol] = u[q, p]
    t = two_photon_tensor(state, n_ports)
    return tensor_to_occupations(big @ t @ big.T, n_ports)


# ---------------------------------------------------------------------------
# bosonic_product
# ---------------------------------------------------------------------------


def test_product_distinct_modes_no_enhancement():
    out = bosonic_product(ket({(0, H): 1}), ket({(0, V): 1}))
    assert out.terms == {occupation_key({(0, H): 1, (0, V): 1}): exact.ONE}


def test_product_same_mode_sqrt2():
    out = bosonic_product(ket({(0, H): 1}), ket({(0, H): 1}))
    assert out.terms == {occupation_key({(0, H): 2}): exact.SQRT2}


def test_product_of_shared_port_pairs():
    # (1/2)[sqrt2 |2H>_A |V>_B |V>_C + sqrt2 |2V>_A |H>_B |H>_C
    #       + |HV>_A (|V>_B |H>_C + |H>_B |V>_C)]
    out = bosonic_product(bell_like((0, 1), "psi", 1), bell_like((0, 2), "psi", 1))
    half = exact.ExactComplex(Fraction(1, 2))
    expect = {
        occupation_key({(0, H): 2, (1, V): 1, (2, V): 1}): exact.SQRT2 * half,
        occupation_key({(0, V): 2, (1, H): 1, (2, H): 1}): exact.SQRT2 * half,
        occupation_key({(0, H): 1, (0, V): 1, (1, V): 1, (2, H): 1}): half,
        occupation_key({(0, H): 1, (0, V): 1, (1, H): 1, (2, V): 1}): half,
    }
    assert out.terms == expect
    assert out.norm_sq().as_fraction() == Fraction(3, 2)


def test_product_norm_multiplicative_on_disjoint_ports():
    s1 = bell_like((0, 1), "phi", -1)
    s2 = ket({(2, H): 1})
    out = bosonic_product(s1, s2)
    assert out.norm_sq() == s1.norm_sq() * s2.norm_sq()


def test_product_commutative_and_associative():
    rng = random.Random(3)

    def rand_state(ports):
        terms = {}
        for port in ports:
            pol = rng.choice((H, V))
            terms[occupation_key({(port, pol): 1})] = exact.ExactComplex(
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            )
        return MultiPhotonState(terms, 3, "exact")

    for _ in range(20):
        a = rand_state([0, 1])
        b = rand_state([0, 2])
        c = rand_state([1, 2])
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        assert bosonic_product(a, b).terms == bosonic_product(b, a).terms
        left = bosonic_product(bosonic_product(a, b), c, max_photons=4)
        right = bosonic_product(a, bosonic_product(b, c), max_photons=4)
        assert left.terms == right.terms


def test_product_capacity_error():
    four = bosonic_product(
        bosonic_product(ket({(0, H): 1}), ket({(1, H): 1})),
        bosonic_product(ket({(2, H): 1}), ket({(0, V): 1})),
    )
    with pytest.raises(CapacityError):
        bosonic_product(four, ket({(1, V): 1}))


# ---------------------------------------------------------------------------
# apply_port_unitary
# ---------------------------------------------------------------------------


def test_identity_leaves_state_alone():
    s = bell_like((0, 1), "psi", -1)
    out = apply_port_unitary(Matrix.identity(3, "exact"), s)
    assert out.terms == s.terms


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_port_unitary(Matrix.identity(4, "exact"), bell_like((0, 1), "psi", 1))


def _random_unitary(n, rng):
    a = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
    )
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return Matrix.from_numpy(q)


def test_unitary_roundtrip_and_norm():
    rng = random.Random(5)
    for _ in range(10):
        u = _random_unitary(3, rng)
        s = MultiPhotonState(
            {
                occupation_key({(0, H): 1, (1, V): 1}): 0.6 + 0.1j,
                occupation_key({(2, H): 2}): 0.5 - 0.4j,
                occupation_key({(1, H): 1, (1, V): 1}): 0.3j,
            },
            3,
            "float",
        )
        img = apply_port_unitary(u, s)
        assert float(img.norm_sq()) == pytest.approx(float(s.norm_sq()), abs=1e-12)
        back = apply_port_unitary(u.dagger(), img)
        for occ, amp in s.terms.items():
            assert complex(back.terms[occ]) == pytest.approx(complex(amp), abs=1e-12)


def test_matches_first_quantized_oracle():
    u = triport_unitary("float")
    for kind in ("psi", "phi"):
        for sign in (1, -1):
            s = bell_like((0, 1), kind, sign, mode="float")
            img = apply_port_unitary(u, s)
            expected = oracle_apply(u, s, 3)
            assert set(img.terms) == set(expected)
            for occ, amp in expected.items():
                assert complex(img.terms[occ]) == pytest.approx(amp, abs=1e-12)


def test_exact_image_coefficients_of_psi_plus():
    # honest expansion of the canonical matrix acting on the AB pair state
    img = apply_port_unitary(triport_unitary("exact"), bell_like((0, 1), "psi", 1))
    f = Fraction

    def sq2(x):
        return exact.SQRT2 * exact.ExactComplex(x)

    assert img.amplitude({(0, H): 1, (0, V): 1}) == sq2(f(2, 9))
    assert img.amplitude({(1, H): 1, (1, V): 1}) == sq2(f(2, 9))
    assert img.amplitude({(2, H): 1, (2, V): 1}) == sq2(f(-4, 9))
    assert img.amplitude({(0, H): 1, (1, V): 1}) == sq2(f(-5, 18))
    assert img.norm_sq() == 1


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def test_project_complement_splits_norm():
    s = bosonic_product(bell_like((0, 1), "psi", 1), bell_like((0, 2), "phi", -1))

    def two_at_a(occ):
        return sum(c for (p, _pol), c in occ.items() if p == 0) == 2

    yes = project(s, two_at_a)
    no = project(s, lambda occ: not two_at_a(occ))
    assert yes.norm_sq() + no.norm_sq() == s.norm_sq()


def test_project_true_and_empty():
    s = bell_like((0, 1), "psi", 1)
    assert project(s, lambda occ: True).terms == s.terms
    out = project(s, lambda occ: sum(c for (p, _), c in occ.items() if p == 2) == 2)
    assert out.is_zero()
    assert out.norm_sq() == 0


def test_opposite_polarization_projection_picks_one_branch():
    four = bosonic_product(bell_like((0, 1), "psi", 1), bell_like((0, 2), "psi", 1))

    def herald(occ):
        return occ.get((0, H), 0) == 1 and occ.get((0, V), 0) == 1

    picked = project(four, herald)
    assert set(picked.terms) == {
        occupation_key({(0, H): 1, (0, V): 1, (1, V): 1, (2, H): 1}),
        occupation_key({(0, H): 1, (0, V): 1, (1, H): 1, (2, V): 1}),
    }
