"""Field axioms and conversions for the exact scalar type."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiport import exact
from multiport.exact import ExactComplex
from multiport.errors import CapacityError


def random_scalar(rng):
    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 9))

    return ExactComplex(
        (frac(), frac(), frac(), frac()), (frac(), frac(), frac(), frac())
    )


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.abs_sq() == a * a.conjugate()


def test_float_conversion_tracks_arithmetic():
    rng = random.Random(11)
    for _ in range(40):
        a, b = random_scalar(rng), random_scalar(rng)
        assert complex(a * b) == pytest.approx(complex(a) * complex(b), abs=1e-9)
        assert complex(a + b) == pytest.approx(complex(a) + complex(b), abs=1e-12)


def test_inversion():
    rng = random.Random(13)
    for _ in range(40):
        a = random_scalar(rng)
        if a.is_zero():
            continue
        assert a * a.inverse() == 1
        assert (1 / a) * a == exact.ONE
    with pytest.raises(ZeroDivisionError):
        exact.ZERO.inverse()


def test_eighth_roots():
    for k in range(8):
        root = exact.eighth_root(k)
        assert root ** 8 == 1
        assert root.abs_sq() == 1
        assert complex(root) == pytest.approx(
            complex(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)), abs=1e-15
        )
    assert exact.eighth_root(1) ** 2 == exact.I
    assert exact.eighth_root(-2) == -exact.I


def test_sqrt_helpers():
    assert exact.exact_sqrt_int(2) == exact.SQRT2
    assert exact.exact_sqrt_int(8) == 2 * exact.SQRT2
    assert exact.exact_sqrt_int(6) == exact.SQRT6
    assert exact.exact_sqrt_int(4) == 2
    assert exact.sqrt_factorial(2, "exact") == exact.SQRT2
    assert exact.sqrt_factorial(3, "exact") == exact.SQRT6
    assert exact.sqrt_factorial(4, "exact") == 2 * exact.SQRT6
    assert exact.sqrt_factorial(3, "float") == pytest.approx(math.sqrt(6))
    with pytest.raises(CapacityError):
        exact.exact_sqrt_int(5)


def test_mixing_with_floats_is_an_error():
    with pytest.raises(TypeError):
        exact.ONE + 0.5
    with pytest.raises(TypeError):
        exact.ONE * (1 + 1j)
    # ints and Fractions are fine
    assert exact.ONE + 1 == 2
    assert Fraction(1, 2) * exact.SQRT2 == exact.INV_SQRT2


def test_rendering_is_deterministic():
    z = ExactComplex(Fraction(1, 2), (0, Fraction(-1, 3), 0, 0))
    assert "sqrt2" in str(z)
    assert str(z) == str(ExactComplex(Fraction(1, 2), (0, Fraction(-1, 3), 0, 0)))
    assert str(exact.ZERO) == "0"
    assert str(exact.I) == "(1)*i"


_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_QUADS = st.tuples(_FRACTIONS, _FRACTIONS, _FRACTIONS, _FRACTIONS)
# Rational and sqrt2-only scalars too, so that results land on the rational
# line (where hash must agree with int and Fraction) often enough.
_SCALARS = st.one_of(
    st.builds(ExactComplex, _QUADS, _QUADS),
    st.builds(ExactComplex, _FRACTIONS),
    st.builds(lambda a, b: ExactComplex((0, a, 0, 0), (0, b, 0, 0)), _FRACTIONS, _FRACTIONS),
    st.integers(-3, 3).map(ExactComplex),
)


def _kernel_results(a, b, k):
    results = [
        a + b, a - b, -a, a * b, a.conjugate(), a.abs_sq(), a ** 2, a ** 3,
        a + k, k + a, a - k, k - a, a * k, k * a, a * Fraction(k, 7), a.abs_sq() - b.abs_sq(),
    ]
    if b:
        results += [b.inverse(), a / b, k / b]
    if k:
        results.append(a / k)
    return results


@settings(max_examples=120, deadline=None)
@given(a=_SCALARS, b=_SCALARS, k=st.integers(-4, 4))
def test_kernel_results_are_canonical(a, b, k):
    for r in _kernel_results(a, b, k):
        rebuilt = ExactComplex(r.re_coefficients, r.im_coefficients)
        assert r == rebuilt and hash(r) == hash(rebuilt)
        coefficients = r.re_coefficients + r.im_coefficients
        assert len(coefficients) == 8
        assert all(type(c) is Fraction for c in coefficients)
        if r.is_rational():
            q = r.as_fraction()
            assert r == q and q == r and hash(r) == hash(q)
            if q.denominator == 1:
                assert r == int(q) and hash(r) == hash(int(q))
    if b:
        assert a * b.inverse() * b == a
