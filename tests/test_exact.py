"""Field axioms and conversions for the exact scalar type."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiport import exact
from multiport.device import grover_coin
from multiport.errors import CapacityError, SpecError
from multiport.exact import ExactComplex
from multiport.matrices import Matrix


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
    assert exact.field("exact").sqrt_int(math.factorial(2)) == exact.SQRT2
    assert exact.field("exact").sqrt_int(math.factorial(3)) == exact.SQRT6
    assert exact.field("exact").sqrt_int(math.factorial(4)) == 2 * exact.SQRT6
    assert exact.field("float").sqrt_int(math.factorial(3)) == pytest.approx(math.sqrt(6))
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


# -- Fraction-quad reference kernel ---------------------------------------
#
# The kernel ExactComplex used before it held integer numerators over one
# shared denominator: each scalar is a pair (re, im) of 4-tuples of
# Fractions over the basis (1, sqrt2, sqrt3, sqrt6).  The integer kernel
# must agree with it on every operation and conversion.

_REF_EXP = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
_REF_IDX = {v: k for k, v in _REF_EXP.items()}
# _REF_MUL[i][j] = (k, m): basis_i * basis_j == m * basis_k.
_REF_MUL = tuple(
    tuple(
        (
            _REF_IDX[((_REF_EXP[i][0] + _REF_EXP[j][0]) % 2,
                      (_REF_EXP[i][1] + _REF_EXP[j][1]) % 2)],
            2 ** ((_REF_EXP[i][0] + _REF_EXP[j][0]) // 2)
            * 3 ** ((_REF_EXP[i][1] + _REF_EXP[j][1]) // 2),
        )
        for j in range(4)
    )
    for i in range(4)
)
_REF_BASIS = (1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0))
_QZERO = (Fraction(0),) * 4


def _qadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _qsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _qneg(x):
    return tuple(-a for a in x)


def _qmul(x, y):
    out = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4):
            k, m = _REF_MUL[i][j]
            out[k] += x[i] * y[j] * m
    return tuple(out)


def _qinv(x):
    s2 = (x[0], -x[1], x[2], -x[3])
    y = _qmul(x, s2)
    s3 = (y[0], y[1], -y[2], -y[3])
    z = _qmul(y, s3)
    if z[0] == 0:
        raise ZeroDivisionError("division by zero exact scalar")
    return tuple(c / z[0] for c in _qmul(s2, s3))


def _qfloat(x):
    return (
        float(x[0]) + float(x[1]) * _REF_BASIS[1]
        + float(x[2]) * _REF_BASIS[2] + float(x[3]) * _REF_BASIS[3]
    )


def _ref(value):
    """(re, im) Fraction quads of an ExactComplex, int or Fraction."""
    if isinstance(value, ExactComplex):
        return value.re_coefficients, value.im_coefficients
    return (Fraction(value), *_QZERO[1:]), _QZERO


def _ref_mul(x, y):
    return (_qsub(_qmul(x[0], y[0]), _qmul(x[1], y[1])),
            _qadd(_qmul(x[0], y[1]), _qmul(x[1], y[0])))


def _ref_abs_sq(x):
    return _qadd(_qmul(x[0], x[0]), _qmul(x[1], x[1])), _QZERO


def _ref_inverse(x):
    q = _qinv(_ref_abs_sq(x)[0])
    return _qmul(x[0], q), _qmul(_qneg(x[1]), q)


def _ref_pow(x, k):
    out = ((Fraction(1), *_QZERO[1:]), _QZERO)
    for _ in range(k):
        out = _ref_mul(out, x)
    return out


def _ref_part_str(quad):
    pieces = []
    for coeff, name in zip(quad, ("", "*sqrt2", "*sqrt3", "*sqrt6")):
        if not coeff:
            continue
        if not pieces:
            pieces.append(f"{coeff}{name}")
        elif coeff > 0:
            pieces.append(f"+ {coeff}{name}")
        else:
            pieces.append(f"- {-coeff}{name}")
    return " ".join(pieces) if pieces else "0"


def _ref_str(x):
    re_s, im_s = _ref_part_str(x[0]), _ref_part_str(x[1])
    if im_s == "0":
        return re_s
    if re_s == "0":
        return f"({im_s})*i"
    return f"({re_s}) + ({im_s})*i"


def _assert_matches_reference(z, ref):
    re, im = ref
    assert z.re_coefficients == re and z.im_coefficients == im
    assert all(type(c) is Fraction for c in z.re_coefficients + z.im_coefficients)
    rebuilt = ExactComplex(re, im)
    assert z == rebuilt and hash(z) == hash(rebuilt)
    c = complex(z)
    # bit for bit: hex() tells 0.0 from -0.0
    assert (c.real.hex(), c.imag.hex()) == (_qfloat(re).hex(), _qfloat(im).hex())
    assert str(z) == _ref_str(ref)
    assert repr(z) == f"ExactComplex({_ref_str(ref)})"
    assert z.is_zero() == (re == _QZERO and im == _QZERO) == (not z)
    assert z.is_real() == (im == _QZERO)
    rational = im == _QZERO and re[1:] == _QZERO[1:]
    assert z.is_rational() == rational
    if im == _QZERO:
        assert float(z).hex() == _qfloat(re).hex()
    else:
        with pytest.raises(ValueError):
            float(z)
    if rational:
        assert z.as_fraction() == re[0]
        assert z == re[0] and hash(z) == hash(re[0])
        if re[0].denominator == 1:
            assert z == int(re[0]) and hash(z) == hash(int(re[0]))
    else:
        with pytest.raises(ValueError):
            z.as_fraction()


_BIG = st.integers(-(10 ** 30), 10 ** 30)
_BIG_FRACTIONS = st.builds(Fraction, _BIG, st.integers(1, 10 ** 20))
_COEFFS = st.one_of(_FRACTIONS, st.integers(-5, 5), _BIG_FRACTIONS)
_MIXED_QUADS = st.tuples(_COEFFS, _COEFFS, _COEFFS, _COEFFS)
# Rational, sqrt2-only, mixed and large scalars, plus plain int and
# Fraction operands.
_PARITY_SCALARS = st.one_of(
    st.builds(ExactComplex, _COEFFS),
    st.builds(lambda a, b: ExactComplex((0, a, 0, 0), (0, b, 0, 0)), _COEFFS, _COEFFS),
    st.builds(ExactComplex, _MIXED_QUADS, _MIXED_QUADS),
    st.builds(ExactComplex, _MIXED_QUADS),
    st.just(exact.ZERO),
)
_OPERANDS = st.one_of(_PARITY_SCALARS, st.integers(-5, 5), _FRACTIONS, _BIG_FRACTIONS)


@settings(max_examples=200, deadline=None)
@given(a=_PARITY_SCALARS, b=_OPERANDS, k=st.integers(0, 4))
def test_kernel_matches_fraction_reference(a, b, k):
    ra, rb = _ref(a), _ref(b)
    _assert_matches_reference(a, ra)
    b_zero = not b
    cases = [
        (a + b, (_qadd(ra[0], rb[0]), _qadd(ra[1], rb[1]))),
        (b + a, (_qadd(ra[0], rb[0]), _qadd(ra[1], rb[1]))),
        (a - b, (_qsub(ra[0], rb[0]), _qsub(ra[1], rb[1]))),
        (b - a, (_qsub(rb[0], ra[0]), _qsub(rb[1], ra[1]))),
        (a * b, _ref_mul(ra, rb)),
        (b * a, _ref_mul(ra, rb)),
        (-a, (_qneg(ra[0]), _qneg(ra[1]))),
        (a.conjugate(), (ra[0], _qneg(ra[1]))),
        (a.abs_sq(), _ref_abs_sq(ra)),
        (a ** k, _ref_pow(ra, k)),
    ]
    if not b_zero:
        cases.append((a / b, _ref_mul(ra, _ref_inverse(rb))))
    if a:
        cases.append((a.inverse(), _ref_inverse(ra)))
        cases.append((b / a, _ref_mul(rb, _ref_inverse(ra))))
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        with pytest.raises(ZeroDivisionError):
            _ref_inverse(ra)
        with pytest.raises(ZeroDivisionError):
            b / a
    if b_zero:
        with pytest.raises(ZeroDivisionError):
            a / b
    for z, ref in cases:
        _assert_matches_reference(z, ref)
    # Equality between kernel values follows equality of the references.
    assert (a == b) == (ra == rb) == (b == a)
    for junk in (0.5, 1j, 2.0):
        for op in (
            lambda: a + junk, lambda: junk + a, lambda: a - junk, lambda: junk - a,
            lambda: a * junk, lambda: junk * a, lambda: a / junk, lambda: junk / a,
        ):
            with pytest.raises(TypeError):
                op()


# -- the per-mode Field --------------------------------------------------------


def test_field_names_the_two_modes_only():
    assert exact.field("exact") is exact.EXACT
    assert exact.field("float") is exact.FLOAT
    for bogus in ("bogus", "EXACT", "", None, ["exact"]):
        with pytest.raises(SpecError, match="unknown numeric mode"):
            exact.field(bogus)


@settings(max_examples=100, deadline=None)
@given(a=_SCALARS, b=_SCALARS, k=st.integers(-4, 4))
def test_exact_is_zero_agrees_with_equality(a, b, k):
    for z in _kernel_results(a, b, k) + [a - a, a * 0, b + -b]:
        assert exact.EXACT.is_zero(z) == (z == exact.ZERO)


def test_phases_agree_across_modes():
    for k in range(-8, 9):
        radians = k * math.pi / 4
        assert abs(complex(exact.EXACT.phase(radians)) - exact.FLOAT.phase(radians)) <= 1e-15
    for F in (exact.EXACT, exact.FLOAT):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(SpecError, match="finite"):
                F.phase(bad)
    for off_grid in (0.5, math.pi / 3, math.pi / 4 + 1e-9):
        with pytest.raises(SpecError, match="multiples of pi/4"):
            exact.EXACT.phase(off_grid)


def test_exact_sqrt_int_squares_back():
    for free in (1, 2, 3, 6):
        for square in (1, 2, 3, 5, 12, 35):
            m = free * square * square
            assert exact.EXACT.sqrt_int(m) ** 2 == m
    assert exact.EXACT.sqrt_int(0) == exact.ZERO
    with pytest.raises(CapacityError):
        exact.EXACT.sqrt_int(5 * 49)


def test_is_unitary_is_exact_for_exact_matrices():
    coin = grover_coin(4, "exact")
    assert coin.is_unitary()
    rows = [list(row) for row in coin.rows]
    rows[0][0] = rows[0][0] + Fraction(1, 10 ** 20)
    off = Matrix(rows, "exact")
    assert off.unitarity_dev() <= 1e-12  # within the float tolerance ...
    assert not off.is_unitary()  # ... but not unitary
