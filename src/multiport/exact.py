"""Exact complex scalars over the field Q(sqrt2, sqrt3, i).

Every amplitude the simulator can produce in exact mode lives in this
field: beam-splitter factors i/sqrt2, unit-modulus mirror factors at
multiples of pi/4, rational matrix entries such as 1/3 or 2/9, and the
sqrt(n!) bosonic normalization factors for up to four photons in one
mode (sqrt6 = sqrt2 * sqrt3 covers 3! and 4!).

The real and imaginary parts are each combinations
a + b*sqrt2 + c*sqrt3 + d*sqrt6.  A scalar is stored as eight integer
numerators, re (1, sqrt2, sqrt3, sqrt6) then im (1, sqrt2, sqrt3, sqrt6),
over one positive integer denominator.  The form is canonical: the gcd of
all nine integers is 1 and zero is all-zero over 1, so ``==`` and
``hash`` compare plain tuples.  Addition, multiplication, conjugation and
division are closed and exact, so conservation laws can be asserted with
``==`` instead of tolerances.  Fractions appear only at the boundary: the
constructor and the coefficient properties.

Mixing exact scalars with floats or complex numbers is intentionally a
TypeError: it would silently destroy exactness.  Plain ints and
Fractions coerce fine.

``field(mode)`` gives the scalars of a numeric mode, ``EXACT`` or
``FLOAT``: its zero and one, sqrt of an integer, the zero test and the
phase factor, so the rest of the package takes a Field instead of
branching on the mode name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from .errors import CapacityError, SpecError

_SQRT2_F = math.sqrt(2.0)
_SQRT3_F = math.sqrt(3.0)
_SQRT6_F = math.sqrt(6.0)

_FRACTION_ZERO = Fraction(0)
_ZERO4 = (0, 0, 0, 0)
_ZERO7 = (0, 0, 0, 0, 0, 0, 0)
_ZERO8 = (0, 0, 0, 0, 0, 0, 0, 0)

# Square-free part of an integer -> its basis index.
_SQUARE_FREE_SLOT = {1: 0, 2: 1, 3: 2, 6: 3}


def _quad(value) -> tuple:
    if isinstance(value, tuple):
        if len(value) != 4:
            raise ValueError("quad parts need exactly 4 coefficients")
        return tuple(Fraction(v) for v in value)
    return (Fraction(value), _FRACTION_ZERO, _FRACTION_ZERO, _FRACTION_ZERO)


def _make(nums: tuple, den: int) -> "ExactComplex":
    """Store eight numerators over a positive denominator that are already
    canonical (gcd of all nine is 1, zero is over 1), without checks."""
    z = object.__new__(ExactComplex)
    z._n = nums
    z._d = den
    return z


def _reduced(r0, r1, r2, r3, i0, i1, i2, i3, den) -> "ExactComplex":
    """Canonical scalar from eight numerators over a positive denominator."""
    g = gcd(r0, r1, r2, r3, i0, i1, i2, i3, den)
    if g == 1:
        return _make((r0, r1, r2, r3, i0, i1, i2, i3), den)
    return _make(
        (r0 // g, r1 // g, r2 // g, r3 // g, i0 // g, i1 // g, i2 // g, i3 // g),
        den // g,
    )


def _coerce(other):
    if isinstance(other, ExactComplex):
        return other
    if isinstance(other, int):
        return _make((int(other), 0, 0, 0, 0, 0, 0, 0), 1)
    if isinstance(other, Fraction):
        return _make((other.numerator, 0, 0, 0, 0, 0, 0, 0), other.denominator)
    return None


def _real_part(n0, n1, n2, n3, d) -> float:
    # Int true division is correctly rounded, so n/d is float(Fraction(n, d)).
    return n0 / d + n1 / d * _SQRT2_F + n2 / d * _SQRT3_F + n3 / d * _SQRT6_F


class ExactComplex:
    """Immutable exact complex number in Q(sqrt2, sqrt3, i)."""

    __slots__ = ("_n", "_d")

    def __init__(self, re=0, im=0):
        coeffs = _quad(re) + _quad(im)
        den = math.lcm(*(c.denominator for c in coeffs))
        # Each Fraction is in lowest terms, so over their lcm the nine
        # integers already have gcd 1.
        self._n = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._d = den

    # -- coefficients ------------------------------------------------------

    @property
    def re_coefficients(self) -> tuple:
        """(rational, sqrt2, sqrt3, sqrt6) Fractions of the real part."""
        return tuple(Fraction(*pair) for pair in self.lowest_terms()[:4])

    @property
    def im_coefficients(self) -> tuple:
        return tuple(Fraction(*pair) for pair in self.lowest_terms()[4:])

    def lowest_terms(self) -> tuple:
        """The eight coefficients, re then im, as (numerator, denominator)
        pairs in lowest terms, (0, 1) for zero: no Fraction is built."""
        d, pairs = self._d, []
        for n in self._n:
            g = gcd(n, d) if n else d
            pairs.append((n // g, d // g))
        return tuple(pairs)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self._n == _ZERO8

    def is_real(self) -> bool:
        return self._n[4:] == _ZERO4

    def is_rational(self) -> bool:
        return self._n[1:] == _ZERO7

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational real number")
        return Fraction(self._n[0], self._d)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if o._n == _ZERO8:
            return self
        if self._n == _ZERO8:
            return o
        a0, a1, a2, a3, a4, a5, a6, a7 = self._n
        b0, b1, b2, b3, b4, b5, b6, b7 = o._n
        da = self._d
        db = o._d
        if da == db:
            return _reduced(
                a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7, da
            )
        return _reduced(
            a0 * db + b0 * da, a1 * db + b1 * da, a2 * db + b2 * da, a3 * db + b3 * da,
            a4 * db + b4 * da, a5 * db + b5 * da, a6 * db + b6 * da, a7 * db + b7 * da,
            da * db,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self if o._n == _ZERO8 else self + -o

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        a0, a1, a2, a3, a4, a5, a6, a7 = self._n
        return _make((-a0, -a1, -a2, -a3, -a4, -a5, -a6, -a7), self._d)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self._n == _ZERO8 or o._n == _ZERO8:
            return ZERO
        # (re_a + i im_a)(re_b + i im_b) with the Q(sqrt2, sqrt3) table:
        # sqrt2^2 = 2, sqrt3^2 = 3, sqrt6^2 = 6, sqrt2 sqrt3 = sqrt6,
        # sqrt2 sqrt6 = 2 sqrt3, sqrt3 sqrt6 = 3 sqrt2.
        a0, a1, a2, a3, a4, a5, a6, a7 = self._n
        b0, b1, b2, b3, b4, b5, b6, b7 = o._n
        return _reduced(
            a0 * b0 - a4 * b4 + 2 * (a1 * b1 - a5 * b5)
            + 3 * (a2 * b2 - a6 * b6) + 6 * (a3 * b3 - a7 * b7),
            a0 * b1 + a1 * b0 - a4 * b5 - a5 * b4
            + 3 * (a2 * b3 + a3 * b2 - a6 * b7 - a7 * b6),
            a0 * b2 + a2 * b0 - a4 * b6 - a6 * b4
            + 2 * (a1 * b3 + a3 * b1 - a5 * b7 - a7 * b5),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1 - a4 * b7 - a7 * b4 - a5 * b6 - a6 * b5,
            a0 * b4 + a4 * b0 + 2 * (a1 * b5 + a5 * b1)
            + 3 * (a2 * b6 + a6 * b2) + 6 * (a3 * b7 + a7 * b3),
            a0 * b5 + a1 * b4 + a4 * b1 + a5 * b0
            + 3 * (a2 * b7 + a3 * b6 + a6 * b3 + a7 * b2),
            a0 * b6 + a2 * b4 + a4 * b2 + a6 * b0
            + 2 * (a1 * b7 + a3 * b5 + a5 * b3 + a7 * b1),
            a0 * b7 + a3 * b4 + a1 * b6 + a2 * b5 + a4 * b3 + a7 * b0 + a5 * b2 + a6 * b1,
            self._d * o._d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ExactComplex":
        a0, a1, a2, a3, a4, a5, a6, a7 = self._n
        # m = |numerators|^2, a real element of Q(sqrt2, sqrt3).
        m0 = (
            a0 * a0 + a4 * a4 + 2 * (a1 * a1 + a5 * a5) + 3 * (a2 * a2 + a6 * a6)
            + 6 * (a3 * a3 + a7 * a7)
        )
        m1 = 2 * (a0 * a1 + a4 * a5 + 3 * (a2 * a3 + a6 * a7))
        m2 = 2 * (a0 * a2 + a4 * a6 + 2 * (a1 * a3 + a5 * a7))
        m3 = 2 * (a0 * a3 + a1 * a2 + a4 * a7 + a5 * a6)
        # y = m times its sqrt2-conjugate lands in Q(sqrt3); y times its
        # sqrt3-conjugate is the rational r.  So 1/m = w / r with w the
        # product of the two conjugates.
        y0 = m0 * m0 + 3 * m2 * m2 - 2 * m1 * m1 - 6 * m3 * m3
        y2 = 2 * (m0 * m2 - 2 * m1 * m3)
        r = y0 * y0 - 3 * y2 * y2
        if r == 0:
            raise ZeroDivisionError("division by zero exact scalar")
        w0 = m0 * y0 - 3 * m2 * y2
        w1 = 3 * m3 * y2 - m1 * y0
        w2 = m2 * y0 - m0 * y2
        w3 = m1 * y2 - m3 * y0
        # 1/z = d conj(numerators) w / r.
        d = self._d
        if r < 0:
            r = -r
            d = -d
        return _reduced(
            d * (a0 * w0 + 2 * a1 * w1 + 3 * a2 * w2 + 6 * a3 * w3),
            d * (a0 * w1 + a1 * w0 + 3 * (a2 * w3 + a3 * w2)),
            d * (a0 * w2 + a2 * w0 + 2 * (a1 * w3 + a3 * w1)),
            d * (a0 * w3 + a3 * w0 + a1 * w2 + a2 * w1),
            -d * (a4 * w0 + 2 * a5 * w1 + 3 * a6 * w2 + 6 * a7 * w3),
            -d * (a4 * w1 + a5 * w0 + 3 * (a6 * w3 + a7 * w2)),
            -d * (a4 * w2 + a6 * w0 + 2 * (a5 * w3 + a7 * w1)),
            -d * (a4 * w3 + a7 * w0 + a5 * w2 + a6 * w1),
            r,
        )

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "ExactComplex":
        a0, a1, a2, a3, a4, a5, a6, a7 = self._n
        return _make((a0, a1, a2, a3, -a4, -a5, -a6, -a7), self._d)

    def abs_sq(self) -> "ExactComplex":
        """|z|^2 as an exact (real) scalar."""
        if self._n == _ZERO8:
            return self
        a0, a1, a2, a3, a4, a5, a6, a7 = self._n
        return _reduced(
            a0 * a0 + a4 * a4 + 2 * (a1 * a1 + a5 * a5) + 3 * (a2 * a2 + a6 * a6)
            + 6 * (a3 * a3 + a7 * a7),
            2 * (a0 * a1 + a4 * a5 + 3 * (a2 * a3 + a6 * a7)),
            2 * (a0 * a2 + a4 * a6 + 2 * (a1 * a3 + a5 * a7)),
            2 * (a0 * a3 + a1 * a2 + a4 * a7 + a5 * a6),
            0, 0, 0, 0,
            self._d * self._d,
        )

    # -- conversions and comparison ---------------------------------------

    def __complex__(self) -> complex:
        n = self._n
        d = self._d
        return complex(
            _real_part(n[0], n[1], n[2], n[3], d), _real_part(n[4], n[5], n[6], n[7], d)
        )

    def __float__(self) -> float:
        if not self.is_real():
            raise ValueError(f"{self} has a nonzero imaginary part")
        n = self._n
        return _real_part(n[0], n[1], n[2], n[3], self._d)

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        if self._n[1:] == _ZERO7:
            return hash(Fraction(self._n[0], self._d))
        return hash((self._n, self._d))

    def __bool__(self):
        return self._n != _ZERO8

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return scalar_text(self.lowest_terms())

    def __repr__(self):
        return f"ExactComplex({self})"


ZERO = ExactComplex(0)
ONE = ExactComplex(1)
I = ExactComplex(0, 1)
SQRT2 = ExactComplex((0, 1, 0, 0))
SQRT3 = ExactComplex((0, 0, 1, 0))
SQRT6 = ExactComplex((0, 0, 0, 1))
INV_SQRT2 = ExactComplex((0, Fraction(1, 2), 0, 0))

# e^{i k pi/4} for k = 0..7; the unit-modulus phases exact mode supports.
EIGHTH_ROOTS = (
    ONE,
    ExactComplex((0, Fraction(1, 2), 0, 0), (0, Fraction(1, 2), 0, 0)),
    I,
    ExactComplex((0, Fraction(-1, 2), 0, 0), (0, Fraction(1, 2), 0, 0)),
    -ONE,
    ExactComplex((0, Fraction(-1, 2), 0, 0), (0, Fraction(-1, 2), 0, 0)),
    -I,
    ExactComplex((0, Fraction(1, 2), 0, 0), (0, Fraction(-1, 2), 0, 0)),
)


def _part_text(pairs) -> str:
    pieces = []
    for (num, den), name in zip(pairs, ("", "*sqrt2", "*sqrt3", "*sqrt6")):
        if not num:
            continue
        coeff = f"{abs(num) if pieces else num}" + (f"/{den}" if den != 1 else "") + name
        pieces.append(coeff if not pieces else ("+ " if num > 0 else "- ") + coeff)
    return " ".join(pieces) if pieces else "0"


def scalar_text(pairs) -> str:
    """``str`` of a scalar from its ``lowest_terms``, as "(re) + (im)*i"."""
    re_s, im_s = _part_text(pairs[:4]), _part_text(pairs[4:])
    if im_s == "0":
        return re_s
    if re_s == "0":
        return f"({im_s})*i"
    return f"({re_s}) + ({im_s})*i"


def eighth_root(k: int) -> ExactComplex:
    """Exact e^{i k pi/4}."""
    return EIGHTH_ROOTS[k % 8]


def exact_sqrt_int(m: int) -> ExactComplex:
    """Exact sqrt of a nonnegative integer whose square-free part is 1, 2, 3 or 6."""
    if m < 0:
        raise ValueError("negative argument")
    if m == 0:
        return ZERO
    square = 1
    rest = m
    # Pull out perfect-square factors, smallest first.
    k = 2
    while k * k <= rest:
        while rest % (k * k) == 0:
            rest //= k * k
            square *= k
        k += 1
    slot = _SQUARE_FREE_SLOT.get(rest)
    if slot is None:
        raise CapacityError(f"sqrt({m}) is outside the exact field")
    nums = [0] * 8
    nums[slot] = square
    return _make(tuple(nums), 1)


def abs_sq(z):
    """|z|^2 for either scalar mode (exact stays exact, float stays float)."""
    if isinstance(z, ExactComplex):
        return z.abs_sq()
    return (z.real * z.real + z.imag * z.imag) if isinstance(z, complex) else float(z) ** 2


# A float amplitude at or below this modulus counts as zero: states drop
# such terms, and the gate expansion skips such matrix entries.
FLOAT_PRUNE = 1e-14


@dataclass(frozen=True)
class Field:
    """The scalars of one numeric mode, so that callers need not branch on it.

    ``real_zero`` is the zero a sum of |a|^2 starts from: ZERO in exact
    mode, 0.0 in float mode.  ``scalar`` turns a user-supplied r, t or
    mirror value into the mode's type, and ``phase`` turns a phase in
    radians into its unit-modulus factor.
    """

    zero: object
    one: object
    real_zero: object
    inv_sqrt2: object
    sqrt_int: Callable
    is_zero: Callable
    scalar: Callable
    phase: Callable


def _finite_phase(radians: float) -> float:
    if not math.isfinite(radians):
        raise SpecError(f"phase must be finite, got {radians!r}")
    return radians


def _exact_phase(radians: float) -> ExactComplex:
    k = _finite_phase(radians) / (math.pi / 4.0)
    if abs(k) >= 2 ** 50:
        # A float this large no longer resolves the pi/4 grid: every such
        # k is whole, and it may overflow to inf.
        raise SpecError(f"exact phase {radians!r} is too large to place on the pi/4 grid")
    rounded = round(k)
    if abs(k - rounded) > 1e-12:
        raise SpecError("exact mode supports phases that are multiples of pi/4")
    return eighth_root(rounded)


def _exact_scalar(value):
    if isinstance(value, (float, complex)):
        raise SpecError("exact mode takes exact r, t and mirror_factor values, not floats")
    return value


EXACT = Field(
    zero=ZERO, one=ONE, real_zero=ZERO, inv_sqrt2=INV_SQRT2, sqrt_int=exact_sqrt_int,
    is_zero=ExactComplex.is_zero, scalar=_exact_scalar, phase=_exact_phase,
)
FLOAT = Field(
    zero=0j, one=1 + 0j, real_zero=0.0, inv_sqrt2=complex(2 ** -0.5),
    sqrt_int=lambda m: complex(math.sqrt(m)), is_zero=lambda a: abs(a) <= FLOAT_PRUNE,
    scalar=complex, phase=lambda radians: cmath.exp(1j * _finite_phase(radians)),
)
_FIELDS = {"exact": EXACT, "float": FLOAT}


def field(mode: str) -> Field:
    """The Field of a numeric mode, 'exact' or 'float'."""
    try:
        return _FIELDS[mode]
    except (KeyError, TypeError):
        raise SpecError(f"unknown numeric mode {mode!r}") from None
