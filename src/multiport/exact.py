"""Exact complex scalars over the field Q(sqrt2, sqrt3, i).

Every amplitude the simulator can produce in exact mode lives in this
field: beam-splitter factors i/sqrt2, unit-modulus mirror factors at
multiples of pi/4, rational matrix entries such as 1/3 or 2/9, and the
sqrt(n!) bosonic normalization factors for up to four photons in one
mode (sqrt6 = sqrt2 * sqrt3 covers 3! and 4!).

A scalar is stored as eight Fractions: the real and imaginary parts are
each combinations  a + b*sqrt2 + c*sqrt3 + d*sqrt6.  Addition,
multiplication, conjugation and division are closed and exact, so
conservation laws can be asserted with ``==`` instead of tolerances.

Mixing exact scalars with floats or complex numbers is intentionally a
TypeError: it would silently destroy exactness.  Plain ints and
Fractions coerce fine.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapacityError

_F0 = Fraction(0)
_F1 = Fraction(1)

# Quadruple basis for each real/imaginary part: (1, sqrt2, sqrt3, sqrt6).
_BASIS_FLOAT = (1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0))

# Basis index i maps to sqrt(2)^e2 * sqrt(3)^e3.
_EXP = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
_IDX = {v: k for k, v in _EXP.items()}

# _MUL[i][j] = (k, m): basis_i * basis_j == m * basis_k with integer m.
_MUL = tuple(
    tuple(
        (
            _IDX[((_EXP[i][0] + _EXP[j][0]) % 2, (_EXP[i][1] + _EXP[j][1]) % 2)],
            2 ** ((_EXP[i][0] + _EXP[j][0]) // 2) * 3 ** ((_EXP[i][1] + _EXP[j][1]) // 2),
        )
        for j in range(4)
    )
    for i in range(4)
)

_QZERO = (_F0, _F0, _F0, _F0)

# Square-free part of an integer -> its basis index.
_SQUARE_FREE_SLOT = {1: 0, 2: 1, 3: 2, 6: 3}


def _quad(value) -> tuple:
    if isinstance(value, tuple):
        if len(value) != 4:
            raise ValueError("quad parts need exactly 4 coefficients")
        return tuple(Fraction(v) for v in value)
    return (Fraction(value), _F0, _F0, _F0)


def _add(a, b):
    # Fraction addition costs two gcds even when one side is zero.
    if not b:
        return a
    if not a:
        return b
    return a + b


def _qadd(x, y):
    return (_add(x[0], y[0]), _add(x[1], y[1]), _add(x[2], y[2]), _add(x[3], y[3]))


def _sub(a, b):
    if not b:
        return a
    if not a:
        return -b
    return a - b


def _qsub(x, y):
    return (_sub(x[0], y[0]), _sub(x[1], y[1]), _sub(x[2], y[2]), _sub(x[3], y[3]))


def _qneg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def _qmul(x, y):
    out = [_F0, _F0, _F0, _F0]
    for i in range(4):
        xi = x[i]
        if not xi:
            continue
        row = _MUL[i]
        for j in range(4):
            yj = y[j]
            if not yj:
                continue
            k, m = row[j]
            out[k] = _add(out[k], xi * yj * m)
    return tuple(out)


def _qinv(x):
    # Multiply by the sqrt2- and sqrt3-conjugates to rationalize.
    s2 = (x[0], -x[1], x[2], -x[3])
    y = _qmul(x, s2)            # lands in Q(sqrt3): y1 == y3 == 0
    s3 = (y[0], y[1], -y[2], -y[3])
    z = _qmul(y, s3)            # rational
    if z[0] == 0:
        raise ZeroDivisionError("division by zero exact scalar")
    n = _qmul(s2, s3)
    return tuple(c / z[0] for c in n)


def _qfloat(x) -> float:
    return (
        float(x[0])
        + float(x[1]) * _BASIS_FLOAT[1]
        + float(x[2]) * _BASIS_FLOAT[2]
        + float(x[3]) * _BASIS_FLOAT[3]
    )


class ExactComplex:
    """Immutable exact complex number in Q(sqrt2, sqrt3, i)."""

    __slots__ = ("_re", "_im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "_re", _quad(re))
        object.__setattr__(self, "_im", _quad(im))

    # -- construction helpers -------------------------------------------

    @classmethod
    def _make(cls, re: tuple, im: tuple = _QZERO) -> "ExactComplex":
        """Trusted constructor for the kernel's own results.

        ``re`` and ``im`` must already be 4-tuples of Fractions, as every
        arithmetic result built from two ExactComplex values is; they are
        stored without re-validation.
        """
        z = object.__new__(cls)
        z._re = re
        z._im = im
        return z

    @classmethod
    def rational(cls, num, den=1) -> "ExactComplex":
        return cls(Fraction(num, den))

    @property
    def re_coefficients(self) -> tuple:
        """(rational, sqrt2, sqrt3, sqrt6) Fractions of the real part."""
        return self._re

    @property
    def im_coefficients(self) -> tuple:
        return self._im

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self._re == _QZERO and self._im == _QZERO

    def is_real(self) -> bool:
        return self._im == _QZERO

    def is_rational(self) -> bool:
        return self.is_real() and self._re[1] == self._re[2] == self._re[3] == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational real number")
        return self._re[0]

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExactComplex):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactComplex(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex._make(_qadd(self._re, o._re), _qadd(self._im, o._im))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex._make(_qsub(self._re, o._re), _qsub(self._im, o._im))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return ExactComplex._make(_qneg(self._re), _qneg(self._im))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        re = _qsub(_qmul(self._re, o._re), _qmul(self._im, o._im))
        im = _qadd(_qmul(self._re, o._im), _qmul(self._im, o._re))
        return ExactComplex._make(re, im)

    __rmul__ = __mul__

    def inverse(self) -> "ExactComplex":
        mod = _qadd(_qmul(self._re, self._re), _qmul(self._im, self._im))
        q = _qinv(mod)
        return ExactComplex._make(_qmul(self._re, q), _qmul(_qneg(self._im), q))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
        return ExactComplex._make(self._re, _qneg(self._im))

    def abs_sq(self) -> "ExactComplex":
        """|z|^2 as an exact (real) scalar."""
        return ExactComplex._make(_qadd(_qmul(self._re, self._re), _qmul(self._im, self._im)))

    # -- conversions and comparison ---------------------------------------

    def __complex__(self) -> complex:
        return complex(_qfloat(self._re), _qfloat(self._im))

    def __float__(self) -> float:
        if not self.is_real():
            raise ValueError(f"{self} has a nonzero imaginary part")
        return _qfloat(self._re)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._re == o._re and self._im == o._im

    def __hash__(self):
        if self.is_rational():
            return hash(self._re[0])
        return hash((self._re, self._im))

    def __bool__(self):
        return not self.is_zero()

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _part_str(quad) -> str:
        names = ("", "*sqrt2", "*sqrt3", "*sqrt6")
        pieces = []
        for coeff, name in zip(quad, names):
            if not coeff:
                continue
            if not pieces:
                pieces.append(f"{coeff}{name}")
            elif coeff > 0:
                pieces.append(f"+ {coeff}{name}")
            else:
                pieces.append(f"- {-coeff}{name}")
        return " ".join(pieces) if pieces else "0"

    def __str__(self):
        re_s = self._part_str(self._re)
        im_s = self._part_str(self._im)
        if im_s == "0":
            return re_s
        if re_s == "0":
            return f"({im_s})*i"
        return f"({re_s}) + ({im_s})*i"

    def __repr__(self):
        return f"ExactComplex({self})"


ZERO = ExactComplex(0)
ONE = ExactComplex(1)
I = ExactComplex(0, 1)
SQRT2 = ExactComplex((0, _F1, _F0, _F0))
SQRT3 = ExactComplex((0, _F0, _F1, _F0))
SQRT6 = ExactComplex((0, _F0, _F0, _F1))
INV_SQRT2 = ExactComplex((0, Fraction(1, 2), _F0, _F0))

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
    for p in (2, 3):
        while rest % (p * p) == 0:
            rest //= p * p
            square *= p
    # Pull out larger perfect-square factors of the remainder.
    k = 2
    while k * k <= rest:
        while rest % (k * k) == 0:
            rest //= k * k
            square *= k
        k += 1
    slot = _SQUARE_FREE_SLOT.get(rest)
    if slot is None:
        raise CapacityError(f"sqrt({m}) is outside the exact field")
    re = [_F0, _F0, _F0, _F0]
    re[slot] = Fraction(square)
    return ExactComplex._make(tuple(re))


def sqrt_int(m: int, mode: str):
    """sqrt of an integer in the requested numeric mode."""
    if mode == "exact":
        return exact_sqrt_int(m)
    return complex(math.sqrt(m))


def sqrt_factorial(k: int, mode: str):
    if mode == "exact":
        return exact_sqrt_int(math.factorial(k))
    return complex(math.sqrt(math.factorial(k)))


def abs_sq(z):
    """|z|^2 for either scalar mode (exact stays exact, float stays float)."""
    if isinstance(z, ExactComplex):
        return z.abs_sq()
    return (z.real * z.real + z.imag * z.imag) if isinstance(z, complex) else float(z) ** 2


def scalar_zero(mode: str):
    return ZERO if mode == "exact" else 0j


def scalar_one(mode: str):
    return ONE if mode == "exact" else 1 + 0j
