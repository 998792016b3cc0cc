"""Exact arithmetic in Q(sqrt(2)).

A :class:`Scalar` is a number p + q*sqrt(2) with rational p and q; it is the
coordinate domain for 1-D interval endpoints.  It is held as three ints,
(a + b*sqrt(2))/d in lowest terms (d > 0, gcd(a, b, d) = 1), and arithmetic,
comparisons and hashes run on them with no ``Fraction``: the sign of
p + q*sqrt(2) is the sign of p*|p| + 2*q*|q|, and a rational Scalar hashes
as the equal int or ``Fraction`` does, so both are exact and agree with
Python's rationals.

sqrt(2) is the witness irrational: an endpoint pair with irrational ratio is
realized exactly as, say, (1, sqrt(2)).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]

_MODULUS = sys.hash_info.modulus


def _sign(p: int, q: int) -> int:
    """The sign of p + q*sqrt(2) for ints p and q."""
    v = p * abs(p) + 2 * q * abs(q)
    return (v > 0) - (v < 0)


def _parts(x: ScalarLike) -> tuple:
    """(a, b, d) of a Scalar, or of an int or Fraction as (a + 0*sqrt2)/d."""
    return x._abd if isinstance(x, Scalar) else (x.numerator, 0, x.denominator)


def _reduced(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*sqrt2)/d, d > 0, divided by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        a, b, d = a // g, b // g, d // g
    s = _new(Scalar)
    _set_abd(s, (a, b, d))
    return s


@total_ordering
class Scalar:
    """p + q*sqrt(2) with exact rational parts, held as (a + b*sqrt2)/d."""

    __slots__ = ("_abd",)

    def __new__(cls, p: RationalLike = 0, q: RationalLike = 0) -> "Scalar":
        return Scalar.of(p) + Scalar.sqrt2(q)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):  # copy and pickle rebuild from the parts
        return _reduced, self._abd

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        return value if isinstance(value, Scalar) else _reduced(*_parts(value))

    @staticmethod
    def sqrt2(coeff: RationalLike = 1) -> "Scalar":
        return _reduced(0, coeff.numerator, coeff.denominator)

    p = property(lambda self: Fraction(self._abd[0], self._abd[2]))
    q = property(lambda self: Fraction(self._abd[1], self._abd[2]))

    @property
    def parts(self) -> tuple:
        """(p, q), as ints when d = 1: they order as (p, q) do, with no Fraction."""
        a, b, d = self._abd
        return (a, b) if d == 1 else (self.p, self.q)

    @property
    def is_rational(self) -> bool:
        return not self._abd[1]

    def sign(self) -> int:
        return _sign(*self._abd[:2])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        (a, b, d), (e, f, g) = self._abd, _parts(other)
        return _reduced(a * g + e * d, b * g + f * d, d * g)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        (a, b, d), (e, f, g) = self._abd, _parts(other)
        return _reduced(a * g - e * d, b * g - f * d, d * g)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        a, b, d = self._abd
        return _reduced(-a, -b, d)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        (a, b, d), (e, f, g) = self._abd, _parts(other)
        return _reduced(a * e + 2 * b * f, a * f + b * e, d * g)

    __rmul__ = __mul__

    def __truediv__(self, divisor: RationalLike) -> "Scalar":
        (a, b, d), n, m = self._abd, divisor.numerator, divisor.denominator
        if not n:
            raise ZeroDivisionError("Scalar division by zero")
        k = m if n > 0 else -m
        return _reduced(a * k, b * k, d * abs(n))

    # -- order --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        try:
            return self._abd == _parts(other)
        except AttributeError:
            return NotImplemented

    def __lt__(self, other: ScalarLike) -> bool:
        (a, b, d), (e, f, g) = self._abd, _parts(other)
        return _sign(a * g - e * d, b * g - f * d) < 0

    def __hash__(self) -> int:  # a rational hashes as its int or Fraction
        a, b, d = self._abd
        if b or d == 1:
            return hash(self._abd if b else a)
        h = abs(a) * pow(d, -1, _MODULUS) % _MODULUS if d % _MODULUS else sys.hash_info.inf
        return h if a >= 0 else -h

    def __bool__(self) -> bool:
        return bool(self._abd[0] or self._abd[1])

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        p, q = self.p, self.q
        if q == 0:
            return str(p)
        rad = "sqrt2" if abs(q) == 1 else f"{abs(q)}*sqrt2"
        if p == 0:
            return rad if q > 0 else f"-{rad}"
        return f"{p}{'+' if q > 0 else '-'}{rad}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


_new, _set_abd = object.__new__, Scalar._abd.__set__
ZERO = Scalar()
ONE = Scalar.of(1)
