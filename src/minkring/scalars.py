"""Exact arithmetic in Q(sqrt(2)).

A :class:`Scalar` is a number p + q*sqrt(2) with rational p and q; it is the
coordinate domain for 1-D interval endpoints.  Comparisons are decided with
integer arithmetic only (the sign of p + q*sqrt(2) reduces to comparing p^2
against 2*q^2), so ordering and equality are exact.

sqrt(2) is the witness irrational: an endpoint pair with irrational ratio is
realized exactly as, say, (1, sqrt(2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]


def _sgn(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@total_ordering
@dataclass(frozen=True, eq=False)
class Scalar:
    """p + q*sqrt(2) with exact rational parts."""

    p: Fraction = Fraction(0)
    q: Fraction = Fraction(0)

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(Fraction(value), Fraction(0))

    @staticmethod
    def sqrt2(coeff: RationalLike = 1) -> "Scalar":
        return Scalar(Fraction(0), Fraction(coeff))

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def sign(self) -> int:
        sp, sq = _sgn(self.p), _sgn(self.q)
        if sq == 0:
            return sp
        if sp == 0:
            return sq
        if sp == sq:
            return sp
        # Opposite pulls: |p| vs |q|*sqrt(2) is decided by p^2 vs 2*q^2,
        # which are never equal for nonzero rationals.
        return sp if self.p * self.p > 2 * self.q * self.q else sq

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.p - o.p, self.q - o.q)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.p, -self.q)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def __truediv__(self, divisor: RationalLike) -> "Scalar":
        d = Fraction(divisor)
        return Scalar(self.p / d, self.q / d)

    # -- order --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        o = Scalar.of(other)
        return self.p == o.p and self.q == o.q

    def __lt__(self, other: ScalarLike) -> bool:
        return (self - Scalar.of(other)).sign() < 0

    def __hash__(self) -> int:  # ints in lowest terms: no Fraction.__hash__
        p, q = self.p, self.q
        return hash((p.numerator, p.denominator, q.numerator, q.denominator))

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        rad = "sqrt2" if abs(self.q) == 1 else f"{abs(self.q)}*sqrt2"
        if self.p == 0:
            return rad if self.q > 0 else f"-{rad}"
        return f"{self.p}{'+' if self.q > 0 else '-'}{rad}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar()
ONE = Scalar.of(1)
