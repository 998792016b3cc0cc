import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkring.scalars import Scalar


def test_exact_ordering_against_floats():
    # 1 + sqrt2 ~ 2.414...: strictly between 12/5 and 29/12
    s = Scalar.of(1) + Scalar.sqrt2()
    assert Scalar.of(Fraction(12, 5)) < s < Scalar.of(Fraction(29, 12))
    assert not s < s
    assert s <= s


def test_sign_cases():
    assert Scalar.of(0).sign() == 0
    assert Scalar.sqrt2(-1).sign() == -1
    # 3 - 2*sqrt2 > 0 since 9 > 8
    assert (Scalar.of(3) - Scalar.sqrt2(2)).sign() == 1
    # 2 - 2*sqrt2 < 0 since 4 < 8
    assert (Scalar.of(2) - Scalar.sqrt2(2)).sign() == -1


def test_arithmetic_closure():
    a = Scalar(Fraction(1, 2), Fraction(3))
    b = Scalar(Fraction(-2), Fraction(1, 5))
    assert (a + b) - b == a
    assert a * 2 == a + a
    # (p + q sqrt2)(r + s sqrt2) stays in the field
    prod = a * b
    assert prod.p == Fraction(1, 2) * -2 + 2 * Fraction(3) * Fraction(1, 5)
    assert prod.q == Fraction(1, 2) * Fraction(1, 5) + Fraction(3) * -2
    assert (a / 2) * 2 == a


def test_rationality_and_coercion():
    assert Scalar.of(Fraction(7, 3)).is_rational
    assert not Scalar.sqrt2().is_rational
    assert Scalar.of(2) == 2


def test_formatting():
    assert str(Scalar.of(3)) == "3"
    assert str(Scalar.sqrt2()) == "sqrt2"
    assert str(Scalar.of(1) + Scalar.sqrt2()) == "1+sqrt2"
    assert str(Scalar.of(1) - Scalar.sqrt2(Fraction(1, 2))) == "1-1/2*sqrt2"
    assert str(-Scalar.sqrt2(2)) == "-2*sqrt2"


def test_hash_consistency():
    assert hash(Scalar.of(2)) == hash(Scalar(Fraction(2), Fraction(0)))
    seen = {Scalar.of(1), Scalar.of(1) + Scalar.sqrt2(0)}
    assert len(seen) == 1


def test_equal_scalars_built_differently_hash_equal():
    half = Fraction(1, 2)
    ways = [
        [Scalar.of(half), Scalar(Fraction(2, 4), Fraction(0)), Scalar.of(1) / 2,
         Scalar.of(Fraction(3, 2)) - 1, Scalar.of(Fraction(1, 4)) * 2],
        [Scalar.of(1), Scalar(1, 0), Scalar(Fraction(1), 0), Scalar.of(Fraction(5, 5)),
         Scalar.of(3) - Scalar.of(2)],
        [Scalar.sqrt2(), Scalar.sqrt2(3) - Scalar.sqrt2(2), Scalar(0, 1),
         Scalar.sqrt2(Fraction(1, 2)) * 2, Scalar.of(2) * Scalar.sqrt2(half)],
        [Scalar.of(0), Scalar(), Scalar.sqrt2(2) - Scalar.sqrt2(2), -Scalar.of(0)],
    ]
    for equal in ways:
        assert all(s == equal[0] for s in equal)
        assert len({hash(s) for s in equal}) == 1
    assert len({s for equal in ways for s in equal}) == len(ways)


def test_rational_scalars_hash_as_the_equal_rationals():
    assert len({Scalar.of(1), 1}) == 1
    assert len({Scalar.of(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert {Scalar.of(Fraction(-3, 4)): "x"}[Fraction(-3, 4)] == "x"
    m = sys.hash_info.modulus
    # -1 is reserved, so a hash that folds to it reads -2; a denominator the
    # modulus divides has no inverse and hashes as infinity.
    for r in (Fraction(-(m + 2), 2), Fraction(1, m), Fraction(-1, m), -1):
        assert hash(Scalar.of(r)) == hash(r)
    assert hash(Scalar.of(Fraction(-(m + 2), 2))) == -2


class Pair:
    """p + q*sqrt2 as two Fractions: the reference arithmetic, as Scalar
    computed it before it held int parts."""

    def __init__(self, p, q=0):
        self.p, self.q = Fraction(p), Fraction(q)

    def sign(self):
        sp, sq = (self.p > 0) - (self.p < 0), (self.q > 0) - (self.q < 0)
        if sq == 0:
            return sp
        if sp == 0:
            return sq
        if sp == sq:
            return sp
        return sp if self.p * self.p > 2 * self.q * self.q else sq

    def __add__(self, o):
        return Pair(self.p + o.p, self.q + o.q)

    def __sub__(self, o):
        return Pair(self.p - o.p, self.q - o.q)

    def __neg__(self):
        return Pair(-self.p, -self.q)

    def __mul__(self, o):
        return Pair(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)

    def __truediv__(self, r):
        return Pair(self.p / r, self.q / r)

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        rad = "sqrt2" if abs(self.q) == 1 else f"{abs(self.q)}*sqrt2"
        if self.p == 0:
            return rad if self.q > 0 else f"-{rad}"
        return f"{self.p}{'+' if self.q > 0 else '-'}{rad}"


# Small parts make equal values and near ties (p^2 close to 2 q^2) common.
rationals = st.one_of(st.integers(-12, 12),
                      st.fractions(-12, 12, max_denominator=6),
                      st.fractions(max_denominator=10**6))
pairs = st.builds(lambda p, q: (Scalar(p, q), Pair(p, q)), rationals, rationals)


def same(s: Scalar, ref: Pair) -> bool:
    """s equals ref part by part, and its int parts are in lowest terms."""
    a, b, d = s._abd
    assert d > 0 and math.gcd(a, b, d) == 1
    assert type(s.p) is Fraction and type(s.q) is Fraction
    return (s.p, s.q, s.is_rational, str(s)) == (ref.p, ref.q, ref.q == 0, str(ref))


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, rationals)
def test_int_parts_match_the_fraction_pair_arithmetic(x, y, r):
    (s, ref), (t, tref) = x, y
    assert same(s, ref) and same(-s, -ref)
    for op in (operator.add, operator.sub, operator.mul):
        assert same(op(s, t), op(ref, tref))
        assert same(op(s, r), op(ref, Pair(r))) and same(op(r, s), op(Pair(r), ref))
    if r:
        assert same(s / r, ref / r)
    else:
        with pytest.raises(ZeroDivisionError):
            s / r
    assert s.sign() == ref.sign()
    for other, oref in ((t, tref), (r, Pair(r)), (Fraction(r), Pair(r))):
        diff = (ref - oref).sign()
        assert (s < other, s <= other, s == other, s != other) == \
            (diff < 0, diff <= 0, diff == 0, diff != 0)
        assert (other < s, other <= s, other == s) == (diff > 0, diff >= 0, diff == 0)
        if s == other:
            assert hash(s) == hash(other)
    if s.is_rational:
        assert hash(s) == hash(ref.p) and s == ref.p and s == Scalar.of(ref.p)
