from fractions import Fraction

import pytest

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
