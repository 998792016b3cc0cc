import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minkring
from minkring.cli import parse_poly
from minkring.laurent import (ArityError, LaurentPoly, mono_mul, monomial,
                              poly_sum, univariate_ideal_member)
from conftest import fold_by_copies, well_formed

X, Y, Z = LaurentPoly.var("x"), LaurentPoly.var("y"), LaurentPoly.var("z")
LIBRARY = os.path.join(os.path.dirname(os.path.abspath(minkring.__file__)), "")


def test_expansion_examples():
    assert (Z - X) * (Z - Y) == parse_poly("z^2 - x*z - y*z + x*y")
    # (y-1)(y-x) = y^2 - (1+x)y + x
    assert (Y - 1) * (Y - X) == parse_poly("y^2 - x*y - y + x")
    assert LaurentPoly.var("x") * LaurentPoly.var("x", -1) == LaurentPoly.const(1)


def test_power_map():
    f = (Y - 1) * (Y - X)
    assert f.power_map(2) == (LaurentPoly.var("y", 2) - 1) * (
        LaurentPoly.var("y", 2) - LaurentPoly.var("x", 2))
    assert f.power_map(1) == f
    g = (Z - X) * (Z - Y)
    zi, xi, yi = (LaurentPoly.var(n, -1) for n in "zxy")
    assert g.power_map(-1) == (zi - xi) * (zi - yi)
    # i = 0 collapses every generator to 1
    assert g.power_map(0) == LaurentPoly.zero()


def test_substitute():
    f = (Y - 1) * (Y - X)
    assert f.substitute({"y": 2, "x": 1}) == LaurentPoly.const(1)
    assert f.substitute({}) == f
    g = (Z - 1) * (Z - LaurentPoly.var("y3"))
    assert g.substitute({"z": 2}) == LaurentPoly.const(2) - LaurentPoly.var("y3")
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.var("x", -1).substitute({"x": 0})


def _floats_in_library_frames(run) -> list:
    """(function, line) of every moment a frame of the library holds a float
    in a local variable, directly or as an item of a list, tuple or dict,
    or returns one, while run() runs."""
    seen = []

    def has_float(v):
        items = (v.values() if isinstance(v, dict)
                 else v if isinstance(v, (list, tuple)) else (v,))
        return any(isinstance(x, float) for x in items)

    def local(frame, event, arg):
        if any(has_float(v) for v in frame.f_locals.values()) or \
                event == "return" and has_float(arg):
            seen.append((frame.f_code.co_name, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(LIBRARY) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def test_coefficients_stay_exact():
    def run():
        whole = parse_poly("1/2*x + 1/2*x")
        assert [(m, c, type(c)) for m, c in whole.terms.items()] == [((("x", 1),), 1, int)]
        power = parse_poly("(2*x)^-3")
        assert power == LaurentPoly.term({"x": -3}, Fraction(1, 8))
        assert [type(c) for c in power.terms.values()] == [Fraction]
        assert power.to_text() == "1/8*x^-3" == parse_poly(power.to_text()).to_text()
        t = LaurentPoly.var("t")
        assert univariate_ideal_member(2 * t - 1, [(2 * t - 1) * (3 * t + 1),
                                                   (2 * t - 1) * (t - 5)])
        assert not univariate_ideal_member(3 * t - 1, [(2 * t - 1) * (3 * t + 1)])

    assert _floats_in_library_frames(run) == []


def test_univariate_ideal_member():
    t = LaurentPoly.var("t")
    assert not univariate_ideal_member(2 - t, [(2 - t) * (2 - t)])
    assert univariate_ideal_member(LaurentPoly.zero(), [(2 - t) ** 2])
    assert univariate_ideal_member((t - 1) ** 2, [t - 1])
    # Laurent units: t^3 - t^2 = t^2 (t - 1) is in (t - 1)
    assert univariate_ideal_member(LaurentPoly.var("t", 3) - LaurentPoly.var("t", 2),
                                   [t - 1])
    # gcd across two generators
    assert univariate_ideal_member(t - 1, [(t - 1) * (t - 2), (t - 1) * (t - 3)])
    with pytest.raises(ArityError):
        univariate_ideal_member(X + Y, [X])


names = st.sampled_from(["x", "y", "z"])
exponents = st.integers(min_value=-3, max_value=3)
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    p = LaurentPoly.zero()
    for _ in range(n):
        exps = {draw(names): draw(exponents) for _ in range(draw(st.integers(0, 3)))}
        p = p + LaurentPoly.term(exps, draw(coeffs))
    return p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(min_value=-2, max_value=3))
def test_power_map_is_multiplicative(f, g, i):
    assert (f * g).power_map(i) == f.power_map(i) * g.power_map(i)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_ring_laws(f, g):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) - g == f


@settings(max_examples=60, deadline=None)
@given(polys(), polys(),
       st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool))
def test_substitute_commutes_with_arith(f, g, value):
    sub = {"x": value}
    assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)
    assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=6))
def test_print_parse_roundtrip(f):
    assert parse_poly(f.to_text()) == f
    assert parse_poly(parse_poly(f.to_text()).to_text()) == f


def test_canonical_order_deterministic():
    f = parse_poly("x + z^2 + y*z - 3")
    assert f.to_text() == "z^2 + y*z + x - 3"


# -- canonical monomials: the merge, the print order, the constructor ---------


monomials = st.dictionaries(st.sampled_from(["a", "x", "x1", "y", "y3", "z"]),
                            st.integers(-2, 2)).map(monomial)


@settings(max_examples=300, deadline=None)
@given(monomials, monomials)
def test_mono_mul_matches_dict_and_sort(a, b):
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    assert mono_mul(a, b) == monomial(exps) == mono_mul(b, a)
    inverse = tuple((name, -e) for name, e in a)  # every exponent cancels
    assert mono_mul(a, inverse) == () and mono_mul(mono_mul(a, b), inverse) == b


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=8))
def test_sorted_terms_matches_dense_vector_key(f):
    universe = sorted(f.names(), reverse=True)

    def key(item):
        exps = dict(item[0])
        return -sum(exps.values()), tuple(-exps.get(n, 0) for n in universe)

    assert f.sorted_terms() == sorted(f.terms.items(), key=key)


def test_constructor_makes_keys_canonical():
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    assert (LaurentPoly({(("y", 1), ("x", 1)): 1}) - x * y).is_zero()
    assert LaurentPoly({(("x", 0),): 2}) == 2
    assert list(LaurentPoly({(("y", 2), ("x", 0)): 2}).terms) == [(("y", 2),)]
    folded = LaurentPoly({(("y", 1), ("x", 1)): 1, (("x", 1), ("y", 1)): Fraction(1, 2),
                          (("x", 0),): 1, (): -1})
    assert folded.terms == {(("x", 1), ("y", 1)): Fraction(3, 2)}
    assert well_formed(folded)
    with pytest.raises(ValueError, match="names a generator twice"):
        LaurentPoly({(("x", 1), ("x", 2)): 1})
    with pytest.raises(TypeError, match="float"):
        LaurentPoly({(("x", 1),): 0.5})
    with pytest.raises(TypeError, match="float"):
        LaurentPoly.const(1.0)
    canonical = {(): Fraction(4, 2), (("x", -1), ("y", 2)): Fraction(1, 3)}
    assert LaurentPoly(canonical).terms == {(): 2, (("x", -1), ("y", 2)): Fraction(1, 3)}


# -- one-dict assembly against the running sum of copies ----------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(polys(), max_size=6), st.data())
def test_poly_sum_matches_running_sum(items, data):
    if items:  # negated copies of some items make terms cancel, often to zero
        items += [-p for p in data.draw(st.lists(st.sampled_from(items), max_size=4))]
    total = poly_sum(items)
    assert total == fold_by_copies(items) and well_formed(total)
    assert poly_sum(items + [-total]).is_zero()
    for f, g in zip(items, items[1:]):
        for result in (f + g, f - g, -f, f * g, 3 * f, f * 0, f ** 2, f.power_map(0),
                       Fraction(1, 2) * f + Fraction(1, 2) * f, f * Fraction(1, 3),
                       *([f ** -1] if f.is_monomial() else []),
                       f.substitute({"x": Fraction(1, 2)})):
            assert well_formed(result)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), polys(max_terms=1)), min_size=1,
                max_size=8), st.booleans())
def test_parse_poly_matches_running_sum(signed_terms, cancel):
    if cancel:  # every term again with the other sign
        signed_terms += [("-" if s == "+" else "+", t) for s, t in signed_terms]
    text = " ".join(f"{s} ({t.to_text()})" for s, t in signed_terms)
    parsed = parse_poly(text)
    assert parsed == fold_by_copies(t if s == "+" else -t for s, t in signed_terms)
    assert well_formed(parsed)
    assert parsed.is_zero() or not cancel
