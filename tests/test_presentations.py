import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellfold
import minkring.geometry as geo
import minkring.simplefn as sf
from minkring.cli import parse_poly, ring_from_selector
from minkring.laurent import LaurentPoly, monomial
from minkring.products import product_presentation
from minkring.presentations import (NonInvertibleError, Presentation,
                                    PrincipalShape, WitnessError, box_ring,
                                    classify_principal,
                                    coxeter_nonredundancy_witnesses,
                                    coxeter_ring, interval_ring,
                                    minimality_witness, point_ring)
from minkring.scalars import Scalar

SQRT2 = Scalar.sqrt2()


def decl_texts(pres):
    return [g.to_text() for g in pres.declared]


# -- interval rings ----------------------------------------------------------


def test_interval_ring_case_zero_endpoint():
    ring = interval_ring(0, 2)
    assert decl_texts(ring) == ["y^2 - x*y - y + x"]
    assert ring.names() == ("x", "y")
    ring_neg = interval_ring(-3, 0)
    assert decl_texts(ring_neg) == ["y^2 - x*y - y + x"]


def test_interval_ring_case_irrational():
    ring = interval_ring(1, SQRT2)
    assert decl_texts(ring) == ["z^2 - y*z - x*z + x*y"]


def test_interval_ring_case_rational_same_sign():
    ring = interval_ring(1, 2)
    assert parse_poly("y - x^2") in ring.declared
    ring2 = interval_ring(-2, -1)
    assert parse_poly("y^2 - x") in ring2.declared


def test_interval_ring_case_opposite_signs():
    ring = interval_ring(-1, 2)
    assert parse_poly("x^2*y - 1") in ring.declared


def test_interval_ring_rejects_degenerate():
    with pytest.raises(ValueError):
        interval_ring(1, 1)


def test_interval_xyz_naming():
    ring = interval_ring(0, 2, naming="xyz")
    assert ring.names() == ("x", "y", "z")
    assert parse_poly("x - 1") in ring.declared
    assert ring.kernel_member(parse_poly("(z - x)*(z - y)"))


def test_irrational_points_all_distinct():
    ring = interval_ring(1, SQRT2)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    if (i, j) == (k, l):
                        continue
                    diff = LaurentPoly.term({"x": i, "y": j}) - \
                        LaurentPoly.term({"x": k, "y": l})
                    assert not ring.kernel_member(diff)


@pytest.mark.parametrize("alpha,beta,step", [
    (1, 2, (2, -1)), (-1, 2, (2, 1)),
    # both ends irrational: the ratio is rational all the same
    (SQRT2, 2 * SQRT2, (2, -1)), (1 + SQRT2, 2 + 2 * SQRT2, (2, -1)),
    (-SQRT2, 2 * SQRT2, (2, 1)), (-2 * SQRT2, SQRT2, (1, 2))])
def test_rational_lattice_relations(alpha, beta, step):
    # x^i y^j - x^k y^l is in the kernel exactly when (k, l) - (i, j) is an
    # integer multiple of the predicted step
    ring = interval_ring(alpha, beta, mode="laurent")
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    diff = LaurentPoly.term({"x": i, "y": j}) - \
                        LaurentPoly.term({"x": k, "y": l})
                    dk, dl = k - i, l - j
                    expected = dk * step[1] == dl * step[0] and \
                        (dk % step[0] == 0 if step[0] else dk == 0)
                    assert ring.kernel_member(diff) == expected


def test_line_member_path_builds_no_fraction():
    # Line keys and offsets are Scalars on int parts, and the member test
    # sums int deltas: once the shape images are cached, no Fraction is made.
    ring = interval_ring(1, SQRT2, mode="laurent")
    z, x, y = (LaurentPoly.var(n) for n in "zxy")
    f = (z - x) ** 20 * (z - y)
    assert ring.kernel_member(f)
    made = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            made.append((frame.f_back.f_code.co_name, frame.f_back.f_lineno))

    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        member = ring.kernel_member(f)
    finally:
        sys.setprofile(previous)
    assert member and made == []


# -- box rings ----------------------------------------------------------------


def test_box_ring_basics():
    b1 = box_ring(1)
    assert b1.names() == ("x", "y")
    assert decl_texts(b1) == ["y^2 - x*y - y + x"]
    b2 = box_ring(2, signed=True)
    assert len(b2.declared) == 2


def test_catalog_rings_are_built_once_however_their_arguments_are_spelled():
    from minkring.cli import ring_from_selector
    from minkring.rewriting import edge_tiling_ring
    assert ring_from_selector("interval:1,2") is interval_ring(1, 2)
    assert interval_ring(1, 2) is interval_ring(Scalar.of(1), Fraction(2), "polynomial")
    assert ring_from_selector("interval:1,sqrt2:laurent:xyz") is \
        interval_ring(1, SQRT2, mode="laurent", naming="xyz")
    assert box_ring(1) is box_ring(1, signed=False) is box_ring(1, False) is \
        edge_tiling_ring("y")
    assert ring_from_selector("box:2:signed") is box_ring(2, signed=True)


def test_signed_box_inverse_identity():
    ring = box_ring(1, signed=True)
    ident = parse_poly("y^-1 - 1 - x^-1 + x^-1*y")
    assert ring.kernel_member(ident)
    # phi(y^-1) is minus the reflected open unit segment
    img = ring.phi(LaurentPoly.var("y", -1))
    assert img == -1 * sf.indicator(geo.box((-1,), (0,)), "interior")


def test_polynomial_mode_rejects_negative_exponents():
    ring = box_ring(1)
    with pytest.raises(NonInvertibleError):
        ring.phi(LaurentPoly.var("y", -1))


# -- the triangular-grid ring --------------------------------------------------


def test_coxeter_generator_images():
    ring = coxeter_ring()
    assert ring.phi(LaurentPoly.var("z")) == sf.indicator(geo.unit_triangle())
    assert ring.phi(LaurentPoly.var("y3")) == sf.indicator(
        geo.grid_set(0, 1, 0, 1, 1, 1))
    assert ring.phi(LaurentPoly.const(1)) == sf.unit(geo.GRID)
    inv = ring.phi(LaurentPoly.var("z", -1))
    assert inv.terms == {geo.GridTriDown(-1, -1): 1}


def test_coxeter_kernel_examples():
    ring = coxeter_ring()
    assert ring.kernel_member(parse_poly("(y1 - 1)*(y1 - x1)"))
    assert ring.kernel_member(parse_poly("(z - 1)*(z - x1)*(z - x2)"))
    assert not ring.kernel_member(parse_poly("x1"))
    point, value = ring.kernel_witness(parse_poly("x1"))
    assert point == (1, 0) and value == 1


def test_down_triangle_identity():
    ring = coxeter_ring()
    lhs = parse_poly("x1*x2*z^-1 + x2*y1 + x1*y2 + y3 - x1 - x2 - x1*x2")
    rhs = parse_poly("z^2 - (z - y3) - x1*(z - y2) - x2*(z - y1)")
    assert ring.kernel_member(lhs - rhs)


def test_unit_rhombus_identity():
    # y1*y2 is the unit rhombus: its traversal polynomial has
    # N = 2, m1 = m2 = 1, m3 = 0, n1 = n2 = 1
    ring = coxeter_ring()
    assert ring.kernel_member(parse_poly("y1*y2 - (z^2 - x1*(z - y2) - x2*(z - y1))"))
    # the square of the edge pair is the side-2 rhombus
    assert ring.kernel_member(parse_poly(
        "y1^2*y2^2 - (z^4 - x1^2*(z^2 - y2^2) - x2^2*(z^2 - y1^2))"))


# -- minimality witnesses -----------------------------------------------------


def test_all_nonredundancy_witnesses_pass():
    ring = coxeter_ring()
    witnesses = coxeter_nonredundancy_witnesses()
    assert [idx for idx, _ in witnesses] == list(range(9))
    full = sum(1 for _, w in witnesses if len(w) == 6)
    assert full == 6
    for idx, assignment in witnesses:
        assert minimality_witness(ring, idx, assignment)


def test_witness_failures_and_errors():
    ring = coxeter_ring()
    # all-ones kills every generator including the target: not a witness
    assert not minimality_witness(ring, 0, {n: 1 for n in ring.names()})
    with pytest.raises(WitnessError):
        minimality_witness(ring, 3, {"z": 2, "y1": 2, "y2": 2, "x1": 2})
    with pytest.raises(IndexError):
        minimality_witness(ring, 99, {})


# -- principal classification --------------------------------------------------


def test_classify_principal():
    assert classify_principal(PrincipalShape.EMPTY).text() == "x"
    assert classify_principal(PrincipalShape.ORIGIN).text() == "x - 1"
    assert classify_principal(PrincipalShape.SELF_SIMILAR).text() == "x^2 - x"
    assert classify_principal(PrincipalShape.BOUNDED).text() == "0"
    assert classify_principal(PrincipalShape.EMPTY, "laurent").whole_ring
    assert classify_principal(PrincipalShape.ORIGIN, "laurent").text() == "x - 1"
    assert classify_principal(PrincipalShape.SELF_SIMILAR, "laurent").text() == "x - 1"
    assert classify_principal(PrincipalShape.BOUNDED, "laurent").text() == "0"


# -- ring-level properties ------------------------------------------------------


def _random_poly(rng, names, laurent=True, terms=3):
    lo = -2 if laurent else 0
    out = LaurentPoly.zero()
    for _ in range(rng.randint(1, terms)):
        exps = {n: rng.randint(lo, 2) for n in rng.sample(list(names), rng.randint(0, 2))}
        out = out + LaurentPoly.term(exps, rng.randint(-3, 3))
    return out


def test_phi_is_a_ring_homomorphism(rng):
    ring = coxeter_ring()
    for _ in range(8):
        f = _random_poly(rng, ring.names())
        g = _random_poly(rng, ring.names())
        assert ring.phi(f * g) == sf.multiply(ring.phi(f), ring.phi(g))


def test_ideal_elements_vanish_at_all_ones(rng):
    ring = coxeter_ring()
    ones = {n: Fraction(1) for n in ring.names()}
    for k in range(100):
        f = sum((_random_poly(rng, ring.names()) * rng.choice(ring.declared)
                 for _ in range(rng.randint(1, 3))), LaurentPoly.zero())
        assert f.substitute(ones).is_zero()
        if k < 20:
            assert ring.kernel_member(f)


def test_power_closure_sample():
    ring = coxeter_ring()
    for g in ring.declared[:4]:
        for i in (-2, -1, 2, 3):
            assert ring.kernel_member(g.power_map(i))


def test_point_ring_and_document():
    ring = point_ring()
    assert ring.kernel_member(LaurentPoly.var("u") - 1)
    doc = coxeter_ring().document()
    assert doc.splitlines()[0] == "minkring-presentation v1"
    assert "generator: z -> grid[u:0..1, v:0..1, s:0..1] (invertible)" in doc


# -- monomial images against the factor-by-factor product ----------------------


DIFFERENTIAL_RINGS = {
    "coxeter": coxeter_ring,
    "box:2:signed": lambda: box_ring(2, signed=True),
    "box:3:signed": lambda: box_ring(3, signed=True),
    "interval:1,2:laurent": lambda: interval_ring(1, 2, mode="laurent"),
    "interval:1,sqrt2:laurent": lambda: interval_ring(1, SQRT2, mode="laurent"),
    "interval:-1,sqrt2:laurent": lambda: interval_ring(-1, SQRT2, mode="laurent"),
    "product:box:1:signed,coxeter": lambda: product_presentation(
        box_ring(1, signed=True), coxeter_ring()).combined,
}


def _factor_chain_image(ring, m) -> sf.SimpleFunction:
    """Reference image of a monomial: one ring product per factor, each
    factor the closed indicator of kP or (-1)^d times the open -kP."""
    fn = ring.unit()
    for name, exp in m:
        dilated = geo.scale(ring.generators[name].polytope, abs(exp))
        if exp > 0:
            factor = sf.indicator(dilated)
        else:
            factor = (-1) ** geo.dim(dilated) * sf.indicator(
                geo.negate(dilated), "interior")
        fn = sf.multiply(fn, factor)
    return fn


@pytest.mark.parametrize("ring_id", sorted(DIFFERENTIAL_RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_phi_monomial_matches_factor_chain(ring_id, data):
    ring = DIFFERENTIAL_RINGS[ring_id]()
    names = data.draw(st.lists(st.sampled_from(ring.names()), min_size=1,
                               max_size=3, unique=True))
    exps = data.draw(st.lists(st.integers(-3, 3), min_size=len(names),
                              max_size=len(names)))
    m = monomial(dict(zip(names, exps)))
    assert ring._phi_monomial(m) == _factor_chain_image(ring, m)
    if len(m) == 1:
        assert ring.generator_power(*m[0]) == ring._phi_monomial(m)


def test_phi_monomial_errors():
    with pytest.raises(NonInvertibleError):
        box_ring(2).generator_power("y1", -1)
    with pytest.raises(NonInvertibleError):
        interval_ring(1, 2).phi(parse_poly("x*z^-2"))
    ring = coxeter_ring()
    assert ring.generator_power("z", 0) == ring.unit()
    for m in ((("q", 1),), (("q", -1),), (("x1", 1), ("q", 2))):
        with pytest.raises(KeyError):
            ring._phi_monomial(m)
    with pytest.raises(KeyError):
        ring.generator_power("q", 0)


# -- phi over shapes and translations against unsplit monomial images --------


SPLIT_RINGS = {
    "coxeter": coxeter_ring,
    "box:2:signed": lambda: box_ring(2, signed=True),
    "interval:1,sqrt2:laurent": lambda: interval_ring(1, SQRT2, mode="laurent"),
    "interval:-1,sqrt2:laurent": lambda: interval_ring(-1, SQRT2, mode="laurent"),
    "product:box:1:signed,coxeter": lambda: product_presentation(
        box_ring(1, signed=True), coxeter_ring()).combined,
}


def _unsplit_image(ring, m) -> sf.SimpleFunction:
    """Image of a monomial with point generators treated like any other:
    every factor, points included, in one closed-basis product."""
    factors = []
    for name, exp in m:
        dilated = geo.scale(ring.generators[name].polytope, abs(exp))
        factors.append({dilated: 1} if exp > 0 else
                       {f: (-1) ** geo.dim(f) for f in geo.faces(geo.negate(dilated))})
    basis = {ring.ambient.origin(): 1}
    for factor in sorted(factors, key=len):
        basis = sf.closed_product(basis, factor)
    return sf.from_closed(ring.ambient, basis)


def _point_names(ring):
    return [n for n in ring.names() if geo.dim(ring.generators[n].polytope) == 0]


@pytest.mark.parametrize("ring_id", sorted(SPLIT_RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_phi_matches_unsplit_monomial_images(ring_id, data):
    ring = SPLIT_RINGS[ring_id]()
    points = _point_names(ring)
    shapes = [n for n in ring.names() if n not in points]
    exps = st.integers(-3, 3)
    # few shapes under many translations, and terms that may cancel
    terms = data.draw(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(shapes), st.integers(-2, 2), max_size=2),
        st.dictionaries(st.sampled_from(points), exps, min_size=1, max_size=2),
        st.integers(-3, 3)), min_size=1, max_size=6))
    coeffs: dict = {}
    for shape, moves, c in terms:
        m = monomial({**shape, **moves})
        coeffs[m] = coeffs.get(m, 0) + c
    f = LaurentPoly(coeffs)
    if f.is_zero():
        expected = sf.zero(ring.ambient)
    else:
        expected = sf.combine(list(f.terms.values()),
                              [_unsplit_image(ring, m) for m in f.terms])
    fresh = Presentation(ring.ring_id, ring.mode, list(ring.generators.values()))
    assert fresh.phi(f) == expected
    assert ring.phi(f) == expected
    for m in f.terms:
        assert fresh._phi_monomial(m) == _unsplit_image(ring, m)


def test_images_are_cached_per_shape():
    ring = coxeter_ring()
    fresh = Presentation("coxeter", "laurent", list(ring.generators.values()))
    f = parse_poly("z + x1*z + x2^-2*z - x1^3*x2*z + y1*x1^-1 + y1*x2^4 + x1 - x2^-1")
    split, splits = fresh._split, []
    fresh._split = lambda m: splits.append(m) or split(m)
    assert fresh.phi(f) == ring.phi(f)
    assert set(fresh._mono_cache) == {(("z", 1),), (("y1", 1),), ()}
    assert splits == list(f.terms)  # each monomial is split once


def test_negative_point_powers_need_laurent_mode():
    for ring, text in ((interval_ring(1, 2), "x^-1*z"), (interval_ring(0, 3), "x^-2"),
                       (box_ring(2), "x1^-1*y2"), (box_ring(1), "x^-1")):
        with pytest.raises(NonInvertibleError):
            ring.phi(parse_poly(text))
    ring = box_ring(1, signed=True)
    assert ring.phi(parse_poly("x^-1")) == sf.indicator(geo.box_point((-1,)))


@pytest.mark.parametrize("ring_id", sorted(SPLIT_RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_phi_with_rational_coefficients_matches_unsplit_images(ring_id, data):
    ring = SPLIT_RINGS[ring_id]()
    exps = st.dictionaries(st.sampled_from(ring.names()), st.integers(-2, 2), max_size=3)
    rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    terms = data.draw(st.lists(st.tuples(exps, rationals), min_size=1, max_size=5))
    # a term and its negation cancel in f; a declared relation times a
    # monomial cancels in the image, cell by cell
    terms += [(m, -c) for m, c in data.draw(st.lists(st.sampled_from(terms), max_size=2))]
    f = LaurentPoly({})
    for m, c in terms:
        f = f + LaurentPoly.term(m, c)
    if ring.declared and data.draw(st.booleans()):
        relation = data.draw(st.sampled_from(ring.declared))
        f = f + LaurentPoly.term(data.draw(exps), data.draw(rationals)) * relation
    if f.is_zero():
        expected = sf.zero(ring.ambient)
    else:
        expected = sf.combine(list(f.terms.values()),
                              [_unsplit_image(ring, m) for m in f.terms])
    image = ring.phi(f)
    assert image == expected
    assert all(type(q) is Fraction and q for q in image.terms.values())
    name, exp = data.draw(st.sampled_from(ring.names())), data.draw(st.integers(-3, 3))
    power = ring.generator_power(name, exp)
    assert all(type(q) is Fraction and q for q in power.terms.values())
    witness = ring.kernel_witness(f)
    assert (witness is None) == sf.is_zero(expected)
    if witness is not None:
        assert type(witness[1]) is Fraction
        assert witness[1] == sf.evaluate_at(expected, witness[0]) != 0
        first = min(image.terms, key=lambda c: c.sort_key())
        assert witness == (first.representative(), image.terms[first])


# -- the packed-key image path against the cell fold it replaced -------------


RUN_RINGS = {
    "coxeter": coxeter_ring,
    "box:2": lambda: box_ring(2),
    "box:3:signed": lambda: box_ring(3, signed=True),
    "interval:1,sqrt2:laurent": lambda: interval_ring(1, SQRT2, mode="laurent"),
    "interval:-1,2": lambda: interval_ring(-1, 2),
    "interval:0,1": lambda: interval_ring(0, 1),
    "product:d1,d2": lambda: product_presentation(box_ring(1, signed=True),
                                                  coxeter_ring()).combined,
    "product:d2,d2": lambda: product_presentation(coxeter_ring(), coxeter_ring()).combined,
}


def _scaled(point, exp):
    """exp * point, for a coordinate tuple or a scalar of the line."""
    return tuple(exp * a for a in point) if isinstance(point, tuple) else exp * point


def _cell_fold(ring, f) -> tuple:
    """(nonzero int weight per cell, D): the image of D * f as the image
    path folded it before packed keys.  Each term's shape image is its
    closed basis decomposed into cells, moved cell by cell with Cell.shift,
    and the int weights are summed per cell; line cells are then
    canonicalised by the breakpoint sweep of tests/cellfold.py."""
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    acc: dict = {}
    for m, c in f.terms.items():
        shape, points, _ = ring._split(m)
        image = _unsplit_image(ring, shape)
        for cell, q in image.terms.items():
            for name, exp in points:  # each point factor moves the cell in turn
                cell = cell.shift(_scaled(geo.vertex_coords(ring.generators[name].polytope),
                                          exp))
            acc[cell] = acc.get(cell, 0) + c.numerator * (den // c.denominator) * q
    return cellfold.canonical(ring.ambient, acc), den


@pytest.mark.parametrize("ring_id", sorted(RUN_RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_run_path_matches_the_cell_fold(ring_id, data):
    ring = RUN_RINGS[ring_id]()
    low = -2 if ring.mode == "laurent" else 0
    exps = st.dictionaries(st.sampled_from(ring.names()), st.integers(low, 2), max_size=3)
    coeffs = st.one_of(st.integers(-3, 3).filter(bool),
                       st.builds(Fraction, st.integers(-6, 6).filter(bool),
                                 st.integers(2, 6)))
    f = LaurentPoly({})
    for m, c in data.draw(st.lists(st.tuples(exps, coeffs), max_size=3)):
        f = f + LaurentPoly.term(m, c)
    if data.draw(st.booleans()):  # a member: an ideal element
        f = f * data.draw(st.sampled_from(ring.declared))
        if data.draw(st.booleans()):  # ... and a non-member
            f = f + LaurentPoly.term(data.draw(exps), data.draw(coeffs))
    points = _point_names(ring)
    if data.draw(st.booleans()):  # a translation beyond 2^64
        far = data.draw(st.sampled_from(((1 << 31) - 1, (1 << 63) - 2, 1 << 64,
                                         (1 << 64) + 3, 1 << 70, 3 ** 50)))
        sign = data.draw(st.sampled_from((1, -1))) if ring.mode == "laurent" else 1
        f = f * LaurentPoly.term({data.draw(st.sampled_from(points)): sign * far})
    terms, den = _cell_fold(ring, f)
    assert ring.kernel_member(f) == (not terms)
    if terms:
        first = min(terms, key=lambda c: c.sort_key())
        assert ring.kernel_witness(f) == (first.representative(),
                                          Fraction(terms[first], den))
    else:
        assert ring.kernel_witness(f) is None
    image = ring.phi(f)
    assert image.terms == {cell: Fraction(v, den) for cell, v in terms.items()}
    assert all(type(q) is Fraction for q in image.terms.values())


# -- many terms on few shapes: one fold per shape, moves packed once per width --


IMAGE_RINGS = {
    "coxeter": coxeter_ring,
    **{f"box:{d}": (lambda d=d: box_ring(d)) for d in range(1, 5)},
    **{f"box:{d}:signed": (lambda d=d: box_ring(d, signed=True)) for d in range(1, 5)},
    "product:d1,d2": lambda: product_presentation(box_ring(1, signed=True),
                                                  coxeter_ring()).combined,
    "interval:-1,2:laurent": lambda: interval_ring(-1, 2, mode="laurent"),
    "interval:0,3/2": lambda: interval_ring(0, Fraction(3, 2)),
    "interval:1,sqrt2:laurent": lambda: interval_ring(1, SQRT2, mode="laurent"),
    "interval:-1,sqrt2": lambda: interval_ring(-1, SQRT2),
}
# point exponents whose moves need key fields wider than 32 and 64 bits
FAR = ((1 << 31) - 1, 1 << 31, 1 << 32, (1 << 63) + 5, 3 ** 45)


@pytest.mark.parametrize("ring_id", sorted(IMAGE_RINGS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_many_term_images_match_per_monomial_images_and_the_cell_fold(ring_id, data):
    ring = IMAGE_RINGS[ring_id]()
    points = _point_names(ring)
    shape_names = [n for n in ring.names() if n not in points]
    low = -2 if ring.mode == "laurent" else 0
    point_exp = st.integers(low, 3) | st.builds(
        lambda e, s: e * s, st.sampled_from(FAR), st.sampled_from((1, -1) if low else (1,)))
    shapes = data.draw(st.lists(st.dictionaries(st.sampled_from(shape_names),
                                                st.integers(low, 2), max_size=2),
                                min_size=1, max_size=3))
    coeffs = st.integers(-3, 3).filter(bool) | st.builds(
        Fraction, st.integers(-6, 6).filter(bool), st.integers(2, 6))
    # many terms on these few shapes, each moved by its own point factors
    f = LaurentPoly({})
    for _ in range(data.draw(st.integers(1, 12))):
        moves = data.draw(st.dictionaries(st.sampled_from(points), point_exp, max_size=2))
        f = f + LaurentPoly.term({**data.draw(st.sampled_from(shapes)), **moves},
                                 data.draw(coeffs))
    if data.draw(st.booleans()):  # a member: an ideal element
        f = f * data.draw(st.sampled_from(ring.declared))
    fresh = Presentation(ring.ring_id, ring.mode, list(ring.generators.values()))
    image = fresh.phi(f)
    assert image == ring.phi(f)
    assert image == (sf.combine(list(f.terms.values()), [fresh._phi_monomial(m) for m in f.terms])
                     if f.terms else sf.zero(ring.ambient))
    terms, den = _cell_fold(ring, f)
    assert image.terms == {cell: Fraction(v, den) for cell, v in terms.items()}
    assert fresh.kernel_member(f) == (not terms)
    if terms:
        first = min(terms, key=lambda c: c.sort_key())
        assert fresh.kernel_witness(f) == (first.representative(), Fraction(terms[first], den))
    else:
        assert fresh.kernel_witness(f) is None


# -- product and box rings decided factor by factor, against the combined path --


TENSOR_RINGS = {
    **{f"box:{d}": (lambda d=d: box_ring(d)) for d in (2, 3, 4)},
    **{f"box:{d}:signed": (lambda d=d: box_ring(d, signed=True)) for d in (2, 3, 4)},
    **{f"product:{a},{b}": (lambda a=a, b=b: product_presentation(
        TENSOR_PARTS[a](), TENSOR_PARTS[b]()).combined)
       for a, b in (("d1", "d1"), ("d1", "d2"), ("d2", "d2"), ("d2", "point"),
                    ("box:2:signed", "d1"))},
}
TENSOR_PARTS = {"d1": lambda: box_ring(1, signed=True), "d2": coxeter_ring,
                "point": point_ring, "box:2:signed": lambda: box_ring(2, signed=True)}


def _combined(ring) -> Presentation:
    """The same ring without its tensor factors: the combined-arrangement path."""
    return Presentation(ring.ring_id, ring.mode, list(ring.generators.values()))


@pytest.mark.parametrize("ring_id", sorted(TENSOR_RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_factor_by_factor_membership_matches_the_combined_path(ring_id, data):
    ring = TENSOR_RINGS[ring_id]()
    first = sorted(ring.tensor[0][1])
    rest = [n for n in ring.names() if n not in first]
    low = -2 if ring.mode == "laurent" else 0
    coeffs = st.integers(-3, 3).filter(bool) | st.builds(
        Fraction, st.integers(-6, 6).filter(bool), st.integers(2, 6))

    def poly(names, max_size=3):
        return sum((LaurentPoly.term(e, c) for e, c in data.draw(st.lists(st.tuples(
            st.dictionaries(st.sampled_from(names), st.integers(low, 2), max_size=2),
            coeffs), min_size=1, max_size=max_size))), LaurentPoly.zero())

    def step(names):  # a difference of two monomials: 0 at (1, ..., 1)
        exps = st.dictionaries(st.sampled_from(names), st.integers(low, 2), max_size=2)
        return LaurentPoly.term(data.draw(exps)) - LaurentPoly.term(data.draw(exps))

    # f = sum of rank-one terms A_j (x) B_j, most with a factor in the kernel: a
    # member when all of them have one, or when the others cancel.  The rest
    # vanish at (1, ..., 1) too, so the factors, not the coefficient sum, decide.
    f = LaurentPoly.zero()
    for _ in range(data.draw(st.integers(1, 5))):
        a, b = poly(first), poly(rest)
        if data.draw(st.sampled_from((True, True, False))):
            relation = data.draw(st.sampled_from(ring.declared))
            a = a * relation if relation.names() <= set(first) else a
            b = b * relation if relation.names() <= set(rest) else b
        else:
            b = b * step(rest)
        f = f + a * b
    if data.draw(st.booleans()):  # a lone monomial, or a cancelling term
        f = f + poly(ring.names(), 1)
    combined = _combined(ring)
    assert ring.kernel_member(f) == (not combined._image_ints(f)[0])
    assert ring.kernel_witness(f) == combined.kernel_witness(f)


def test_tensor_factor_errors_match_the_combined_path():
    term = LaurentPoly.term
    cases = {  # selector -> polynomials whose first bad factor raises
        "box:3": [term({"x1": 1}) + term({"q": 1}), term({"q": 2, "x1": 1}),
                  term({"y3": -1}) + term({"q": 1}), term({"q": 1}) + term({"x1": 1, "y2": -2}),
                  term({"y1": 2, "x3": -1}), term({"y2": 1, "zz": -1})],
        "product:d1,d2": [term({"x": 1}) + term({"q": 1}), term({"z_r": -1, "q": 2}),
                          term({"x1": 1})],
    }
    plain = product_presentation(box_ring(1), box_ring(1)).combined
    rings = [(ring_from_selector(sel), polys) for sel, polys in cases.items()]
    rings.append((plain, [term({"x": 1, "y_r": -1}), term({"x_r": 1, "q": 1})]))
    for ring, polys in rings:
        assert ring.tensor
        combined = _combined(ring)
        for f in polys:
            for call in ("kernel_member", "kernel_witness"):
                with pytest.raises((KeyError, NonInvertibleError)) as expected:
                    getattr(combined, call)(f)
                with pytest.raises(expected.type) as got:
                    getattr(ring, call)(f)
                assert got.type is expected.type and str(got.value) == str(expected.value)
    with pytest.raises(KeyError, match="unknown generator 'q' in ring box:3"):
        box_ring(3).kernel_member(cases["box:3"][0])
    with pytest.raises(NonInvertibleError, match="non-invertible generator 'y3'"):
        box_ring(3).kernel_member(cases["box:3"][2])


def test_box_members_make_no_image_on_the_combined_ring(monkeypatch):
    folded = []
    images = Presentation._images
    monkeypatch.setattr(Presentation, "_images",
                        lambda self, polys: folded.append(self.ring_id) or images(self, polys))
    ring = box_ring(3)
    assert ring.kernel_member(parse_poly("(y1^2 - 1)*(y1^2 - x1^2)*y2^3*y3^2*x2 + x3*y2 - y2*x3"))
    assert ring.kernel_witness(parse_poly("(y2 - 1)*(y2 - x2)*(1 + y1 + y3^2)")) is None
    four = box_ring(4)
    Presentation(four.ring_id, four.mode, list(four.generators.values()), four.declared,
                 four.tensor)
    assert folded and set(folded) == {"box:1"}
    assert not ring.kernel_member(parse_poly("y1*y2*y3 - x1"))
    assert "box:3" not in folded
    assert ring.kernel_witness(parse_poly("y1*y2*y3 - x1")) is not None
    assert "box:3" in folded
