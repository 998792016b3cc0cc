import itertools
import random
from fractions import Fraction

import pytest

import minkring.geometry as geo
import minkring.identities as ids
import minkring.simplefn as sf
from minkring.cli import parse_poly
from minkring.laurent import LaurentPoly
from minkring.presentations import _box_ring, coxeter_ring
from minkring.scalars import Scalar
from conftest import random_gridset, well_formed

TRI = geo.unit_triangle()
O = geo.grid_point_set(0, 0)
A = geo.grid_point_set(1, 0)
B = geo.grid_point_set(0, 1)
OA = geo.grid_set(0, 1, 0, 0, 0, 1)
OB = geo.grid_set(0, 0, 0, 1, 0, 1)
AB = geo.grid_set(0, 1, 0, 1, 1, 1)


def test_cover_spec_validation():
    ids.cover(TRI, [OA, B])
    ids.cover(TRI, [TRI])  # the polytope itself is allowed
    with pytest.raises(ValueError):
        ids.cover(TRI, [OA, OA])
    with pytest.raises(ValueError):
        ids.cover(TRI, [geo.grid_set(0, 2, 0, 0, 0, 2)])


def test_id_expand_examples():
    assert ids.id_expand(ids.cover(TRI, [OA, B])) == parse_poly("(z - y1)*(z - x2)")
    seg = geo.interval(1, 3)
    endpoints = [geo.line_point(1), geo.line_point(3)]
    assert ids.id_expand(ids.cover(seg, endpoints)) == parse_poly("(z - x)*(z - y)")
    assert ids.id_expand(ids.cover(TRI, [])) == LaurentPoly.const(1)
    assert ids.id_expand(ids.cover(TRI, [O, A, B])) == parse_poly(
        "(z - 1)*(z - x1)*(z - x2)")


def test_id_expand_box():
    square = geo.box((0, 0), (1, 1))
    corners = [geo.box_point(c) for c in ((0, 0), (1, 0), (0, 1), (1, 1))]
    poly = ids.id_expand(ids.cover(square, corners))
    expected = parse_poly(
        "(y1*y2 - 1)*(y1*y2 - x1)*(y1*y2 - x2)*(y1*y2 - x1*x2)")
    assert poly == expected


def test_covers_vertices():
    assert ids.covers_vertices(ids.cover(TRI, [OA, B]))
    assert not ids.covers_vertices(ids.cover(TRI, [OA]))
    square = geo.box((0, 0), (1, 1))
    bottom, top = geo.box((0, 0), (1, 0)), geo.box((0, 1), (1, 1))
    assert ids.covers_vertices(ids.cover(square, [bottom, top]))
    assert not ids.covers_vertices(ids.cover(square, [bottom]))


def test_id_holds_examples():
    assert ids.id_holds(ids.cover(TRI, [O, A, B]))
    assert not ids.id_holds(ids.cover(TRI, [AB]))
    square = geo.box((0, 0), (1, 1))
    corners = [geo.box_point(c) for c in ((0, 0), (1, 0), (0, 1), (1, 1))]
    assert ids.id_holds(ids.cover(square, corners))
    # degenerate: the polytope among the factors forces a zero product
    assert ids.id_holds(ids.cover(TRI, [TRI]))


def test_id_holds_matches_kernel_oracle():
    for faces in ([OA, B], [AB], [O, A, B], [OA, OB], [AB, OB]):
        spec = ids.cover(TRI, faces)
        pres, poly, _ = ids.id_context(spec)
        assert pres.kernel_member(poly) == ids.id_holds(spec)


def test_id_context_anchors_translated_polytopes():
    moved = geo.translate(TRI, (3, 5))
    spec = ids.cover(moved, [geo.translate(OA, (3, 5)), geo.translate(B, (3, 5))])
    pres, poly, offset = ids.id_context(spec)
    assert offset == (-3, -5)
    assert poly == parse_poly("(z - y1)*(z - x2)")
    assert ids.id_holds(spec)


def test_covers_relation():
    a = ids.cover(TRI, (OA, B))
    b = ids.cover(TRI, (O, A, B))
    assert ids.covers_relation(a, b)
    assert not ids.covers_relation(b, a)
    assert not ids.covers_relation(a, a)
    with pytest.raises(ids.AntichainError):
        ids.covers_relation(ids.cover(TRI, (TRI,)), a)
    with pytest.raises(ids.AntichainError):
        ids.covers_relation(ids.cover(TRI, (OA, A)), a)


def test_covers_relation_grows():
    pool = []
    proper = [f for f in geo.faces(TRI) if f != TRI]
    for r in range(1, len(proper) + 1):
        for combo in itertools.combinations(proper, r):
            if ids._is_antichain(combo):
                spec = ids.cover(TRI, combo)
                if ids.covers_vertices(spec):
                    pool.append(spec)
    for x in pool:
        for y in pool:
            if x is y:
                continue
            if ids.covers_relation(x, y):
                assert len(y.faces) >= len(x.faces)
                # implication: both identities hold for vertex covers
                assert ids.id_holds(x) and ids.id_holds(y)


def test_minimal_antichains_triangle():
    minimal = ids.minimal_antichains(TRI)
    got = {frozenset(spec.faces) for spec in minimal}
    assert got == {
        frozenset({O, AB}), frozenset({A, OB}), frozenset({B, OA}),
        frozenset({OA, OB}), frozenset({OA, AB}), frozenset({OB, AB}),
    }
    assert frozenset({O, A, B}) not in got


def test_minimal_antichains_interval():
    seg = geo.interval(0, 1)
    minimal = ids.minimal_antichains(seg)
    assert len(minimal) == 1
    assert set(minimal[0].faces) == {geo.line_point(0), geo.line_point(1)}


def test_minimal_antichains_bound():
    with pytest.raises(ValueError):
        ids.minimal_antichains(geo.box((0, 0, 0), (1, 1, 1)))


def _all_covers(p):
    pool = geo.faces(p)
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            yield ids.cover(p, combo)


def test_id_holds_matches_vertex_law_and_kernel_oracle():
    square = geo.box((0, 0), (1, 1))
    sample = random.Random(4).sample(list(_all_covers(square)), 40)
    specs = [*_all_covers(TRI), *sample,
             *_all_covers(geo.interval(1, 3)),
             *_all_covers(geo.interval(-1, Scalar.sqrt2())),
             *_all_covers(geo.line_point(2))]
    for spec in specs:
        holds = ids.id_holds(spec)
        assert holds == ids.covers_vertices(spec)
        pres, poly, _ = ids.id_context(spec)
        if pres is not None:
            assert pres.kernel_member(poly) == holds


def _fraction_holds(c):
    """The identity product on Fraction weights: from the Fraction unit,
    one round trip through the closed basis per face, no early exit."""
    p = c.polytope
    fn = sf.unit(p.ambient)
    for face in c.faces:
        diff = {p: 1}
        diff[face] = diff.get(face, 0) - 1
        fn = sf.from_closed(fn.ambient, sf.closed_product(sf._closed_basis(fn), diff))
        assert all(type(w) is Fraction for w in fn.terms.values())
    return sf.is_zero(fn)


def _check_both_orders(spec):
    """id_holds in forward and reversed face order against the Fraction
    oracle and the vertex law; the expansion is the product of the
    one-face expansions and keeps the trusted invariant."""
    expected = _fraction_holds(spec)
    assert expected == ids.covers_vertices(spec)
    flipped = ids.cover(spec.polytope, spec.faces[::-1])
    assert ids.id_holds(spec) == ids.id_holds(flipped) == expected
    product = ids.id_expand(spec)
    assert well_formed(product)
    assert product == ids.id_expand(flipped)
    factors = LaurentPoly.const(1)
    for f in spec.faces:
        factors = factors * ids.id_expand(ids.cover(spec.polytope, [f]))
    assert product == factors


def test_id_holds_matches_fraction_oracle_on_every_cover():
    for p in (TRI, geo.box((0, 0), (1, 1))):
        for spec in _all_covers(p):
            _check_both_orders(spec)


def test_id_holds_matches_fraction_oracle_on_lines_and_points():
    for p in (geo.interval(-1, Scalar.sqrt2()), geo.interval(Scalar.sqrt2(), 2),
              geo.line_point(2), geo.line_point(Scalar.sqrt2())):
        for spec in _all_covers(p):
            _check_both_orders(spec)


def test_id_holds_matches_fraction_oracle_on_random_faces(rng):
    cube = geo.box((0, 0, 0), (1, 1, 1))
    polytopes = [random_gridset(rng) for _ in range(8)] + [cube] * 4
    for p in polytopes:
        pool = geo.faces(p)
        for _ in range(3):
            faces = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            _check_both_orders(ids.cover(p, faces))


def test_lattice_covers_expand_no_cells(monkeypatch):
    """id_holds on every cover of the catalog triangle and square reads its
    products' keys and the cached shape images, built cold here: it lists
    no cell of an arrangement and no function's terms."""
    calls = []
    cells, terms = geo.Arrangement.cells, sf.SimpleFunction.terms
    monkeypatch.setattr(geo.Arrangement, "cells",
                        lambda self, *args: calls.append("cells") or cells(self, *args))
    monkeypatch.setattr(sf.SimpleFunction, "terms",
                        property(lambda fn: calls.append("terms") or terms.fget(fn)))
    sf._shape_image.cache_clear()
    geo.decompose_runs.cache_clear()
    specs = [*_all_covers(TRI), *_all_covers(geo.box((0, 0), (1, 1)))]
    assert len(specs) == 2 ** 7 + 2 ** 9  # every face set, the empty one and the whole included
    assert [ids.id_holds(spec) for spec in specs] == [ids.covers_vertices(spec) for spec in specs]
    assert calls == []


def test_closed_basis_keeps_the_weight_type():
    square = geo.box((0, 0), (1, 1))
    ints = sf.from_closed(square.ambient, {square: 1, geo.box_point((0, 0)): -1})
    fractions = sf.indicator(square) - sf.indicator(geo.box_point((0, 0)))
    assert ints == fractions
    assert all(type(w) is int for w in sf._closed_basis(ints).values())
    assert all(type(w) is Fraction for w in sf._closed_basis(fractions).values())
    assert sf._closed_basis(ints) == sf._closed_basis(fractions)


def test_id_context_rejects_products_before_building_a_ring():
    prism = geo.product(TRI, geo.box((0,), (1,)))
    spec = ids.cover(prism, [f for f in geo.faces(prism) if geo.dim(f) == 0])
    # box_ring caches through _box_ring, on its arguments normalised
    before = _box_ring.cache_info().misses, coxeter_ring.cache_info().misses
    with pytest.raises(ValueError, match="ProductPolytope family"):
        ids.id_context(spec)
    assert (_box_ring.cache_info().misses, coxeter_ring.cache_info().misses) == before
