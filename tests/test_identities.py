import itertools
import math
import random
from fractions import Fraction

import pytest

import minkring.geometry as geo
import minkring.identities as ids
import minkring.simplefn as sf
from minkring.cli import parse_poly
from minkring.laurent import LaurentPoly
from minkring.presentations import _box_ring, box_ring, coxeter_ring, interval_ring
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


# The reference search: every antichain cover of the proper faces, then a pass
# over every pair for a strict subset or a swap, decided face by face.


def _looping_covers_relation(a, b):
    if a.polytope != b.polytope:
        raise ValueError("covers_relation needs a common polytope")
    for c in (a, b):
        if c.polytope in c.faces:
            raise ids.AntichainError("the polytope itself is not allowed in antichains")
        if not ids._is_antichain(c.faces):
            raise ids.AntichainError(f"faces are not an antichain: {c.faces}")
    sa, sb = set(a.faces), set(b.faces)
    if sa == sb:
        return False
    for swapped in sa:
        if swapped in sb:
            continue
        rest = sa - {swapped}
        if not rest <= sb:
            continue
        introduced = sb - rest
        sub_faces = set(geo.faces(swapped))
        if not introduced <= sub_faces:
            continue
        replacement = {f for f in sb if f in sub_faces}
        if ids.covers_vertices(ids.cover(swapped, replacement)):
            return True
    return False


def _antichains(p):
    proper = [f for f in geo.faces(p) if f != p]
    return [ids.cover(p, combo) for r in range(1, len(proper) + 1)
            for combo in itertools.combinations(proper, r) if ids._is_antichain(combo)]


def _exhaustive_minimal_antichains(p):
    pool = [c for c in _antichains(p) if ids.covers_vertices(c)]
    sets = [set(c.faces) for c in pool]
    minimal = [b for j, b in enumerate(pool)
               if not any(i != j and (sets[i] < sets[j] or _looping_covers_relation(a, b))
                          for i, a in enumerate(pool))]
    minimal.sort(key=lambda s: (len(s.faces),
                                tuple(geo.polytope_sort_key(f) for f in s.faces)))
    return minimal


def test_minimal_antichains_match_the_exhaustive_search(rng):
    hexagons = [geo.grid_set(0, 2, 0, 2, 1, 3), geo.grid_set(-1, 2, 0, 3, 1, 4)]
    polygons = [random_gridset(rng) for _ in range(40)]
    segment, point = geo.box((0,), (1,)), geo.box((2,), (2,))
    polytopes = [*hexagons, *polygons, TRI, geo.box((0, 0), (1, 1)),
                 geo.box((-1,), (2,)), geo.box((0, 1), (2, 1)), geo.box((1, 0), (3, 2)),
                 geo.product(segment, segment), geo.product(point, segment),
                 geo.interval(0, 1), geo.interval(Fraction(-1, 2), 3),
                 geo.interval(-1, Scalar.sqrt2()), geo.line_point(Scalar.sqrt2())]
    assert [len(geo.faces(h)) for h in hexagons] == [13, 13]
    checked = set()
    for p in polytopes:
        for face in geo.faces(p):
            if face not in checked:
                checked.add(face)
                assert ids.minimal_antichains(face) == _exhaustive_minimal_antichains(face)
    assert [len(ids.minimal_antichains(h)) for h in hexagons] == [20, 20]


def _outcome(relation, a, b):
    try:
        return relation(a, b)
    except ValueError as e:  # AntichainError included
        return type(e), str(e)


def test_covers_relation_matches_the_face_by_face_loop():
    for p in (TRI, geo.box((0, 0), (1, 1)), geo.grid_set(0, 2, 0, 2, 0, 3), geo.interval(0, 1)):
        specs = _antichains(p)
        edge = next(f for f in geo.faces(p) if geo.dim(f) == 1)
        bad = [ids.cover(p, (p,)), ids.cover(p, (edge, geo.vertices(edge)[0])),
               ids.cover(edge, geo.vertices(edge))]
        for a in specs + bad:
            for b in specs + bad:
                assert _outcome(ids.covers_relation, a, b) == \
                    _outcome(_looping_covers_relation, a, b)


# The catalog rings' declared relations are the face-cover identities.


def _named(name):
    return LaurentPoly.const(1) if name == "1" else LaurentPoly.var(name)


def _minimal_cover_relations(pres, origin):
    """prod over G in C of (g_F - g_G) for each minimal cover C of each
    generator face F of dimension >= 1, the origin vertex read as 1: faces
    in generator-name order, the covers of each by their sorted names."""
    names = {g.polytope: name for name, g in pres.generators.items()}
    names[origin] = "1"
    out = []
    for name in sorted(pres.generators):
        face = pres.generators[name].polytope
        if geo.dim(face) >= 1:
            covers = sorted(sorted(names[g] for g in c.faces)
                            for c in ids.minimal_antichains(face))
            out += [math.prod((_named(name) - _named(g) for g in c), start=_named("1"))
                    for c in covers]
    return out


def test_declared_relations_are_the_minimal_cover_identities():
    for pres, origin in ((coxeter_ring(), O), (box_ring(1), geo.box_point((0,))),
                         (interval_ring(0, 1), geo.line_point(0))):
        assert _minimal_cover_relations(pres, origin) == list(pres.declared)
    assert len(coxeter_ring().declared) == 9


# The cover cache against an uncached product, multiplied left to right in
# the cover's own face order with no early exit.


def _uncached(spec):
    """(id_holds, id_context) of spec from its one-face expansions, each made
    with the cover cache cleared, and one left-to-right step-form product."""
    p, fn, product = spec.polytope, None, LaurentPoly.const(1)
    pres, _, off = ids.id_context(ids.cover(p, []))
    for face in spec.faces:
        diff = {p: 1, face: -1} if face != p else {}
        fn = sf.from_closed(p.ambient, diff) if fn is None else sf.times_closed(fn, diff)
        ids._cover_memo.cache_clear()
        product = product * ids.id_expand(ids.cover(p, [face]))
    ids._cover_memo.cache_clear()
    return fn is not None and sf.is_zero(fn), (pres, product, off)


def _refused(*args):
    raise AssertionError("a cached cover multiplied again")


def test_cover_cache_matches_the_uncached_product(rng, monkeypatch):
    hexagon, cube = geo.grid_set(0, 2, 0, 2, 1, 3), geo.box((0, 0, 0), (1, 1, 1))
    specs = [*_all_covers(TRI), *_all_covers(geo.box((0, 0), (1, 1))),
             *_all_covers(geo.interval(1, Scalar.sqrt2())),
             *(ids.cover(p, rng.sample(geo.faces(p), rng.randint(1, 5)))
               for p in [hexagon] * 40 + [cube] * 30)]
    assert len(specs) == 2 ** 7 + 2 ** 9 + 2 ** 3 + 40 + 30

    def shuffled(spec):
        return ids.cover(spec.polytope, rng.sample(spec.faces, len(spec.faces)))

    expected = {}
    for spec in specs:
        expected[spec.polytope, frozenset(spec.faces)] = _uncached(shuffled(spec))
        assert ids._cover_memo.cache_info().currsize == 0

    def check(spec):
        holds, context = expected[spec.polytope, frozenset(spec.faces)]
        assert ids.id_holds(spec) == holds == ids.covers_vertices(spec)
        assert ids.id_context(spec) == context
        assert ids.id_expand(spec) == context[1]

    for spec in specs:  # cold, then again in another order with no product made
        ids._cover_memo.cache_clear()
        check(shuffled(spec))
        with monkeypatch.context() as m:
            for owner, name in ((sf, "from_closed"), (sf, "times_closed"),
                                (LaurentPoly, "__mul__")):
                m.setattr(owner, name, _refused)
            check(shuffled(spec))
    ids._cover_memo.cache_clear()
    for spec in specs + specs:  # warm: each polytope's covers in turn, then again
        check(shuffled(spec))
    assert 0 < ids._cover_memo.cache_info().currsize <= 512
    ids._cover_memo.cache_clear()
    assert ids._cover_memo.cache_info().currsize == 0
    for spec in rng.sample(specs, len(specs)):  # interleaved
        check(shuffled(spec))
