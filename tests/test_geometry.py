import itertools
import math
from fractions import Fraction

import pytest

import minkring.geometry as geo
import minkring.simplefn as sf
from minkring.scalars import Scalar
from conftest import (bounding_grid_cells, naive_grid_member, naive_sum_member,
                      random_box, random_family_polytope, random_gridset,
                      random_interval, sampled_cells, split_point)

OA_EDGE = geo.grid_set(0, 1, 0, 0, 0, 1)
OB_EDGE = geo.grid_set(0, 0, 0, 1, 0, 1)
AB_EDGE = geo.grid_set(0, 1, 0, 1, 1, 1)
TRI = geo.unit_triangle()


def test_grid_set_tightening():
    g = geo.grid_set(0, 10, 0, 10, 0, 1)
    assert g.bounds() == (0, 1, 0, 1, 0, 1)
    g = geo.grid_set(0, 3, 0, 3, 5, 6)
    assert g.bounds() == (2, 3, 2, 3, 5, 6)
    with pytest.raises(geo.EmptyRegionError):
        geo.grid_set(0, 1, 0, 1, 5, 6)
    with pytest.raises(ValueError):
        geo.GridSet(0, 10, 0, 10, 0, 1)  # not canonical


def test_minkowski_edges_make_rhombus():
    rhombus = geo.minkowski_sum(OA_EDGE, OB_EDGE)
    assert rhombus == geo.grid_set(0, 1, 0, 1, 0, 2)


def test_minkowski_origin_identity(rng):
    for _ in range(12):
        p = random_family_polytope(rng)
        origin = geo.origin_of(geo.ambient_of(p))
        assert geo.minkowski_sum(p, origin) == p


def test_minkowski_family_mismatch():
    with pytest.raises(geo.FamilyMismatchError, match=r"GridSet on Arrangement\(grid, "
                                                      r"d=2\) vs Box on Arrangement\(box, d=1\)"):
        geo.minkowski_sum(TRI, geo.box((0,), (1,)))
    with pytest.raises(geo.FamilyMismatchError, match=r"Interval on Line\(mode='rational'\) "
                                                      r"vs Interval on Line\(mode='sqrt2'\)"):
        geo.minkowski_sum(geo.interval(0, 1), geo.interval(0, 1, "sqrt2"))
    with pytest.raises(geo.FamilyMismatchError, match="GridSet on .* vs int on None"):
        geo.minkowski_sum(TRI, 5)


def test_the_line_checks_its_inputs():
    for build in (lambda: geo.Line("bogus"), lambda: geo.interval(0, 1, "bogus"),
                  lambda: geo.line_point(0, "bogus"), lambda: geo.Interval(0, 1, "bogus")):
        with pytest.raises(ValueError, match="unknown line mode 'bogus'"):
            build()
    # int and Fraction endpoints are taken through Scalar.of
    assert geo.Interval(1, 2) == geo.interval(1, 2)
    assert geo.Interval(Fraction(1, 2), 2, "sqrt2") == \
        geo.interval(Scalar.of(Fraction(1, 2)), Scalar.of(2), "sqrt2")
    assert geo.Interval(0, 1).lo == Scalar.of(0) and geo.Interval(0, 1).mode == "rational"
    with pytest.raises(geo.EmptyRegionError):
        geo.Interval(2, 1)
    with pytest.raises(ValueError, match="irrational endpoint"):
        geo.Interval(0, Scalar.sqrt2())


def test_triangle_plus_down_triangle_is_hexagon():
    down = geo.grid_set(0, 1, 0, 1, 1, 2)
    hexagon = geo.minkowski_sum(TRI, down)
    assert hexagon.bounds() == (0, 2, 0, 2, 1, 3)
    # independent membership oracle at every lattice point of a bounding box
    for u in range(-1, 4):
        for v in range(-1, 4):
            expected = naive_sum_member(TRI, down, (Fraction(u), Fraction(v)))
            assert naive_grid_member(hexagon.bounds(), (u, v)) == expected


def test_scale_examples():
    assert geo.scale(geo.interval(0, 1), 3) == geo.interval(0, 3)
    assert geo.scale(TRI, 2) == geo.grid_set(0, 2, 0, 2, 0, 2)
    rhombus = geo.grid_set(0, 1, 0, 1, 0, 2)
    assert geo.scale(rhombus, 2) == geo.minkowski_sum(rhombus, rhombus)
    assert geo.scale(TRI, 0) == geo.grid_point_set(0, 0)


def test_scale_matches_repeated_sum(rng):
    for _ in range(8):
        p = random_family_polytope(rng)
        acc = p
        for k in range(2, 6):
            acc = geo.minkowski_sum(acc, p)
            assert acc == geo.scale(p, k)


def test_faces_counts():
    square = geo.box((0, 0), (1, 1))
    fs = geo.faces(square)
    assert len(fs) == 9
    assert sum(1 for f in fs if geo.dim(f) == 0) == 4
    assert sum(1 for f in fs if geo.dim(f) == 1) == 4
    point = geo.grid_point_set(2, -1)
    assert geo.faces(point) == (point,)
    tri_faces = geo.faces(TRI)
    assert len(tri_faces) == 7
    assert set(tri_faces) == {
        TRI, OA_EDGE, OB_EDGE, AB_EDGE,
        geo.grid_point_set(0, 0), geo.grid_point_set(1, 0), geo.grid_point_set(0, 1),
    }


def test_faces_are_distinct_and_vertices_doubly_tight(rng):
    for _ in range(10):
        g = random_gridset(rng)
        fs = geo.faces(g)
        assert len(set(fs)) == len(fs)
        for v in geo.vertices(g):
            u, w = v.u_min, v.v_min
            tight = [u == g.u_min, u == g.u_max, w == g.v_min, w == g.v_max,
                     u + w == g.s_min, u + w == g.s_max]
            assert sum(tight) >= 2


def test_hexagon_has_six_edges():
    hexagon = geo.grid_set(0, 2, 0, 2, 1, 3)
    fs = geo.faces(hexagon)
    assert sum(1 for f in fs if geo.dim(f) == 1) == 6
    assert sum(1 for f in fs if geo.dim(f) == 0) == 6


def test_product_faces_multiply():
    prism = geo.product(TRI, geo.box((0,), (1,)))
    assert len(geo.faces(prism)) == 7 * 3


def test_decompose_triangle():
    cells = geo.decompose_cells(TRI)
    assert sorted(cells, key=geo.cell_sort_key) == sorted([
        geo.GridVertex(0, 0), geo.GridVertex(1, 0), geo.GridVertex(0, 1),
        geo.GridEdgeU(0, 0), geo.GridEdgeV(0, 0), geo.GridEdgeS(0, 0),
        geo.GridTriUp(0, 0),
    ], key=geo.cell_sort_key)


def test_decompose_point_and_scaled_triangle():
    assert geo.decompose_cells(geo.grid_point_set(3, 4)) == (geo.GridVertex(3, 4),)
    cells = geo.decompose_cells(geo.scale(TRI, 2))
    by_type = {}
    for c in cells:
        by_type[type(c).__name__] = by_type.get(type(c).__name__, 0) + 1
    assert by_type == {"GridVertex": 6, "GridEdgeU": 3, "GridEdgeV": 3,
                       "GridEdgeS": 3, "GridTriUp": 3, "GridTriDown": 1}


def test_cells_partition_their_polytope(rng):
    for _ in range(10):
        g = random_gridset(rng)
        cells = geo.decompose_cells(g)
        reps = [geo.cell_representative(c) for c in cells]
        assert len(set(reps)) == len(reps)
        for c, r in zip(cells, reps):
            assert geo.cell_contains(c, r)
            assert geo.contains_point(g, r)
        # every cell of a bounding box is emitted iff its representative
        # satisfies the naive bound check
        cell_set = set(cells)
        for c in bounding_grid_cells(g.u_min - 1, g.u_max + 1,
                                     g.v_min - 1, g.v_max + 1):
            r = geo.cell_representative(c)
            assert (c in cell_set) == naive_grid_member(g.bounds(), r)


def test_sum_decomposition_matches_membership(rng):
    for _ in range(6):
        a, b = random_gridset(rng, span=2), random_gridset(rng, span=2)
        total = geo.minkowski_sum(a, b)
        cell_set = set(geo.decompose_cells(total))
        for c in bounding_grid_cells(total.u_min - 1, total.u_max + 1,
                                     total.v_min - 1, total.v_max + 1):
            r = geo.cell_representative(c)
            assert (c in cell_set) == naive_sum_member(a, b, r)


def test_box_cells_and_interval_cells():
    seg2 = geo.box((0,), (2,))
    cells = geo.decompose_cells(seg2)
    assert len(cells) == 5
    assert sum(1 for c in cells if geo.cell_dim(c) == 0) == 3
    iv = geo.interval(0, Scalar.sqrt2())
    pieces = geo.decompose_cells(iv)
    assert [geo.cell_dim(c) for c in pieces] == [0, 1, 0]


def test_negate_translate_roundtrip(rng):
    for _ in range(10):
        p = random_family_polytope(rng)
        assert geo.negate(geo.negate(p)) == p
    g = random_gridset(rng)
    assert geo.translate(geo.translate(g, (2, -1)), (-2, 1)) == g


def test_contains_polytope(rng):
    for _ in range(10):
        g = random_gridset(rng)
        for f in geo.faces(g):
            assert geo.contains_polytope(g, f)
    assert not geo.contains_polytope(OA_EDGE, AB_EDGE)


def test_lattice_families_reject_non_integral_coordinates():
    segment = geo.box((0,), (1,))
    with pytest.raises(ValueError):
        geo.translate(segment, (Fraction(1, 2),))
    with pytest.raises(ValueError):
        geo.translate(TRI, (Fraction(3, 2), 0))
    with pytest.raises(ValueError):
        geo.translate(geo.product(TRI, segment), (0, 0, Fraction(1, 3)))
    with pytest.raises(ValueError):
        geo.box((0.5,), (1.7,))
    with pytest.raises(ValueError):
        geo.box_point((Fraction(1, 2), 0))
    # integral values of any numeric type are taken as they are
    assert geo.box((Fraction(2),), (3.0,)) == geo.box((2,), (3,))
    assert geo.translate(TRI, (Fraction(2), -1)) == geo.grid_set(2, 3, -1, 0, 1, 2)
    assert geo.translate(segment, (Fraction(-1),)) == geo.box((-1,), (0,))
    # the line takes any scalar offset
    assert geo.translate(geo.interval(0, 1), Fraction(1, 2)) == \
        geo.interval(Fraction(1, 2), Fraction(3, 2))


# ---------------------------------------------------------------------------
# every family: intervals over Q and Q(sqrt 2), boxes of dimension 1..4,
# grid polygons, and products of boxes and grid polygons

FAMILIES = ["rational", "sqrt2", "box1", "box2", "box3", "box4", "grid",
            "grid*box1", "box1*grid", "box2*grid", "grid*grid"]


def draw(rng, family: str, small: bool = False) -> geo.Polytope:
    """A random polytope of the family; product parts are drawn small."""
    if "*" in family:
        return geo.product(*(draw(rng, part, small=True) for part in family.split("*")))
    if family in ("rational", "sqrt2"):
        return random_interval(rng, family)
    if family == "grid":
        return random_gridset(rng, span=1, offset=1) if small else random_gridset(rng)
    d = int(family[3:])
    return random_box(rng, d=d, span=1 if small or d > 2 else 2)


def member(p: geo.Polytope, x) -> bool:
    """x in p, by the independent oracles of conftest: the six grid
    inequalities, or x in p + {0} for boxes and intervals."""
    if isinstance(p, geo.GridSet):
        return naive_grid_member(p.bounds(), x)
    if isinstance(p, geo.ProductPolytope):
        return all(member(q, xq) for q, xq in zip(p.parts, split_point(p, x)))
    return naive_sum_member(p, geo.origin_of(geo.ambient_of(p)), x)


def line_samples(ends) -> list:
    """Every endpoint, the midpoints between them and a point beyond each end."""
    ends = sorted(set(ends))
    ends = [ends[0] - 1] + ends + [ends[-1] + 1]
    return ends + [(a + b) * Fraction(1, 2) for a, b in zip(ends, ends[1:])]


def samples(polys) -> list:
    """Points around polytopes of one family, including every vertex and
    one point of every nonempty intersection: line samples of the bounds
    on the line and on each box axis; on the grid the representative of
    every cell of a coordinate box around them with margin 1."""
    p = polys[0]
    if isinstance(p, geo.Interval):
        return line_samples(e for q in polys for e in (q.lo, q.hi))
    if isinstance(p, geo.GridSet):
        cells = bounding_grid_cells(min(q.u_min for q in polys) - 1,
                                    max(q.u_max for q in polys) + 1,
                                    min(q.v_min for q in polys) - 1,
                                    max(q.v_max for q in polys) + 1)
        return [geo.cell_representative(c) for c in cells]
    if isinstance(p, geo.Box):
        return list(itertools.product(*(line_samples(ends) for ends in zip(
            *(q.los for q in polys), *(q.his for q in polys)))))
    per_part = [samples([q.parts[i] for q in polys]) for i in range(len(p.parts))]
    return [sum(xs, ()) for xs in itertools.product(*per_part)]


@pytest.mark.parametrize("family", FAMILIES)
def test_euler_poincare_on_every_family(rng, family):
    for _ in range(8):
        p = draw(rng, family)
        fs = geo.faces(p)
        assert sum((-1) ** geo.dim(f) for f in fs) == 1
        assert len(set(fs)) == len(fs)
        if isinstance(p, geo.Box):
            assert len(fs) == 3 ** geo.dim(p)


@pytest.mark.parametrize("family", FAMILIES)
def test_representatives_lie_in_exactly_their_cell(rng, family):
    for _ in range(4):
        p = draw(rng, family)
        cells = geo.decompose_cells(p)
        for c in cells:
            r = geo.cell_representative(c)
            assert [d for d in cells if geo.cell_contains(d, r)] == [c]
            assert member(geo.cell_closure(c), r) and member(p, r)


def test_grid_cells_of_different_kinds_differ():
    kinds = [geo.GridVertex, geo.GridEdgeU, geo.GridEdgeV, geo.GridEdgeS,
             geo.GridTriUp, geo.GridTriDown]
    cells = [kind(0, 0) for kind in kinds]
    assert len(set(cells)) == 6
    assert cells[0] == geo.GridVertex(0, 0) and cells[0] != cells[1]
    assert repr(cells[5]) == "GridTriDown(u=0, v=0)"


@pytest.mark.parametrize("family", FAMILIES)
def test_membership_intersection_containment_match_oracles(rng, family):
    for trial in range(6):
        a = draw(rng, family)
        # every other pair nests: b is a face of a, so a contains b
        b = rng.choice(geo.faces(a)) if trial % 2 else draw(rng, family)
        try:
            both = geo.intersect(a, b)
        except geo.EmptyRegionError:
            both = None
        points = samples([a, b])
        in_a = [member(a, x) for x in points]
        in_b = [member(b, x) for x in points]
        for x, xa, xb in zip(points, in_a, in_b):
            assert geo.contains_point(a, x) == xa
            assert (both is not None and geo.contains_point(both, x)) == (xa and xb)
        for outer, inner, in_outer, in_inner in ((a, b, in_a, in_b), (b, a, in_b, in_a)):
            expected = all(o for o, i in zip(in_outer, in_inner) if i)
            assert geo.contains_polytope(outer, inner) == expected


def test_grid_cells_anchored_at_one_point_hash_apart():
    kinds = [geo.GridVertex, geo.GridEdgeU, geo.GridEdgeV, geo.GridEdgeS,
             geo.GridTriUp, geo.GridTriDown]
    for u, v in ((0, 0), (3, -2)):
        assert len({hash(kind(u, v)) for kind in kinds}) == 6
        assert all(hash(kind(u, v)) == hash(kind(u, v)) for kind in kinds)


def offset_for(rng, p: geo.Polytope):
    """A random translation in the coordinates of geo.translate."""
    if isinstance(p, geo.Interval):
        return random_interval(rng, p.mode).lo
    if isinstance(p, geo.ProductPolytope):
        return sum((offset_for(rng, q) for q in p.parts), ())
    d = len(p.los) if isinstance(p, geo.Box) else 2
    return tuple(rng.randint(-4, 4) for _ in range(d))


def moved(x, offset):
    if isinstance(x, tuple):
        return tuple(moved(a, b) for a, b in zip(x, offset))
    return x + offset


@pytest.mark.parametrize("family", FAMILIES)
def test_shift_cell_is_translation_of_the_decomposition(rng, family):
    for _ in range(6):
        p = draw(rng, family)
        offset = offset_for(rng, p)
        cells = geo.decompose_cells(p)
        shifted = [geo.shift_cell(c, offset) for c in cells]
        assert sorted(shifted, key=geo.cell_sort_key) == sorted(
            geo.decompose_cells(geo.translate(p, offset)), key=geo.cell_sort_key)
        for c, s in zip(cells, shifted):
            assert type(s) is type(c) and geo.cell_dim(s) == geo.cell_dim(c)
            assert geo.cell_representative(s) == moved(geo.cell_representative(c), offset)


# ---------------------------------------------------------------------------
# the derived cell tables


def test_grid_table_is_the_hand_written_one():
    # (name, rank, dim, closure offsets on (u, u, v, v, s, s), point) as the
    # grid cells were written out by hand before the table was derived
    third = Fraction(1, 3)
    expected = [
        ("GridVertex", 0, 0, (0, 0, 0, 0, 0, 0), (0, 0)),
        ("GridEdgeU", 1, 1, (0, 1, 0, 0, 0, 1), (Fraction(1, 2), 0)),
        ("GridEdgeV", 2, 1, (0, 0, 0, 1, 0, 1), (0, Fraction(1, 2))),
        ("GridEdgeS", 3, 1, (0, 1, 0, 1, 1, 1), (Fraction(1, 2), Fraction(1, 2))),
        ("GridTriUp", 4, 2, (0, 1, 0, 1, 0, 1), (third, third)),
        ("GridTriDown", 5, 2, (0, 1, 0, 1, 1, 2), (2 * third, 2 * third)),
    ]
    got = [(k.__name__, k.RANK, k.DIM, tuple(itertools.chain(*zip(k.LO, k.HI))), k.POINT)
           for k in geo.GRID.kinds]
    assert got == expected


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_box_table_has_one_kind_per_open_axis_set(d):
    kinds = geo.box_arrangement(d).kinds
    assert len(kinds) == 2 ** d
    assert [k.RANK for k in kinds] == list(range(2 ** d))
    assert [k.DIM for k in kinds] == sorted(k.DIM for k in kinds)
    for k in kinds:
        open_axes = tuple(hi - lo for lo, hi in zip(k.LO, k.HI))
        assert k.DIM == sum(open_axes)
        assert k.POINT == tuple(Fraction(o, 2) for o in open_axes)


def test_decomposition_matches_sampled_signatures(rng):
    degenerate = 0
    for _ in range(100):
        g = random_gridset(rng)
        degenerate += geo.dim(g) < 2
        assert set(geo.decompose_cells(g)) == sampled_cells(g)
        assert len(geo.decompose_cells(g)) == len(sampled_cells(g))
    assert degenerate > 0
    for d in (1, 2, 3, 4):
        for _ in range(10):
            b = random_box(rng, d=d, span=2 if d < 4 else 1)
            assert set(geo.decompose_cells(b)) == sampled_cells(b)


@pytest.mark.parametrize("family", ["grid*box1", "box1*grid", "box2*grid", "grid*grid"])
def test_product_cells_are_the_products_of_the_parts_cells(rng, family):
    for _ in range(4):
        p = draw(rng, family)
        cells = geo.decompose_cells(p)
        assert set(cells) == sampled_cells(p) and len(set(cells)) == len(cells)
        # each cell splits into one cell per part at its representative
        split = {c: tuple(geo.cell_at(q.arrangement, xq) for q, xq in zip(
            p.parts, split_point(p, geo.cell_representative(c)))) for c in cells}
        assert len(set(split.values())) == len(cells)
        assert set(split.values()) == set(itertools.product(
            *(geo.decompose_cells(q) for q in p.parts)))
        for c, parts in split.items():
            assert geo.cell_dim(c) == sum(geo.cell_dim(q) for q in parts)
        for f in geo.faces(p):
            assert geo.dim(f) == sum(geo.dim(q) for q in f.parts)


def sampled_table(arr: geo.Arrangement) -> list:
    """(signature, point) per kind, in rank order, as every arrangement's
    table was derived before products were built from their parts: each
    point of (1/N)Z^d in [0, 1)^d, the first coordinate fastest, grouped by
    signature; kinds ranked by dimension, then first sample; the point is
    the mean of the samples.  Computed in integers over N."""
    n, samples = arr.fine, {}
    for index in itertools.product(range(n), repeat=arr.d):
        x = index[::-1]
        values = (sum(c * xi for c, xi in zip(row, x)) for row in arr.forms)
        samples.setdefault(tuple((v // n, v % n == 0) for v in values), []).append(x)
    rows = sorted(samples.items(), key=lambda row: arr.dims[tuple(p for _, p in row[0])])
    return [(sig, tuple(Fraction(sum(c), n * len(xs)) for c in zip(*xs))) for sig, xs in rows]


@pytest.mark.parametrize("parts", ["box1*box1", "box1*grid", "grid*grid", "grid*box2",
                                   "box1*box2*grid", "box2*grid", "box3*grid", "box4*grid"])
def test_product_table_is_the_sampled_table(parts):
    arr = geo.product_arrangement(tuple(
        geo.GRID if part == "grid" else geo.box_arrangement(int(part[3:]))
        for part in parts.split("*")))
    assert [(k.SIGNATURE, k.POINT) for k in arr.kinds] == sampled_table(arr)
    assert [k.RANK for k in arr.kinds] == list(range(len(arr.kinds)))
    assert len(arr.kinds) == math.prod(len(a.kinds) for a, _ in arr.parts)


RUN_FAMILIES = ["box1", "box2", "box3", "box4", "grid", "grid*box1", "box1*grid",
                "box2*grid", "grid*grid"]


@pytest.mark.parametrize("family", RUN_FAMILIES)
def test_runs_expand_to_the_cells_in_key_order(rng, family):
    degenerate = 0
    for _ in range(12):
        p = draw(rng, family)
        if rng.random() < 0.3:  # a face: some kinds have no cell in it
            p = rng.choice(geo.faces(p))
        arr, width = p.arrangement, geo.key_width(geo.reach(p))
        degenerate += geo.dim(p) < arr.d
        runs = geo.decompose_runs(p, width)
        cells = [c for start, stop in runs for c in arr.cells(start, stop, width)]
        assert cells == list(geo.decompose_cells(p))
        assert set(cells) == sampled_cells(p) and len(set(cells)) == len(cells)
        assert cells == sorted(cells, key=geo.cell_sort_key)
        keys = [arr.pack(c, width) for c in cells]
        assert keys == sorted(keys) and len(keys) == sum(b - a for a, b in runs)
        # a run is one kind and anchor prefix, and runs never touch
        for start, stop in runs:
            run = arr.cells(start, stop, width)
            assert len({(type(c), c[1:-1]) for c in run}) == 1
        assert all(b < a for (_, b), (a, _) in zip(runs, runs[1:]))
        wide = geo.decompose_runs(p, width + 32)
        assert [c for a, b in wide for c in arr.cells(a, b, width + 32)] == cells
    assert degenerate > 0


@pytest.mark.parametrize("family", RUN_FAMILIES)
def test_pack_round_trip_order_and_translation(rng, family):
    arr = draw(rng, family).arrangement
    cells = []
    for _ in range(40):
        kind = rng.choice(arr.kinds)
        scale = rng.choice((1, (1 << 30) - 1, 1 << 30, (1 << 62) - 1, 1 << 70))
        cells.append(kind(*(rng.randint(-scale, scale) for _ in range(arr.d))))
    width = geo.key_width(max(abs(a) for c in cells for a in c[1:]))
    for c in cells:
        for w in (width, width + 32):
            key = arr.pack(c, w)
            assert arr.cells(key, key + 1, w) == [c]
    keys = [arr.pack(c, width) for c in cells]
    assert sorted(keys) == [arr.pack(c, width) for c in
                            sorted(cells, key=geo.cell_sort_key)]
    # a translation is one int addition while the moved anchors fit
    offset = tuple(rng.randint(-9, 9) for _ in range(arr.d))
    move = 0
    for a in offset:
        move = (move << width) + a
    for c in cells:
        moved = geo.shift_cell(c, offset)
        if geo.key_width(max(map(abs, moved[1:]))) == width:
            assert arr.pack(c, width) + move == arr.pack(moved, width)


def closure_member(closure, x) -> bool:
    """x in the relative interior of a cell's closure, written out for each
    form: equal to a pinned bound, strictly between free ones."""
    values = closure.forms(x)
    return all(v == lo if lo == hi else lo < v < hi
               for lo, hi, v in zip(closure.los, closure.his, values))


def cell_samples(c) -> list:
    """Points at every end of a cell, between its ends and beyond them: the
    line samples of a line cell's ends; a lattice cell's anchor moved by
    the steps k/n around [0, 1], sixths for d <= 3 and the steps of the
    fine lattice, which meet every cell, for d = 4."""
    if isinstance(c, (geo.Point1D, geo.OpenInterval1D)):
        return line_samples(c[1:])
    arr = c.ARRANGEMENT
    n = 6 if arr.d <= 3 else arr.fine
    steps = [Fraction(k, n) for k in range(-(n // 2), n + n // 2 + 1)]
    return [tuple(a + s for a, s in zip(c[1:], step))
            for step in itertools.product(steps, repeat=arr.d)]


def test_cell_contains_matches_closure_membership(rng):
    polys = [random_gridset(rng, span=2) for _ in range(4)]
    polys += [random_box(rng, d=d, span=1) for d in (1, 2, 3) for _ in range(2)]
    polys += [draw(rng, family) for family in ("rational", "sqrt2", "grid*box1", "grid*grid")
              for _ in range(2)]
    for p in polys:
        for c in geo.decompose_cells(p):
            closure = geo.cell_closure(c)
            for x in cell_samples(c):
                assert geo.cell_contains(c, x) == closure_member(closure, x)


def test_rebuild_tightens_once(monkeypatch):
    calls = []
    tighten = geo._tighten
    monkeypatch.setattr(geo, "_tighten", lambda *a: calls.append(a) or tighten(*a))
    hexagon = geo.grid_set(0, 2, 0, 2, 1, 3)
    for op in (geo.negate, lambda p: geo.translate(p, (1, -2)), lambda p: geo.scale(p, 3),
               lambda p: geo.minkowski_sum(p, p), lambda p: geo.intersect(p, TRI)):
        calls.clear()
        op(hexagon)
        assert len(calls) == 1


def test_points_of_the_wrong_dimension_are_refused():
    tri, square = geo.unit_triangle(), geo.box((0, 0), (1, 1))
    with pytest.raises(ValueError, match="point has 2 coordinates, got 1"):
        geo.translate(tri, (1,))
    with pytest.raises(ValueError, match="point has 2 coordinates, got 3"):
        geo.translate(tri, (1, 2, 3))
    with pytest.raises(ValueError, match="point has 2 coordinates, got 1"):
        geo.contains_point(square, (0,))
    with pytest.raises(ValueError, match="point has 2 coordinates, got 1"):
        sf.evaluate_at(sf.indicator(tri), (Fraction(1, 3),))
    with pytest.raises(ValueError, match="point has 2 coordinates, got 1"):
        geo.shift_cell(geo.GridVertex(0, 0), (1,))
    with pytest.raises(ValueError, match="point has 2 coordinates, got 3"):
        geo.shift_cell(geo.GridVertex(0, 0), (1, 2, 3))
    with pytest.raises(ValueError, match="point has 2 coordinates, got 1"):
        geo.shift_cell(geo.decompose_cells(square)[0], (5,))
    assert geo.translate(tri, (1, 2)) == geo.grid_set(1, 2, 2, 3, 3, 4)
    assert geo.contains_point(square, (0, 1))
