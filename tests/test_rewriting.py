import itertools
from fractions import Fraction

import pytest

import minkring.geometry as geo
import minkring.rewriting as rw
import minkring.simplefn as sf
from minkring.cli import parse_poly
from minkring.laurent import LaurentPoly
from minkring.presentations import box_ring, coxeter_ring
from conftest import fold_by_copies, random_gridset, well_formed

TRI = geo.unit_triangle()
RING = coxeter_ring()


def test_first_normal_form_unit_rhombus():
    params, poly = rw.first_normal_form(geo.grid_set(0, 1, 0, 1, 0, 2))
    assert (params.N, params.m1, params.m2, params.m3) == (2, 1, 1, 0)
    assert (params.n1, params.n2, params.n3) == (1, 1, 0)
    assert poly == parse_poly("z^2 - x1*(z - y2) - x2*(z - y1)")


def test_first_normal_form_triangle_and_edges():
    params, poly = rw.first_normal_form(TRI)
    assert params.N == 1 and params.m1 == params.m2 == params.m3 == 0
    assert poly == parse_poly("z")
    assert rw.first_normal_form(geo.grid_set(0, 1, 0, 0, 0, 1))[1] == parse_poly("y1")
    assert rw.first_normal_form(geo.grid_set(0, 1, 0, 1, 1, 1))[1] == parse_poly("y3")
    assert rw.first_normal_form(geo.grid_point_set(0, 1))[1] == parse_poly("x2")
    assert rw.first_normal_form(geo.grid_set(0, 2, 0, 0, 0, 2))[1] == parse_poly("y1^2")


def test_first_normal_form_down_triangle():
    down = geo.grid_set(0, 1, 0, 1, 1, 2)
    params, poly = rw.first_normal_form(down)
    assert (params.N, params.m1, params.m2, params.m3) == (2, 1, 1, 1)
    assert (params.n1, params.n2) == (0, 0)
    assert poly == parse_poly("z^2 - (z - y3) - x1*(z - y2) - x2*(z - y1)")


def test_first_normal_form_translation():
    shifted = geo.translate(TRI, (2, -3))
    params, poly = rw.first_normal_form(shifted)
    assert (params.a, params.b) == (2, -3)
    assert poly == parse_poly("x1^2*x2^-3*z")


def test_params_validation():
    with pytest.raises(ValueError):
        rw.NormalFormParams(0, 0, 2, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        rw.NormalFormParams(0, 0, 1, -1, 2, 0, 0, 0, 0)


def test_second_normal_form_triangle_base_case():
    # z = (1 + x1 + x2) + (open edges) + (open triangle): the expansion
    # collapses to z itself, and the pieces are the seven cells
    pieces = rw.second_normal_form_pieces(TRI)
    assert pieces == (
        (0, 0, "1"), (0, 1, "1"), (1, 0, "1"),
        (0, 0, "y1o"), (0, 0, "y2o"), (0, 0, "y3o"), (0, 0, "zo"),
    )
    assert rw.second_normal_form(TRI) == parse_poly("z")


def test_second_normal_form_point():
    pt = geo.grid_point_set(-1, 2)
    assert rw.second_normal_form_pieces(pt) == ((-1, 2, "1"),)
    assert rw.second_normal_form(pt) == parse_poly("x1^-1*x2^2")


def test_second_normal_form_rhombus_multiset():
    # derived from the cell decomposition: 4 points, 2+2+1 open edges,
    # one up- and one down-triangle
    rhombus = geo.grid_set(0, 1, 0, 1, 0, 2)
    pieces = rw.second_normal_form_pieces(rhombus)
    kinds = {}
    for _, _, kind in pieces:
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"1": 4, "y1o": 2, "y2o": 2, "y3o": 1, "zo": 1, "zinv": 1}
    assert RING.phi(rw.second_normal_form(rhombus)) == sf.indicator(rhombus)
    # piece multiset corresponds one-to-one to the cell decomposition
    assert len(pieces) == len(geo.decompose_cells(rhombus))


def test_triangle_tiling_base_and_counts():
    assert rw.triangle_tiling(0) == LaurentPoly.const(1)
    assert rw.triangle_tiling(1) == parse_poly("z")
    f2 = rw.triangle_points_poly(2)
    assert len(f2.terms) == 6
    by_degree = {}
    for m, c in f2.terms.items():
        d = sum(e for _, e in m)
        by_degree[d] = by_degree.get(d, 0) + 1
    assert by_degree == {0: 1, 1: 2, 2: 3}


def test_triangle_tiling_matches_scaled_triangle():
    for n in (1, 2, 3):
        assert rw.verify_triangle_tiling(n)
    image = RING.phi(rw.triangle_tiling(3))
    assert image == sf.indicator(geo.scale(TRI, 3))
    counts = {}
    for cell in image.terms:
        counts[type(cell).__name__] = counts.get(type(cell).__name__, 0) + 1
    assert counts == {"GridVertex": 10, "GridEdgeU": 6, "GridEdgeV": 6,
                      "GridEdgeS": 6, "GridTriUp": 6, "GridTriDown": 3}


def test_triangle_count_poly_at_ones():
    ones = {"x1": Fraction(1), "x2": Fraction(1)}
    for n in range(9):
        value = rw.triangle_points_poly(n).substitute(ones).constant_value()
        assert value == (n + 1) * (n + 2) // 2


def test_edge_tilings():
    assert rw.edge_tiling("y", 2) == parse_poly("1 + x + x^2 + (y - 1 - x)*(1 + x)")
    assert rw.edge_tiling("y3", 2) == parse_poly(
        "x1^2 + x1*x2 + x2^2 + (y3 - x1 - x2)*(x1 + x2)")
    assert rw.edge_tiling("y1", 1) == parse_poly("1 + x1 + (y1 - 1 - x1)")
    for axis in ("y", "y1", "y2", "y3"):
        for n in (1, 2, 3):
            assert rw.verify_edge_tiling(axis, n)


def test_strip_identities():
    assert RING.kernel_member(rw.core_identity())
    for n in (1, 2, 3):
        assert rw.verify_strip(n)


def test_edge_relations_shared_with_box_rings():
    # the three quadratic edge relations restrict to 1-D box structure:
    # the same polynomials lie in the kernels of the box rings
    assert box_ring(1).kernel_member(parse_poly("(y - 1)*(y - x)"))
    b2 = box_ring(2, signed=True)
    assert b2.kernel_member(parse_poly("(y1 - 1)*(y1 - x1)"))
    assert b2.kernel_member(parse_poly("(y2 - 1)*(y2 - x2)"))


def test_normal_form_roundtrip_small():
    for s in (TRI, geo.grid_set(0, 1, 0, 1, 0, 2), geo.grid_set(0, 2, 0, 2, 1, 3)):
        for offset in ((0, 0), (1, -1)):
            moved = geo.translate(s, offset)
            target = sf.indicator(moved)
            assert RING.phi(rw.first_normal_form(moved)[1]) == target
            assert RING.phi(rw.second_normal_form(moved)) == target


# -- one-dict assembly against the running sum of copies ----------------------


def test_normal_forms_and_tilings_match_running_sum(rng):
    for _ in range(12):
        s = random_gridset(rng)
        second = rw.second_normal_form(s)
        assert second == fold_by_copies(
            LaurentPoly.term({"x1": a, "x2": b}) * rw._PIECE_POLY[kind]
            for a, b, kind in rw.second_normal_form_pieces(s))
        assert well_formed(second)
    pieces = rw.open_edge(1) + rw.open_edge(2) + rw.open_edge(3) + rw.open_triangle()
    down = parse_poly("x1*x2*z^-1")

    def points(k):  # f_k, one homogeneous layer at a time
        return fold_by_copies(LaurentPoly.term({"x1": i, "x2": j - i})
                              for j in range(k + 1) for i in range(j + 1))

    for n in range(7):
        tiling = rw.triangle_tiling(n)
        assert tiling == fold_by_copies([points(n), points(n - 1) * pieces,
                                         points(n - 2) * down])
        assert well_formed(tiling)
        assert rw.strip_identity(n + 1) - rw.strip_edge_identity(n + 1) == \
            parse_poly(f"z^{n + 1} - z^{n} - y3^{n}*z + y3^{n}")


def test_piece_text_spells_the_piece_monomial():
    for a, b in itertools.product(range(-3, 4), repeat=2):
        mono = LaurentPoly.term({"x1": a, "x2": b}).to_text()
        for kind in ("1", "y1o", "y2o", "y3o", "zo", "zinv"):
            sym = "z^-1" if kind == "zinv" else kind
            if mono == "1":
                expected = sym
            else:
                expected = mono if kind == "1" else f"{mono}*{sym}"
            assert rw.piece_text((a, b, kind)) == expected


# -- the tilings in one pass over the points, against f_n, f_(n-1), f_(n-2) ---


def test_one_pass_tilings_match_the_three_point_sums():
    pieces = rw._open_pieces_sum()
    down = parse_poly("x1*x2*z^-1")
    for n in range(31):
        points = rw.triangle_points_poly
        assert rw.triangle_tiling(n) == (points(n) + points(n - 1) * pieces
                                         + points(n - 2) * down)
        row = rw.homogeneous_sum
        strip = row(n + 1) + row(n) * pieces + row(n - 1) * down
        assert rw.strip_identity(n + 1) == parse_poly(f"z^{n + 1} - z^{n}") - strip


def test_second_normal_form_from_given_pieces():
    for s in (TRI, geo.grid_set(0, 2, 0, 2, 1, 3), geo.grid_set(-1, 3, 0, 4, 1, 5)):
        pieces = rw.second_normal_form_pieces(s)
        assert rw.second_normal_form(s, pieces) == rw.second_normal_form(s)


# -- decompose_cells' order is the piece order, with no sort ------------------


def test_pieces_come_in_piece_order_then_by_anchor(rng):
    order = {kind: i for i, kind in enumerate(rw._PIECE_POLY)}
    polygons = [random_gridset(rng, span=5) for _ in range(200)]
    polygons += [geo.scale(TRI, n) for n in range(31)] + [geo.grid_set(0, 8, 0, 8, 4, 12)]
    for s in polygons:
        pieces = rw.second_normal_form_pieces(s)
        assert pieces == tuple(sorted(pieces, key=lambda t: (order[t[2]], t[0], t[1])))
