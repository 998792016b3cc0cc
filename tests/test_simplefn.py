from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minkring.geometry as geo
import minkring.simplefn as sf
from minkring.laurent import LaurentPoly, monomial
from minkring.presentations import box_ring, coxeter_ring
from minkring.products import product_presentation
from minkring.scalars import Scalar
from conftest import random_family_polytope, random_gridset, random_interval

TRI = geo.unit_triangle()
OA_EDGE = geo.grid_set(0, 1, 0, 0, 0, 1)
OB_EDGE = geo.grid_set(0, 0, 0, 1, 0, 1)


def test_indicator_interior_of_edge():
    open_edge = sf.indicator(OA_EDGE, "interior")
    assert open_edge.terms == {geo.GridEdgeU(0, 0): 1}
    closed = sf.indicator(OA_EDGE)
    endpoints = sf.indicator(geo.grid_point_set(0, 0)) + sf.indicator(
        geo.grid_point_set(1, 0))
    assert open_edge == closed - endpoints


def test_indicator_interior_of_point_and_triangle():
    pt = geo.grid_point_set(2, 2)
    assert sf.indicator(pt, "interior") == sf.indicator(pt)
    assert sf.indicator(TRI, "interior").terms == {geo.GridTriUp(0, 0): 1}


def test_combine_examples():
    f = sf.indicator(TRI)
    assert sf.is_zero(sf.combine([1, -1], [f, f]))
    beta = Scalar.sqrt2()
    g = sf.indicator(geo.interval(0, beta))
    assert sf.combine([1], [g]) == g
    # [0,1] + [1,2] - {1} merges to [0,2]
    merged = sf.combine(
        [1, 1, -1],
        [sf.indicator(geo.interval(0, 1)), sf.indicator(geo.interval(1, 2)),
         sf.indicator(geo.line_point(1))])
    assert merged == sf.indicator(geo.interval(0, 2))
    for point, expected in [(0, 1), (Fraction(1, 2), 1), (1, 1),
                            (Fraction(3, 2), 1), (2, 1), (3, 0)]:
        assert sf.evaluate_at(merged, Scalar.of(point)) == expected


def test_combine_ambient_mismatch():
    with pytest.raises(sf.AmbientMismatchError):
        sf.combine([1, 1], [sf.indicator(TRI), sf.indicator(geo.box((0,), (1,)))])


def test_multiply_edges_give_rhombus():
    prod = sf.multiply(sf.indicator(OA_EDGE), sf.indicator(OB_EDGE))
    assert prod == sf.indicator(geo.grid_set(0, 1, 0, 1, 0, 2))


def test_multiply_unit():
    one = sf.unit(geo.GridPlane())
    f = sf.indicator(TRI) - 2 * sf.indicator(OA_EDGE, "interior")
    assert sf.multiply(one, f) == f


def test_squared_negated_open_interval():
    # the inverse of a unit segment is minus the reflected open segment;
    # its square is minus the open segment of length two
    f = -1 * sf.indicator(geo.interval(-1, 0), "interior")
    square = sf.multiply(f, f)
    assert square == -1 * sf.indicator(geo.interval(-2, 0), "interior")


def test_evaluate_examples():
    assert sf.evaluate_at(sf.indicator(geo.line_point(0)), Scalar.of(0)) == 1
    beta = Scalar.sqrt2()
    f = sf.indicator(geo.interval(0, beta)) - sf.indicator(geo.line_point(beta, "sqrt2"))
    assert sf.evaluate_at(f, beta) == 0
    assert sf.evaluate_at(f, beta / 2) == 1
    rhombus = sf.indicator(geo.grid_set(0, 1, 0, 1, 0, 2))
    assert sf.evaluate_at(rhombus, (Fraction(1, 2), Fraction(1, 2))) == 1


def test_is_zero_examples():
    f = sf.indicator(geo.interval(0, 1)) - sf.indicator(geo.interval(0, 2))
    assert not sf.is_zero(f)
    assert sf.evaluate_at(f, Scalar.of(Fraction(3, 2))) == -1
    assert sf.is_zero(sf.indicator(TRI) - sf.indicator(TRI))


def test_euler_characteristic():
    assert sf.euler_char(sf.indicator(TRI)) == 1
    assert sf.euler_char(sf.zero(geo.GridPlane())) == 0
    assert sf.euler_char(sf.indicator(OA_EDGE, "interior")) == -1


def test_multiply_commutative_associative(rng):
    pool = [random_gridset(rng, span=1) for _ in range(6)]

    def rand_fn():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            f = sf.indicator(rng.choice(pool))
            for cell, q in f.terms.items():
                terms[cell] = terms.get(cell, Fraction(0)) + q * rng.randint(-2, 2)
        return sf.SimpleFunction(geo.GridPlane(), terms)

    for _ in range(5):
        f, g, h = rand_fn(), rand_fn(), rand_fn()
        assert sf.multiply(f, g) == sf.multiply(g, f)
        assert sf.multiply(sf.multiply(f, g), h) == sf.multiply(f, sf.multiply(g, h))


def test_indicator_is_multiplicative_on_sums(rng):
    pool = [random_family_polytope(rng) for _ in range(20)]
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        try:
            total = geo.minkowski_sum(a, b)
        except geo.FamilyMismatchError:
            continue
        assert sf.indicator(total) == sf.multiply(sf.indicator(a), sf.indicator(b))


def test_euler_multiplicative_on_indicators(rng):
    for _ in range(10):
        a = random_gridset(rng)
        b = random_gridset(rng)
        prod = sf.multiply(sf.indicator(a), sf.indicator(b))
        assert sf.euler_char(prod) == 1 == sf.euler_char(sf.indicator(a)) * \
            sf.euler_char(sf.indicator(b))


def _hull(a, b):
    if isinstance(a, geo.GridSet):
        return geo.grid_set(min(a.u_min, b.u_min), max(a.u_max, b.u_max),
                            min(a.v_min, b.v_min), max(a.v_max, b.v_max),
                            min(a.s_min, b.s_min), max(a.s_max, b.s_max))
    if isinstance(a, geo.Box):
        return geo.Box(tuple(min(x, y) for x, y in zip(a.los, b.los)),
                       tuple(max(x, y) for x, y in zip(a.his, b.his)))
    lo = a.lo if (b.lo - a.lo).sign() >= 0 else b.lo
    hi = a.hi if (a.hi - b.hi).sign() >= 0 else b.hi
    return geo.Interval(lo, hi, a.mode)


def test_equal_indicator_sums_have_equal_counts(rng):
    # swap two summands U, V for their union and intersection whenever the
    # union is convex; counts and the summed function must both survive
    for _ in range(15):
        summands = [random_gridset(rng, span=2) for _ in range(rng.randint(2, 5))]
        total = sf.combine([1] * len(summands), [sf.indicator(p) for p in summands])
        assert sf.euler_char(total) == len(summands)
        swapped = list(summands)
        swaps = 0
        for _ in range(10):
            i, j = rng.randrange(len(swapped)), rng.randrange(len(swapped))
            if i == j:
                continue
            u, v = swapped[i], swapped[j]
            try:
                meet = geo.intersect(u, v)
            except geo.EmptyRegionError:
                continue
            join = _hull(u, v)
            glued = sf.combine([1, 1, -1],
                               [sf.indicator(u), sf.indicator(v), sf.indicator(meet)])
            if glued == sf.indicator(join):
                swapped[i], swapped[j] = join, meet
                swaps += 1
        total2 = sf.combine([1] * len(swapped), [sf.indicator(p) for p in swapped])
        assert total2 == total or swaps == 0
        if swaps:
            assert len(swapped) == len(summands)
            assert sf.euler_char(total2) == len(summands)


def test_line_canonicalization_preserves_values(rng):
    for _ in range(20):
        pool = [random_interval(rng) for _ in range(4)]
        coeffs = [rng.randint(-3, 3) for _ in pool]
        f = sf.combine(coeffs, [sf.indicator(p) for p in pool])
        endpoints = sorted({p.lo for p in pool} | {p.hi for p in pool})
        samples = set(endpoints)
        for a, b in zip(endpoints, endpoints[1:]):
            samples.add((a + b) / 2)
        samples.add(endpoints[0] - 1)
        samples.add(endpoints[-1] + 1)
        for t in samples:
            direct = sum(c for c, p in zip(coeffs, pool)
                         if geo.contains_point(p, t))
            assert sf.evaluate_at(f, t) == direct


def test_zero_iff_vanishes_at_refinement_points(rng):
    for _ in range(10):
        pool = [random_interval(rng) for _ in range(3)]
        coeffs = [rng.randint(-2, 2) for _ in pool]
        f = sf.combine(coeffs, [sf.indicator(p) for p in pool])
        points = sorted({p.lo for p in pool} | {p.hi for p in pool},
                        key=lambda s: (s.p, s.q))
        samples = list(points)
        values = sorted(points)
        for a, b in zip(values, values[1:]):
            samples.append((a + b) / 2)
        vanishes = all(sf.evaluate_at(f, t) == 0 for t in samples)
        assert sf.is_zero(f) == vanishes


def _line_value(terms, t):
    """Value at t of a raw 1-D term map, summed term by term."""
    total = Fraction(0)
    for c, q in terms.items():
        if isinstance(c, geo.Point1D):
            total += q if c.at == t else 0
        elif (t - c.lo).sign() > 0 and (c.hi - t).sign() > 0:
            total += q
    return total


def test_line_canonical_form_of_raw_cells(rng):
    ambient = geo.Line("sqrt2")
    for _ in range(200):
        pool = sorted({Scalar(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-1, 1)))
                       for _ in range(rng.randint(2, 6))})
        raw = {}
        for _ in range(rng.randint(1, 8)):
            q = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 3]))
            if len(pool) < 2 or rng.random() < 0.4:
                cell = geo.Point1D(rng.choice(pool))
            else:
                lo, hi = sorted(rng.sample(pool, 2))
                cell = geo.OpenInterval1D(lo, hi)
            raw[cell] = raw.get(cell, 0) + q
        f = sf.SimpleFunction(ambient, raw)
        samples = pool + [(a + b) / 2 for a, b in zip(pool, pool[1:])]
        samples += [pool[0] - 1, pool[-1] + 1]
        for t in samples:
            assert _line_value(f.terms, t) == _line_value(raw, t)
        # Splitting every open interval at the breakpoints inside it
        # describes the same function, so it has the same canonical form.
        refined = {}
        for cell, q in raw.items():
            if isinstance(cell, geo.Point1D):
                pieces = [cell]
            else:
                cuts = [cell.lo] + [t for t in pool
                                    if (t - cell.lo).sign() > 0
                                    and (cell.hi - t).sign() > 0] + [cell.hi]
                pieces = [geo.OpenInterval1D(a, b) for a, b in zip(cuts, cuts[1:])]
                pieces += [geo.Point1D(t) for t in cuts[1:-1]]
            for piece in pieces:
                refined[piece] = refined.get(piece, 0) + q
        assert sf.SimpleFunction(ambient, refined).terms == f.terms
        # Runs are maximal: two runs of one value never meet at a point of
        # that value, and no point correction sits inside a run.
        runs = {c.lo: (c.hi, q) for c, q in f.terms.items()
                if isinstance(c, geo.OpenInterval1D)}
        for lo, (hi, q) in runs.items():
            if hi in runs and runs[hi][1] == q:
                assert f.terms.get(geo.Point1D(hi), 0) != q
            assert not any(isinstance(c, geo.Point1D) and (c.at - lo).sign() > 0
                           and (hi - c.at).sign() > 0 for c in f.terms)


# -- evaluate_at looks up the one cell of a point off the line ------------------


EVAL_RINGS = {
    "coxeter": coxeter_ring,
    "box:2": lambda: box_ring(2, signed=True),
    "box:3": lambda: box_ring(3, signed=True),
    "box:1 x coxeter": lambda: product_presentation(
        box_ring(1, signed=True), coxeter_ring()).combined,
}


def _holds(c, x) -> bool:
    """x in the open cell c, from its closure's bounds written out per form:
    equal to a pinned bound, strictly between free ones."""
    closure = geo.cell_closure(c)
    values = [sum(k * xi for k, xi in zip(row, x)) for row in closure.arrangement.forms]
    return all(v == lo if lo == hi else lo < v < hi
               for lo, hi, v in zip(closure.los, closure.his, values))


def _scan(f, x) -> Fraction:
    """The value at x by testing every cell of f for x, apart from the
    signatures and the cell tables."""
    return sum((q for c, q in f.terms.items() if _holds(c, x)), Fraction(0))


def _anchor(c):
    return c[1:]


@pytest.mark.parametrize("ring_id", sorted(EVAL_RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluate_at_matches_the_scan_of_every_cell(ring_id, data):
    ring = EVAL_RINGS[ring_id]()
    terms = data.draw(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(ring.names()), st.integers(-2, 2), max_size=3),
        st.integers(-3, 3).filter(bool)), min_size=1, max_size=3))
    coeffs: dict = {}
    for exps, c in terms:
        m = monomial(exps)
        coeffs[m] = coeffs.get(m, 0) + c
    f = ring.phi(LaurentPoly(coeffs))
    cells = sorted(f.terms, key=geo.cell_sort_key)
    sampled = data.draw(st.lists(st.sampled_from(cells), max_size=12)) if cells else []

    def point(coordinate):
        return data.draw(st.tuples(*[coordinate] * ring.ambient.d))

    points = [geo.cell_representative(c) for c in sampled]
    points += [_anchor(c) for c in sampled]
    points += [point(st.integers(-6, 6)) for _ in range(4)]
    points += [point(st.integers(-36, 36).map(lambda k: Fraction(k, 6))) for _ in range(8)]
    for x in points:
        value = sf.evaluate_at(f, x)
        assert type(value) is Fraction and value == _scan(f, x)
    for c in sampled:
        assert sf.evaluate_at(f, geo.cell_representative(c)) == f.terms[c] != 0


def test_public_results_carry_fraction_weights(rng):
    for _ in range(20):
        p, q = random_family_polytope(rng), random_family_polytope(rng)
        results = [sf.indicator(p), sf.indicator(p, "interior"), sf.unit(geo.ambient_of(p)),
                   sf.combine([Fraction(1, 2), 3], [sf.indicator(p), sf.indicator(p)])]
        if geo.ambient_of(p) == geo.ambient_of(q):
            results += [sf.multiply(sf.indicator(p), sf.indicator(q, "interior")),
                        sf.multiply_by_indicator(sf.indicator(p, "interior"), q)]
        for f in results:
            assert all(type(w) is Fraction and w for w in f.terms.values())
