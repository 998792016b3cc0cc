"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import minkring.geometry as geo
import minkring.identities as ids
import minkring.rewriting as rw
import minkring.simplefn as sf
from minkring.cli import main, parse_poly
from minkring.laurent import LaurentPoly
from minkring.presentations import (box_ring, coxeter_nonredundancy_witnesses,
                                    coxeter_ring, interval_ring,
                                    minimality_witness)
from minkring.products import (product_presentation, random_ideal_element)
from minkring.scalars import Scalar
from conftest import random_family_polytope, random_gridset

GOLDEN = Path(__file__).parent / "golden"
SQRT2 = Scalar.sqrt2()


def report(num, text):
    print(f"criterion {num:2d} PASS - {text}")


def test_c01_coxeter_soundness():
    ring = coxeter_ring()
    assert len(ring.declared) == 9
    for g in ring.declared:
        assert ring.kernel_member(g)
    report(1, "all 9 grid-ring generators lie in the kernel (exact)")


def test_c02_coxeter_minimality():
    ring = coxeter_ring()
    witnesses = coxeter_nonredundancy_witnesses()
    assert sorted(idx for idx, _ in witnesses) == list(range(9))
    full = [w for _, w in witnesses if len(w) == len(ring.names())]
    partial = [w for _, w in witnesses if len(w) < len(ring.names())]
    assert len(full) == 6 and len(partial) == 3
    for idx, assignment in witnesses:
        assert minimality_witness(ring, idx, assignment)
    report(2, "all 9 non-redundancy witnesses pass (6 full, 3 univariate)")


def test_c03_triangle_power_tilings():
    ring = coxeter_ring()
    ones = {"x1": Fraction(1), "x2": Fraction(1)}
    for n in range(1, 9):
        diff = LaurentPoly.var("z", n) - rw.triangle_tiling(n)
        assert ring.kernel_member(diff)
        count = rw.triangle_points_poly(n).substitute(ones).constant_value()
        assert count == Fraction((n + 1) * (n + 2), 2)
    report(3, "z^n tiling holds for n = 1..8 with exact lattice counts")


def test_c04_strip_identities():
    for n in range(1, 7):
        assert rw.verify_strip(n)
    assert coxeter_ring().kernel_member(rw.core_identity())
    report(4, "strip identities hold for n = 1..6 including the core relation")


def test_c05_edge_tilings_and_signed_inverse():
    for axis in ("y1", "y2", "y3", "y"):
        for n in range(1, 11):
            assert rw.verify_edge_tiling(axis, n)
    signed = box_ring(1, signed=True)
    assert signed.kernel_member(parse_poly("y^-1 - 1 - x^-1 + x^-1*y"))
    report(5, "edge tilings pass for n = 1..10 and the signed inverse identity holds")


def _interval_value(alpha, beta, i, j):
    return alpha * i + beta * j


def test_c06_interval_ring_catalog():
    cases = [(Scalar.of(0), Scalar.of(2)), (Scalar.of(1), SQRT2),
             (Scalar.of(1), Scalar.of(2)), (Scalar.of(-1), Scalar.of(2))]
    for alpha, beta in cases:
        ring = interval_ring(alpha, beta)
        for g in ring.declared:
            assert ring.kernel_member(g)

    # the sqrt2 case separates all 16 monomials pairwise: 16*15 ordered pairs
    ring = interval_ring(Scalar.of(1), SQRT2)
    pairs = 0
    exps = [(i, j) for i in range(4) for j in range(4)]
    for (i, j), (k, l) in itertools.product(exps, exps):
        if (i, j) == (k, l):
            continue
        diff = LaurentPoly.term({"x": i, "y": j}) - LaurentPoly.term({"x": k, "y": l})
        assert not ring.kernel_member(diff)
        pairs += 1
    assert pairs == 16 * 15

    # rational cases: a binomial is in the kernel exactly when the two
    # endpoint combinations agree as exact numbers
    for alpha, beta in [(Scalar.of(1), Scalar.of(2)), (Scalar.of(-1), Scalar.of(2))]:
        ring = interval_ring(alpha, beta)
        for (i, j), (k, l) in itertools.product(exps, exps):
            if (i, j) == (k, l):
                continue
            diff = LaurentPoly.term({"x": i, "y": j}) - \
                LaurentPoly.term({"x": k, "y": l})
            expected = _interval_value(alpha, beta, i, j) == \
                _interval_value(alpha, beta, k, l)
            assert ring.kernel_member(diff) == expected
    report(6, "interval catalog: declared generators and exact binomial lattice")


def _iff_mismatches(p):
    fs = list(geo.faces(p))
    verts = geo.vertices(p)
    vert_points = [geo.vertex_coords(v) for v in verts]
    in_face = [[geo.contains_point(f, pt) for pt in vert_points] for f in fs]
    unit = sf.unit(p.ambient)
    stats = {"checked": 0, "mismatches": 0}

    def rec(i, fn, covered, any_chosen):
        if i == len(fs):
            if any_chosen:
                stats["checked"] += 1
                holds = fn is None or sf.is_zero(fn)
                covers = all(covered)
                if holds != covers:
                    stats["mismatches"] += 1
            return
        rec(i + 1, fn, covered, any_chosen)
        if fn is None:
            new_fn = None
        else:
            new_fn = sf.multiply_by_indicator(fn, p) - \
                sf.multiply_by_indicator(fn, fs[i])
            if sf.is_zero(new_fn):
                new_fn = None
        new_covered = [c or hit for c, hit in zip(covered, in_face[i])]
        rec(i + 1, new_fn, new_covered, True)

    rec(0, unit, [False] * len(verts), False)
    return stats


def test_c07_identity_iff_law():
    tri_stats = _iff_mismatches(geo.unit_triangle())
    assert tri_stats["checked"] == 127
    assert tri_stats["mismatches"] == 0
    sq_stats = _iff_mismatches(geo.box((0, 0), (1, 1)))
    assert sq_stats["checked"] == 511
    assert sq_stats["mismatches"] == 0
    report(7, "identity iff vertex cover: 127 + 511 subsets, zero mismatches")


def test_c08_minimal_antichains():
    tri = geo.unit_triangle()
    O, A, B = (geo.grid_point_set(0, 0), geo.grid_point_set(1, 0),
               geo.grid_point_set(0, 1))
    OA = geo.grid_set(0, 1, 0, 0, 0, 1)
    OB = geo.grid_set(0, 0, 0, 1, 0, 1)
    AB = geo.grid_set(0, 1, 0, 1, 1, 1)
    got = {frozenset(s.faces) for s in ids.minimal_antichains(tri)}
    assert got == {
        frozenset({O, AB}), frozenset({A, OB}), frozenset({B, OA}),
        frozenset({OA, OB}), frozenset({OA, AB}), frozenset({OB, AB}),
    }
    seg = geo.interval(0, 1)
    minimal = ids.minimal_antichains(seg)
    assert len(minimal) == 1
    assert set(minimal[0].faces) == {geo.line_point(0), geo.line_point(1)}
    report(8, "minimal antichains: the 6 triangle patterns and the endpoint pair")


def _hull(a, b):
    if isinstance(a, geo.GridSet):
        return geo.grid_set(min(a.u_min, b.u_min), max(a.u_max, b.u_max),
                            min(a.v_min, b.v_min), max(a.v_max, b.v_max),
                            min(a.s_min, b.s_min), max(a.s_max, b.s_max))
    raise TypeError


def test_c09_euler_homomorphism():
    rng = random.Random(9)
    for _ in range(50):
        p = random_family_polytope(rng)
        assert sf.euler_char(sf.indicator(p)) == 1

    checked = 0
    while checked < 50:
        summands = [random_gridset(rng, span=2) for _ in range(rng.randint(2, 5))]
        total = sf.combine([1] * len(summands), [sf.indicator(q) for q in summands])
        swapped, swaps = list(summands), 0
        for _ in range(12):
            i, j = rng.randrange(len(swapped)), rng.randrange(len(swapped))
            if i == j:
                continue
            u, v = swapped[i], swapped[j]
            try:
                meet = geo.intersect(u, v)
            except geo.EmptyRegionError:
                continue
            join = _hull(u, v)
            glued = sf.combine([1, 1, -1], [sf.indicator(u), sf.indicator(v),
                                            sf.indicator(meet)])
            if glued == sf.indicator(join):
                swapped[i], swapped[j] = join, meet
                swaps += 1
        total2 = sf.combine([1] * len(swapped), [sf.indicator(q) for q in swapped])
        assert total2 == total
        assert len(swapped) == len(summands)
        assert sf.euler_char(total) == len(summands)
        checked += 1
    report(9, "Euler value 1 on 50 random polytopes; equal sums keep counts (50)")


def test_c10_products():
    d1 = box_ring(1, signed=True)
    pp11 = product_presentation(d1, d1)
    for g in pp11.combined.declared:
        assert pp11.combined.kernel_member(g)

    pp12 = product_presentation(d1, coxeter_ring())
    assert len(pp12.combined.declared) == 10
    for g in pp12.combined.declared:
        assert pp12.combined.kernel_member(g)

    from minkring.products import verify_tensor_identity
    assert verify_tensor_identity(pp11, bound=2, samples=10)
    assert verify_tensor_identity(pp12, bound=2, samples=10)

    rng = random.Random(10)
    ones = {n: Fraction(1) for n in pp12.combined.names()}
    for _ in range(100):
        f = random_ideal_element(pp12, rng)
        fl, fr = pp12.split(f)
        assert pp12.left.kernel_member(fl)
        assert pp12.right.kernel_member(fr)
        assert f.substitute(ones).is_zero()
    report(10, "products: box and prism ideals, tensor identity, 100 splits")


def test_c11_power_closure():
    catalog = []
    for mode in ("polynomial", "laurent"):
        for alpha, beta in [(0, 2), (1, SQRT2), (1, 2), (-1, 2)]:
            catalog.append(interval_ring(Scalar.of(alpha), Scalar.of(beta), mode))
    for d in (1, 2, 3):
        catalog.append(box_ring(d))
        catalog.append(box_ring(d, signed=True))
    catalog.append(coxeter_ring())
    for ring in catalog:
        powers = (-2, -1, 2, 3) if ring.mode == "laurent" else (2, 3)
        for g in ring.declared:
            for i in powers:
                assert ring.kernel_member(g.power_map(i))
    report(11, "power closure of every declared generator across the catalog")


def _anchored_gridsets(max_n):
    for n in range(max_n + 1):
        for m1 in range(n + 1):
            for m2 in range(n + 1):
                for m3 in range(n + 1):
                    if m1 + m2 > n or m1 + m3 > n or m2 + m3 > n:
                        continue
                    yield geo.grid_set(0, n - m2, 0, n - m1, m3, n)


def test_c12_normal_form_roundtrip():
    ring = coxeter_ring()
    count = 0
    for base in _anchored_gridsets(4):
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                s = geo.translate(base, (da, db))
                target = sf.indicator(s)
                assert ring.phi(rw.first_normal_form(s)[1]) == target
                assert ring.phi(rw.second_normal_form(s)) == target
                count += 1
    assert count >= 9 * 35
    report(12, f"normal-form round trips: {count} polygon placements exact")


def test_c13_cli_golden_and_roundtrip():
    rng = random.Random(13)
    names = ["x1", "x2", "y1", "y2", "y3", "z"]
    for _ in range(1000):
        poly = LaurentPoly.zero()
        for _ in range(rng.randint(0, 5)):
            exps = {rng.choice(names): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 3))}
            poly = poly + LaurentPoly.term(
                exps, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        assert parse_poly(poly.to_text()) == poly

    import io
    cases = [
        ("member_g1.txt", ["member", "--ring", "coxeter", "(y1-1)*(y1-x1)"]),
        ("member_x1.txt", ["member", "--ring", "coxeter", "x1"]),
        ("identity_triangle.txt",
         ["identity", "--polytope", "triangle", "--cover", "edge:OA,vertex:B"]),
    ]
    for fname, argv in cases:
        out = io.StringIO()
        assert main(argv, out) == 0
        assert out.getvalue().encode() == (GOLDEN / fname).read_bytes()
    report(13, "1000 parser round trips and 3 byte-identical reports")
