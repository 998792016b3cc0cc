"""Shared helpers: independent membership oracles and random generators.

The oracles here deliberately avoid the library's Minkowski-sum and cell
code paths: grid membership is six explicit inequalities over Fractions,
and membership in a sum A + B is decided through feasibility of the
rational bound system of A intersected with x - B.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

import minkring.geometry as geo
from minkring.laurent import LaurentPoly
from minkring.scalars import Scalar


# ---------------------------------------------------------------------------
# independent membership oracles


def naive_grid_member(bounds, point) -> bool:
    u0, u1, v0, v1, s0, s1 = bounds
    u, v = point
    return u0 <= u <= u1 and v0 <= v <= v1 and s0 <= u + v <= s1


def rational_grid_feasible(bounds) -> bool:
    """Feasibility of a six-bound system with rational bounds, by direct
    propagation (independent of the GridSet tightener)."""
    u0, u1, v0, v1, s0, s1 = (Fraction(b) for b in bounds)
    for _ in range(16):
        u0, u1 = max(u0, s0 - v1), min(u1, s1 - v0)
        v0, v1 = max(v0, s0 - u1), min(v1, s1 - u0)
        s0, s1 = max(s0, u0 + v0), min(s1, u1 + v1)
    return u0 <= u1 and v0 <= v1 and s0 <= s1


def naive_sum_member(a: geo.Polytope, b: geo.Polytope, x) -> bool:
    """x in a + b, via nonemptiness of a intersected with (x - b)."""
    if isinstance(a, geo.GridSet):
        u, v = x
        shifted = (u - Fraction(b.u_max), u - Fraction(b.u_min),
                   v - Fraction(b.v_max), v - Fraction(b.v_min),
                   u + v - Fraction(b.s_max), u + v - Fraction(b.s_min))
        merged = (max(shifted[0], Fraction(a.u_min)), min(shifted[1], Fraction(a.u_max)),
                  max(shifted[2], Fraction(a.v_min)), min(shifted[3], Fraction(a.v_max)),
                  max(shifted[4], Fraction(a.s_min)), min(shifted[5], Fraction(a.s_max)))
        return rational_grid_feasible(merged)
    if isinstance(a, geo.Box):
        return all(max(la, xi - hb) <= min(ha, xi - lb)
                   for la, ha, lb, hb, xi
                   in zip(a.los, a.his, b.los, b.his, x))
    if isinstance(a, geo.Interval):
        t = Scalar.of(x)
        lo = a.lo if (a.lo - (t - b.hi)).sign() >= 0 else t - b.hi
        hi = a.hi if ((t - b.lo) - a.hi).sign() >= 0 else t - b.lo
        return (hi - lo).sign() >= 0
    if isinstance(a, geo.ProductPolytope):
        return all(naive_sum_member(pa, pb, xa)
                   for pa, pb, xa in zip(a.parts, b.parts, split_point(a, x)))
    raise TypeError(type(a).__name__)


def split_point(p: geo.ProductPolytope, x) -> tuple:
    """A flat point of a product as one point per part: the parts' blocks of
    coordinates follow each other in the order of the parts."""
    blocks, start = [], 0
    for q in p.parts:
        blocks.append(tuple(x[start:start + q.ambient.d]))
        start += q.ambient.d
    return tuple(blocks)


def bounding_grid_cells(u_lo, u_hi, v_lo, v_hi):
    """All cells of the fixed grid partition inside a coordinate box."""
    cells = []
    for u in range(u_lo, u_hi + 1):
        for v in range(v_lo, v_hi + 1):
            cells.append(geo.GridVertex(u, v))
            if u < u_hi:
                cells.append(geo.GridEdgeU(u, v))
            if v < v_hi:
                cells.append(geo.GridEdgeV(u, v))
            if u < u_hi and v < v_hi:
                cells.append(geo.GridEdgeS(u, v))
                cells.append(geo.GridTriUp(u, v))
                cells.append(geo.GridTriDown(u, v))
    return cells


def sampled_cells(p: geo.LatticeSet) -> set:
    """The cells of a lattice set found by sampling: the cell of every point
    of the fine lattice (1/N)Z^d that lies in p.  Membership and signatures
    are computed here from the arrangement's forms; a kind is looked up by
    its signature at anchor 0, so the table's translation is not used."""
    arr = p.ambient
    n, d = arr.fine, arr.d
    kind_of = {kind.SIGNATURE: kind for kind in arr.kinds}
    cells = set()
    for index in itertools.product(*(range(lo * n, hi * n + 1)
                                     for lo, hi in zip(p.los[:d], p.his[:d]))):
        x = tuple(Fraction(i, n) for i in index)
        values = [sum(c * xi for c, xi in zip(row, x)) for row in arr.forms]
        if not all(lo <= v <= hi for lo, hi, v in zip(p.los, p.his, values)):
            continue
        anchor = tuple(math.floor(xi) for xi in x)
        at_anchor = [sum(c * a for c, a in zip(row, anchor)) for row in arr.forms]
        signature = tuple((math.floor(v) - fa, v.denominator == 1)
                          for v, fa in zip(values, at_anchor))
        cells.add(kind_of[signature](*anchor))
    return cells


def fold_by_copies(polys):
    """The running sum ``out = out + p`` over plain dicts: each step copies
    the whole map and wraps every coefficient in ``Fraction`` again, as
    polynomial assembly did before it folded into one dict."""
    out: dict = {}
    for p in polys:
        step = dict(out)
        for m, c in p.terms.items():
            step[m] = Fraction(step.get(m, 0)) + c
        out = {m: Fraction(c) for m, c in step.items() if c}
    return LaurentPoly(out)


def well_formed(p) -> bool:
    """Every coefficient nonzero, an int when integral and a Fraction with
    denominator > 1 otherwise (the trusted constructor's invariant)."""
    return all(c and (type(c) is int or type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


# ---------------------------------------------------------------------------
# random generators


def random_gridset(rng: random.Random, span: int = 3, offset: int = 2) -> geo.GridSet:
    while True:
        u0 = rng.randint(-offset, offset)
        v0 = rng.randint(-offset, offset)
        u1 = u0 + rng.randint(0, span)
        v1 = v0 + rng.randint(0, span)
        s0 = u0 + v0 + rng.randint(0, span)
        s1 = s0 + rng.randint(0, span)
        try:
            return geo.grid_set(u0, u1, v0, v1, s0, s1)
        except geo.EmptyRegionError:
            continue


def random_box(rng: random.Random, d: int = 2, span: int = 2) -> geo.Box:
    los = tuple(rng.randint(-2, 2) for _ in range(d))
    his = tuple(a + rng.randint(0, span) for a in los)
    return geo.Box(los, his)


def random_interval(rng: random.Random, irrational: bool = False) -> geo.Interval:
    """Ends in Q, or with irrational, each in Q(sqrt 2) half the time."""
    def scalar():
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if irrational and rng.random() < 0.5:
            return Scalar(r, Fraction(rng.randint(-2, 2)))
        return Scalar.of(r)

    a, b = scalar(), scalar()
    if (b - a).sign() < 0:
        a, b = b, a
    return geo.Interval(a, b)


def random_family_polytope(rng: random.Random) -> geo.Polytope:
    kind = rng.randrange(3)
    if kind == 0:
        return random_gridset(rng)
    if kind == 1:
        return random_box(rng, d=rng.randint(1, 2))
    return random_interval(rng)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)
