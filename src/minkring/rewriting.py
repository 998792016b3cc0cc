"""Normal forms and tilings in the triangular-grid ring.

Every convex grid polygon is a hexagon (with possibly degenerate sides)
obtained by scaling the unit triangle N-fold and capping off scaled
triangles at the three corners.  The *first normal form* encodes that
traversal as a single Laurent polynomial

    x1^a x2^b (z^N - (z^m3 - y3^m3) - x1^(m3+n1) (z^m2 - y2^m2)
                                     - x2^(m3+n2) (z^m1 - y1^m1)),

where the six side lengths satisfy n1+m2+m3 = m1+n2+m3 = m1+m2+n3 = N and
(a, b) translates the polygon so the bottom-left corner of its enclosing
N-triangle sits at the origin.

The *second normal form* tiles the polygon by relatively open pieces: the
lattice point, the three open unit edges, the open unit up-triangle, and
the open unit down-triangle (whose preimage is a monomial multiple of
z^-1).  Expanded into the six-generator alphabet the form maps back to the
polygon's indicator exactly.

The n-th triangle power tiles as

    z^n = f_n + f_(n-1) (y1o + y2o + y3o + zo) + f_(n-2) x1 x2 z^-1

modulo the kernel, with f_k the sum of all monomials x1^i x2^j of total
degree at most k; the strip identities reduce that claim step by step to
the core relation (y3 - x1)(z - 1) = x2 (z - 1 - x1 + x1 z^-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import geometry as geo
from .geometry import (GridEdgeS, GridEdgeU, GridEdgeV, GridSet, GridTriDown,
                       GridTriUp, GridVertex)
from .laurent import LaurentPoly, fold_terms, mono_mul, mono_text, monomial, poly_sum
from .presentations import box_ring, coxeter_ring

_X1 = LaurentPoly.var("x1")
_X2 = LaurentPoly.var("x2")
_Y = {i: LaurentPoly.var(f"y{i}") for i in (1, 2, 3)}
_Z = LaurentPoly.var("z")


# Per edge generator: the exponents of the i-th lattice point (i = 0..k)
# of its k-th power, a segment of length k.
_EDGE_POINT = {
    "y": lambda i, k: {"x": i},
    "y1": lambda i, k: {"x1": i},
    "y2": lambda i, k: {"x2": i},
    "y3": lambda i, k: {"x1": i, "x2": k - i},
}


def _edge_points(axis: str, k: int) -> LaurentPoly:
    """One monomial per lattice point of the k-th power of an edge."""
    return poly_sum(LaurentPoly.term(_EDGE_POINT[axis](i, k)) for i in range(k + 1))


def _open_segment(axis: str) -> LaurentPoly:
    """Preimage of an edge generator's open segment: minus both endpoints."""
    return LaurentPoly.var(axis) - _edge_points(axis, 1)


def open_edge(i: int) -> LaurentPoly:
    """Preimage of the open unit edge in direction i (the y-ring macro)."""
    if i not in (1, 2, 3):
        raise ValueError(f"no edge direction {i}")
    return _open_segment(f"y{i}")


def open_triangle() -> LaurentPoly:
    """Preimage of the open unit up-triangle."""
    return _Z - _Y[1] - _Y[2] - _Y[3] + 1 + _X1 + _X2


_PIECE_POLY = {
    "1": LaurentPoly.const(1),
    "y1o": open_edge(1),
    "y2o": open_edge(2),
    "y3o": open_edge(3),
    "zo": open_triangle(),
    "zinv": LaurentPoly.var("z", -1),
}


@dataclass(frozen=True)
class NormalFormParams:
    """Hexagon traversal data: translation (a, b), scale N, side lengths."""

    a: int
    b: int
    N: int
    n1: int
    n2: int
    n3: int
    m1: int
    m2: int
    m3: int

    def __post_init__(self):
        counts = (self.N, self.n1, self.n2, self.n3, self.m1, self.m2, self.m3)
        if any(c < 0 for c in counts):
            raise ValueError(f"negative traversal count in {self}")
        n1, n2, n3 = self.n1, self.n2, self.n3
        m1, m2, m3 = self.m1, self.m2, self.m3
        if not (n1 + m2 + m3 == m1 + n2 + m3 == m1 + m2 + n3 == self.N):
            raise ValueError(f"inconsistent traversal counts in {self}")


def hexagon_counts(s: GridSet) -> NormalFormParams:
    a, b = s.u_min, s.v_min
    span_u = s.u_max - s.u_min
    span_v = s.v_max - s.v_min
    lo = s.s_min - a - b
    hi = s.s_max - a - b
    return NormalFormParams(
        a=a, b=b, N=hi,
        n1=span_u - lo, n2=span_v - lo, n3=span_u + span_v - hi,
        m1=hi - span_v, m2=hi - span_u, m3=lo,
    )


@lru_cache(maxsize=None)
def first_normal_form(s: GridSet) -> tuple:
    """Traversal parameters and the Laurent preimage x1^a x2^b c_S."""
    p = hexagon_counts(s)
    c = LaurentPoly.var("z", p.N) if p.N else LaurentPoly.const(1)
    if p.m3:
        c = c - (LaurentPoly.var("z", p.m3) - LaurentPoly.var("y3", p.m3))
    if p.m2:
        c = c - LaurentPoly.term({"x1": p.m3 + p.n1}) * (
            LaurentPoly.var("z", p.m2) - LaurentPoly.var("y2", p.m2))
    if p.m1:
        c = c - LaurentPoly.term({"x2": p.m3 + p.n2}) * (
            LaurentPoly.var("z", p.m1) - LaurentPoly.var("y1", p.m1))
    return p, LaurentPoly.term({"x1": p.a, "x2": p.b}) * c


# Each grid cell kind: its piece, and the shift of the piece's anchor from
# the cell's (a down-triangle is z^-1 placed at its top vertex).
_PIECE_OF_CELL = {GridVertex: ("1", 0), GridEdgeU: ("y1o", 0), GridEdgeV: ("y2o", 0),
                  GridEdgeS: ("y3o", 0), GridTriUp: ("zo", 0), GridTriDown: ("zinv", 1)}


def second_normal_form_pieces(s: GridSet) -> tuple:
    """Open-piece terms (a, b, kind) tiling the polygon disjointly, by kind in
    _PIECE_POLY order, then by (a, b): decompose_cells lists the cells so, and
    the down-triangle's shift of both coordinates by 1 keeps that order."""
    pieces = []
    for cell in geo.decompose_cells(s):
        kind, shift = _PIECE_OF_CELL[type(cell)]
        u, v = cell[1:]
        pieces.append((u + shift, v + shift, kind))
    return tuple(pieces)


def second_normal_form(s: GridSet, pieces=None) -> LaurentPoly:
    """The open-piece tiling expanded into the six-generator alphabet, in one
    fold, from s's :func:`second_normal_form_pieces` when they are given."""
    pieces = second_normal_form_pieces(s) if pieces is None else pieces
    anchored = [(monomial({"x1": a, "x2": b}), _PIECE_POLY[kind].terms.items())
                for a, b, kind in pieces]
    return fold_terms((mono_mul(at, m), c) for at, piece in anchored for m, c in piece)


def piece_text(piece) -> str:
    a, b, kind = piece
    mono = tuple((name, e) for name, e in (("x1", a), ("x2", b)) if e)
    sym = "z^-1" if kind == "zinv" else kind
    if not mono:
        return sym
    return mono_text(mono) if kind == "1" else f"{mono_text(mono)}*{sym}"


# ---------------------------------------------------------------------------
# tilings of generator powers


def homogeneous_sum(k: int) -> LaurentPoly:
    """Sum of all monomials x1^i x2^(k-i); zero for negative k."""
    return poly_sum(LaurentPoly.term({"x1": i, "x2": k - i}) for i in range(k + 1))


def triangle_points_poly(n: int) -> LaurentPoly:
    """f_n: one monomial per lattice point of the side-n triangle; zero
    for negative n."""
    return poly_sum(homogeneous_sum(k) for k in range(n + 1))


def _open_pieces_sum() -> LaurentPoly:
    return open_edge(1) + open_edge(2) + open_edge(3) + open_triangle()


def _tiling(n: int, row: bool = False) -> LaurentPoly:
    """f(n) + f(n-1) * (open edges + open triangle) + f(n-2) * x1 x2 z^-1 in one
    pass over the points x1^i x2^j of degree d = i + j <= n: f(k) is the side-k
    triangle, d <= k (triangle_points_poly), or its row d = k (homogeneous_sum)."""
    layers = (LaurentPoly.const(1), _open_pieces_sum(), _X1 * _X2 * LaurentPoly.var("z", -1))
    # Each piece is x1^a x2^b (a, b >= 0) times names sorted after x2, so its
    # product with a point joins the point's shifted powers and the rest.
    split = [[(dict(m).get("x1", 0), dict(m).get("x2", 0),
               tuple(p for p in m if p[0] > "x2"), c) for m, c in layer.terms.items()]
             for layer in layers]
    x1s, x2s = ([((x, e),) if e else () for e in range(n + 2)] for x in ("x1", "x2"))
    pairs = []
    for d in range(max(n - 2, 0) if row else 0, n + 1):
        used = [split[t] for t in range(3) if d == n - t or (d < n - t and not row)]
        for i in range(d + 1):
            pairs += [(x1s[a + i] + x2s[b + d - i] + rest, c)
                      for pieces in used for a, b, rest, c in pieces]
    return fold_terms(pairs)


def triangle_tiling(n: int) -> LaurentPoly:
    """Tiling of z^n by open pieces: f_n + f_(n-1)*(edges+triangle)
    + f_(n-2)*x1*x2*z^-1.  n = 0 returns 1."""
    if n < 0:
        raise ValueError("triangle_tiling needs n >= 0")
    return _tiling(n)


def edge_tiling(axis: str, n: int) -> LaurentPoly:
    """Tiling of the n-th power of an edge generator by points and open
    unit edges.  Axis 'y' addresses the 1-D box ring alphabet (x, y)."""
    if n < 1:
        raise ValueError("edge_tiling needs n >= 1")
    if axis not in _EDGE_POINT:
        raise ValueError(f"unknown axis {axis!r}")
    return _edge_points(axis, n) + _open_segment(axis) * _edge_points(axis, n - 1)


def edge_tiling_ring(axis: str):
    return box_ring(1) if axis == "y" else coxeter_ring()


def verify_edge_tiling(axis: str, n: int) -> bool:
    power = LaurentPoly.var(axis, n)
    return edge_tiling_ring(axis).kernel_member(power - edge_tiling(axis, n))


def verify_triangle_tiling(n: int) -> bool:
    return coxeter_ring().kernel_member(LaurentPoly.var("z", n) - triangle_tiling(n))


# ---------------------------------------------------------------------------
# the strip identities


def strip_identity(n: int) -> LaurentPoly:
    """z^n - z^(n-1) minus its open-piece tiling (one hexagonal strip)."""
    if n < 1:
        raise ValueError("strip_identity needs n >= 1")
    lhs = LaurentPoly.var("z", n) - LaurentPoly.var("z", n - 1)
    return lhs - _tiling(n, row=True)


def strip_edge_identity(n: int) -> LaurentPoly:
    """The same strip expressed through the slanted edge power:
    y3^(n-1) z - y3^(n-1) minus the tiling."""
    if n < 1:
        raise ValueError("strip_edge_identity needs n >= 1")
    e = LaurentPoly.var("y3", n - 1) if n > 1 else LaurentPoly.const(1)
    lhs = e * _Z - e
    return lhs - _tiling(n, row=True)


def core_identity() -> LaurentPoly:
    """(y3 - x1)(z - 1) - x2 (z - 1 - x1 + x1 z^-1)."""
    zinv = LaurentPoly.var("z", -1)
    return (_Y[3] - _X1) * (_Z - 1) - _X2 * (_Z - 1 - _X1 + _X1 * zinv)


def verify_strip(n: int) -> bool:
    """Check the strip identity at n, its edge-power restatement, and the
    core relation; all three must lie in the kernel."""
    ring = coxeter_ring()
    return (ring.kernel_member(strip_identity(n))
            and ring.kernel_member(strip_edge_identity(n))
            and ring.kernel_member(core_identity()))
