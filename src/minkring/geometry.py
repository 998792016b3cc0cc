"""Exact geometry of the supported polytope families.

Four families are modeled, each closed under Minkowski sums:

* 1-D closed intervals with endpoints in Q or Q(sqrt 2)   (:class:`Interval`),
* axis-aligned boxes with integer vertices in d dimensions (:class:`Box`),
* convex polygons of the regular triangular grid           (:class:`GridSet`),
* finite Cartesian products of box/grid polytopes          (:class:`ProductPolytope`).

Each family is a system of tight bounds ``lo <= f <= hi`` on fixed linear
forms f: t on the line, the coordinates of a box, and u, v and u + v in
the integer lattice coordinates of the grid, whose lines are their level
lines; a product concatenates its parts' forms.  Tight bounds are the
support function on the forms (McMullen, *The polytope algebra*, 1989),
so sums, dilations, negation, translation, intersection and containment
act on the bounds alone, and a proper face pins a non-constant form to
one of its bounds.  Each family gives its bounds as ``pairs()``, rebuilds
itself from pairs with ``rebuild(pairs)`` (tightening a grid system, whose
forms are dependent) and evaluates its forms at a point with ``forms(x)``.
Empty systems and non-integral box or grid coordinates are rejected.

Every polytope decomposes canonically into relatively open cells: lattice
vertices, open unit edges in the three grid directions, open unit up/down
triangles, 1-D points and open intervals, unit box cells, and products of
those.  A cell is the relative interior of its closure: equality on the
closure's pinned forms (lo == hi), strict bounds on its free ones.  All
values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, Iterable, Tuple, Union

from .scalars import Scalar, ScalarLike


class FamilyMismatchError(ValueError):
    """Operands come from different polytope families or ambient blocks."""


class EmptyRegionError(ValueError):
    """The bound system describes the empty set."""


def _lattice(x) -> int:
    """A coordinate of a lattice family, which must be integral."""
    n = int(x)
    if n != x:
        raise ValueError(f"non-integral lattice coordinate {x!r}")
    return n


# ---------------------------------------------------------------------------
# ambient space descriptors


@dataclass(frozen=True)
class GridPlane:
    """The triangular-lattice plane."""


@dataclass(frozen=True)
class Line:
    """The real line with a scalar mode: 'rational' or 'sqrt2'."""

    mode: str = "rational"


@dataclass(frozen=True)
class BoxSpace:
    dim: int


@dataclass(frozen=True)
class ProductSpace:
    parts: tuple


Ambient = Union[GridPlane, Line, BoxSpace, ProductSpace]


# ---------------------------------------------------------------------------
# polytopes


@dataclass(frozen=True)
class Interval:
    """Closed 1-D interval [lo, hi]; lo == hi gives a point."""

    lo: Scalar
    hi: Scalar
    mode: str = "rational"

    def __post_init__(self):
        if (self.hi - self.lo).sign() < 0:
            raise EmptyRegionError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")
        if self.mode == "rational" and not (self.lo.is_rational and self.hi.is_rational):
            raise ValueError("irrational endpoint in rational-mode interval")

    def pairs(self) -> tuple:
        return ((self.lo, self.hi),)

    def rebuild(self, pairs) -> "Interval":
        return Interval(*pairs[0], self.mode)

    def forms(self, x) -> tuple:
        return (Scalar.of(x),)


def interval(lo: ScalarLike, hi: ScalarLike, mode: str | None = None) -> Interval:
    lo, hi = Scalar.of(lo), Scalar.of(hi)
    if mode is None:
        mode = "rational" if lo.is_rational and hi.is_rational else "sqrt2"
    return Interval(lo, hi, mode)


def line_point(at: ScalarLike, mode: str | None = None) -> Interval:
    return interval(at, at, mode)


@dataclass(frozen=True)
class Box:
    """Product of integer intervals [los[i], his[i]]; degenerate axes allowed."""

    los: Tuple[int, ...]
    his: Tuple[int, ...]

    def __post_init__(self):
        if len(self.los) != len(self.his) or not self.los:
            raise ValueError("box needs matching, nonempty bound tuples")
        for a, b in zip(self.los, self.his):
            if a > b:
                raise EmptyRegionError(f"box needs a_i <= b_i, got [{a}, {b}]")

    def pairs(self) -> tuple:
        return tuple(zip(self.los, self.his))

    def rebuild(self, pairs) -> "Box":
        return Box(*zip(*pairs))

    def forms(self, x) -> tuple:
        return tuple(x)


def box(los: Iterable[int], his: Iterable[int]) -> Box:
    return Box(tuple(_lattice(a) for a in los), tuple(_lattice(b) for b in his))


def box_point(coords: Iterable[int]) -> Box:
    c = tuple(_lattice(x) for x in coords)
    return Box(c, c)


@dataclass(frozen=True)
class GridSet:
    """Canonical convex polygon of the triangular grid (tight bounds)."""

    u_min: int
    u_max: int
    v_min: int
    v_max: int
    s_min: int
    s_max: int

    def __post_init__(self):
        tight = _tighten(*self.bounds())
        if tight != self.bounds():
            raise ValueError(f"grid bounds not canonical: {self} vs {tight}")

    def bounds(self) -> tuple:
        return (self.u_min, self.u_max, self.v_min, self.v_max, self.s_min, self.s_max)

    def pairs(self) -> tuple:
        return ((self.u_min, self.u_max), (self.v_min, self.v_max),
                (self.s_min, self.s_max))

    def rebuild(self, pairs) -> "GridSet":
        (u0, u1), (v0, v1), (s0, s1) = pairs
        return grid_set(u0, u1, v0, v1, s0, s1)

    def forms(self, x) -> tuple:
        u, v = x
        return (u, v, u + v)


def _tighten(u0, u1, v0, v1, s0, s1):
    while True:
        if u0 > u1 or v0 > v1 or s0 > s1:
            raise EmptyRegionError(f"empty grid region {(u0, u1, v0, v1, s0, s1)}")
        nxt = (max(u0, s0 - v1), min(u1, s1 - v0),
               max(v0, s0 - u1), min(v1, s1 - u0),
               max(s0, u0 + v0), min(s1, u1 + v1))
        if nxt == (u0, u1, v0, v1, s0, s1):
            return nxt
        u0, u1, v0, v1, s0, s1 = nxt


def grid_set(u_min: int, u_max: int, v_min: int, v_max: int,
             s_min: int, s_max: int) -> GridSet:
    """Build a canonical GridSet, tightening the six bounds first."""
    return GridSet(*_tighten(u_min, u_max, v_min, v_max, s_min, s_max))


def grid_point_set(u: int, v: int) -> GridSet:
    return GridSet(u, u, v, v, u + v, u + v)


def unit_triangle() -> GridSet:
    return GridSet(0, 1, 0, 1, 0, 1)


@dataclass(frozen=True)
class ProductPolytope:
    """Cartesian product; parts occupy disjoint coordinate blocks.

    Only lattice-cell families (boxes and grid polygons) may appear as
    parts, which keeps the product cell decomposition canonical.
    """

    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("product needs at least two parts")
        for p in self.parts:
            if not isinstance(p, (Box, GridSet)):
                raise FamilyMismatchError(
                    f"product parts must be Box or GridSet, got {type(p).__name__}"
                )

    def pairs(self) -> tuple:
        return tuple(pair for q in self.parts for pair in q.pairs())

    def rebuild(self, pairs) -> "ProductPolytope":
        rest = iter(pairs)  # each part takes as many pairs as it has forms
        return ProductPolytope(tuple(
            q.rebuild(tuple(itertools.islice(rest, len(q.pairs())))) for q in self.parts))

    def forms(self, x) -> tuple:
        return tuple(f for q, xq in zip(self.parts, x) for f in q.forms(xq))


def product(*parts) -> ProductPolytope:
    flat = []
    for p in parts:
        if isinstance(p, ProductPolytope):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return ProductPolytope(tuple(flat))


Polytope = Union[Interval, Box, GridSet, ProductPolytope]


# ---------------------------------------------------------------------------
# basic queries


def ambient_of(p: Polytope) -> Ambient:
    if isinstance(p, Interval):
        return Line(p.mode)
    if isinstance(p, Box):
        return BoxSpace(len(p.los))
    if isinstance(p, GridSet):
        return GridPlane()
    if isinstance(p, ProductPolytope):
        return ProductSpace(tuple(ambient_of(q) for q in p.parts))
    raise TypeError(f"not a polytope: {p!r}")


def origin_of(ambient: Ambient) -> Polytope:
    if isinstance(ambient, Line):
        return Interval(Scalar.of(0), Scalar.of(0), ambient.mode)
    if isinstance(ambient, BoxSpace):
        return box_point((0,) * ambient.dim)
    if isinstance(ambient, GridPlane):
        return grid_point_set(0, 0)
    if isinstance(ambient, ProductSpace):
        return ProductPolytope(tuple(origin_of(a) for a in ambient.parts))
    raise TypeError(f"not an ambient: {ambient!r}")


def dim(p: Polytope) -> int:
    if isinstance(p, Interval):
        return 0 if p.lo == p.hi else 1
    if isinstance(p, Box):
        return sum(1 for a, b in zip(p.los, p.his) if a < b)
    if isinstance(p, GridSet):
        if p.u_min == p.u_max and p.v_min == p.v_max:
            return 0
        if p.u_min == p.u_max or p.v_min == p.v_max or p.s_min == p.s_max:
            return 1
        return 2
    if isinstance(p, ProductPolytope):
        return sum(dim(q) for q in p.parts)
    raise TypeError(f"not a polytope: {p!r}")


def _paired(a: Polytope, b: Polytope):
    """The bound pairs of a and b side by side; both must be one family."""
    if type(a) is not type(b) or ambient_of(a) != ambient_of(b):
        raise FamilyMismatchError(
            f"mismatched families: {type(a).__name__} vs {type(b).__name__}"
        )
    return zip(a.pairs(), b.pairs())


def minkowski_sum(a: Polytope, b: Polytope) -> Polytope:
    """Minkowski sum within one family: the bounds add."""
    return a.rebuild(tuple((la + lb, ha + hb) for (la, ha), (lb, hb) in _paired(a, b)))


def scale(p: Polytope, k: int) -> Polytope:
    """k-fold Minkowski sum of p with itself (dilation); k = 0 gives the
    origin point of the same block."""
    if k < 0:
        raise ValueError("scale needs k >= 0")
    return p.rebuild(tuple((lo * k, hi * k) for lo, hi in p.pairs()))


def negate(p: Polytope) -> Polytope:
    return p.rebuild(tuple((-hi, -lo) for lo, hi in p.pairs()))


def translate(p: Polytope, offset) -> Polytope:
    """p moved by offset, given in the ambient coordinates (Scalar on the
    line, integer tuples elsewhere)."""
    shift = p.forms(offset)
    if not isinstance(p, Interval):
        shift = tuple(_lattice(d) for d in shift)
    return p.rebuild(tuple((lo + d, hi + d) for (lo, hi), d in zip(p.pairs(), shift)))


def contains_point(p: Polytope, x) -> bool:
    """Exact membership of a point given in the ambient coordinates
    (Scalar on the line, Fraction pairs/tuples elsewhere)."""
    return all(lo <= f <= hi for (lo, hi), f in zip(p.pairs(), p.forms(x)))


def contains_polytope(outer: Polytope, inner: Polytope) -> bool:
    return all(ol <= il and ih <= oh for (ol, oh), (il, ih) in _paired(outer, inner))


def intersect(a: Polytope, b: Polytope) -> Polytope:
    """Intersection within one family; raises EmptyRegionError when empty.

    Used as an independent membership oracle: x is in P + Q exactly when
    P meets x - Q.
    """
    return a.rebuild(tuple((max(la, lb), min(ha, hb))
                           for (la, ha), (lb, hb) in _paired(a, b)))


# ---------------------------------------------------------------------------
# face lattice


def polytope_sort_key(p: Polytope):
    if isinstance(p, Interval):
        data = (p.lo.p, p.lo.q, p.hi.p, p.hi.q)
    elif isinstance(p, Box):
        data = p.los + p.his
    elif isinstance(p, GridSet):
        data = p.bounds()
    else:
        data = tuple(polytope_sort_key(q) for q in p.parts)
    return (dim(p), data)


@lru_cache(maxsize=None)
def faces(p: Polytope) -> tuple:
    """All nonempty faces of p, including p itself, in canonical order:
    p, and the faces of each pinning of one non-constant form of p to its
    lower or upper bound, which come through the cache."""
    out = {p}
    pairs = p.pairs()
    for i, (lo, hi) in enumerate(pairs):
        if lo != hi:
            for end in (lo, hi):
                out.update(faces(p.rebuild(pairs[:i] + ((end, end),) + pairs[i + 1:])))
    return tuple(sorted(out, key=polytope_sort_key))


def relint_faces(p: Polytope) -> tuple:
    """(face, sign) pairs of inclusion-exclusion over the face lattice:

        [relint P] = sum over faces F of (-1)^(dim P - dim F) [F]."""
    d = dim(p)
    return tuple((f, (-1) ** (d - dim(f))) for f in faces(p))


def vertices(p: Polytope) -> tuple:
    return tuple(f for f in faces(p) if dim(f) == 0)


def vertex_coords(p: Polytope):
    """Coordinate point of a 0-dimensional polytope, in the coordinates of
    :func:`translate`: the Scalar on the line, integers elsewhere."""
    if dim(p) != 0:
        raise ValueError("vertex_coords needs a 0-dimensional polytope")
    if isinstance(p, Interval):
        return p.lo
    if isinstance(p, Box):
        return p.los
    if isinstance(p, GridSet):
        return (p.u_min, p.v_min)
    return tuple(vertex_coords(q) for q in p.parts)


# ---------------------------------------------------------------------------
# canonical cells


_THIRD, _HALF = Fraction(1, 3), Fraction(1, 2)


@dataclass(frozen=True)
class _GridCell:
    """Relatively open cell of the unit triangulation, anchored at (u, v).

    Each subclass is one row of the cell table: its sort RANK, its DIM, the
    CLOSURE offsets added to the bounds (u, u, v, v, u+v, u+v) of the
    anchor, and an interior POINT as an offset from the anchor.
    """

    u: int
    v: int
    RANK: ClassVar[int]
    DIM: ClassVar[int]
    CLOSURE: ClassVar[tuple]
    POINT: ClassVar[tuple]

    def __hash__(self) -> int:
        # The generated hash would leave out the kind, so the six cells
        # anchored at one (u, v) would share a hash.
        return hash((self.RANK, self.u, self.v))


class GridVertex(_GridCell):
    """Lattice point (u, v)."""

    RANK, DIM, CLOSURE, POINT = 0, 0, (0, 0, 0, 0, 0, 0), (Fraction(0), Fraction(0))


class GridEdgeU(_GridCell):
    """Open unit edge from (u, v) to (u+1, v)."""

    RANK, DIM, CLOSURE, POINT = 1, 1, (0, 1, 0, 0, 0, 1), (_HALF, Fraction(0))


class GridEdgeV(_GridCell):
    """Open unit edge from (u, v) to (u, v+1)."""

    RANK, DIM, CLOSURE, POINT = 2, 1, (0, 0, 0, 1, 0, 1), (Fraction(0), _HALF)


class GridEdgeS(_GridCell):
    """Open unit edge from (u+1, v) to (u, v+1), on the line s = u+v+1."""

    RANK, DIM, CLOSURE, POINT = 3, 1, (0, 1, 0, 1, 1, 1), (_HALF, _HALF)


class GridTriUp(_GridCell):
    """Open triangle with vertices (u, v), (u+1, v), (u, v+1)."""

    RANK, DIM, CLOSURE, POINT = 4, 2, (0, 1, 0, 1, 0, 1), (_THIRD, _THIRD)


class GridTriDown(_GridCell):
    """Open triangle with vertices (u+1, v), (u, v+1), (u+1, v+1)."""

    RANK, DIM, CLOSURE, POINT = 5, 2, (0, 1, 0, 1, 1, 2), (2 * _THIRD, 2 * _THIRD)


_GRID_CELLS = tuple((kind,) + kind.CLOSURE for kind in (
    GridVertex, GridEdgeU, GridEdgeV, GridEdgeS, GridTriUp, GridTriDown))


@dataclass(frozen=True)
class Point1D:
    at: Scalar


@dataclass(frozen=True)
class OpenInterval1D:
    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        if (self.hi - self.lo).sign() <= 0:
            raise ValueError("open interval needs lo < hi")


@dataclass(frozen=True)
class BoxCell:
    """Per axis either the lattice point k or the open unit gap (k, k+1)."""

    axes: tuple  # of (k, is_open)


@dataclass(frozen=True)
class ProductCell:
    parts: tuple


Cell = Union[_GridCell, Point1D, OpenInterval1D, BoxCell, ProductCell]


def cell_dim(c: Cell) -> int:
    if isinstance(c, _GridCell):
        return c.DIM
    if isinstance(c, Point1D):
        return 0
    if isinstance(c, OpenInterval1D):
        return 1
    if isinstance(c, BoxCell):
        return sum(1 for _, open_ in c.axes if open_)
    if isinstance(c, ProductCell):
        return sum(cell_dim(q) for q in c.parts)
    raise TypeError(f"not a cell: {c!r}")


def cell_sort_key(c: Cell):
    if isinstance(c, _GridCell):
        return (c.DIM, c.RANK, c.u, c.v)
    if isinstance(c, Point1D):
        return (0, 0, c.at.p, c.at.q)
    if isinstance(c, OpenInterval1D):
        return (1, 1, c.lo.p, c.lo.q, c.hi.p, c.hi.q)
    if isinstance(c, BoxCell):
        return (cell_dim(c), 0, c.axes)
    if isinstance(c, ProductCell):
        return (cell_dim(c), 9, tuple(cell_sort_key(q) for q in c.parts))
    raise TypeError(f"not a cell: {c!r}")


def cell_closure(c: Cell, line_mode: str | None = None) -> Polytope:
    """The topological closure of a cell, as a family polytope.

    1-D cells carry no scalar-mode tag of their own, so the ambient's mode
    must be supplied to close them inside a sqrt2-mode line; otherwise the
    mode is inferred from the endpoint values.
    """
    if isinstance(c, _GridCell):
        s = c.u + c.v
        return GridSet(*(b + d for b, d in zip((c.u, c.u, c.v, c.v, s, s), c.CLOSURE)))
    if isinstance(c, Point1D):
        return interval(c.at, c.at, line_mode)
    if isinstance(c, OpenInterval1D):
        return interval(c.lo, c.hi, line_mode)
    if isinstance(c, BoxCell):
        return Box(tuple(k for k, _ in c.axes),
                   tuple(k + 1 if open_ else k for k, open_ in c.axes))
    if isinstance(c, ProductCell):
        return ProductPolytope(tuple(cell_closure(q) for q in c.parts))
    raise TypeError(f"not a cell: {c!r}")


def cell_representative(c: Cell):
    """One exact point in the relative interior of the cell."""
    if isinstance(c, _GridCell):
        return (c.u + c.POINT[0], c.v + c.POINT[1])
    if isinstance(c, Point1D):
        return c.at
    if isinstance(c, OpenInterval1D):
        return (c.lo + c.hi) / 2
    if isinstance(c, BoxCell):
        return tuple(k + _HALF if open_ else Fraction(k) for k, open_ in c.axes)
    if isinstance(c, ProductCell):
        return tuple(cell_representative(q) for q in c.parts)
    raise TypeError(f"not a cell: {c!r}")


def shift_cell(c: Cell, offset) -> Cell:
    """The cell moved by offset, given in the coordinates of
    :func:`translate` (Scalar on the line, integer tuples elsewhere, one
    per part for products)."""
    if isinstance(c, _GridCell):
        return type(c)(c.u + offset[0], c.v + offset[1])
    if isinstance(c, Point1D):
        return Point1D(c.at + offset)
    if isinstance(c, OpenInterval1D):
        return OpenInterval1D(c.lo + offset, c.hi + offset)
    if isinstance(c, BoxCell):
        return BoxCell(tuple((k + d, open_) for (k, open_), d in zip(c.axes, offset)))
    if isinstance(c, ProductCell):
        return ProductCell(tuple(shift_cell(q, d) for q, d in zip(c.parts, offset)))
    raise TypeError(f"not a cell: {c!r}")


def cell_contains(c: Cell, x) -> bool:
    """Membership in the cell, the relative interior of its closure:
    equality on the closure's pinned forms, strict bounds on its free ones."""
    closure = cell_closure(c)
    return all(f == lo if lo == hi else lo < f < hi
               for (lo, hi), f in zip(closure.pairs(), closure.forms(x)))


# ---------------------------------------------------------------------------
# canonical decomposition into cells


@lru_cache(maxsize=None)
def decompose_cells(p: Polytope) -> tuple:
    """Disjoint canonical cells whose union is exactly p."""
    if isinstance(p, Interval):
        if p.lo == p.hi:
            return (Point1D(p.lo),)
        return (Point1D(p.lo), OpenInterval1D(p.lo, p.hi), Point1D(p.hi))
    if isinstance(p, Box):
        axis_cells = []
        for a, b in zip(p.los, p.his):
            opts = []
            for k in range(a, b + 1):
                opts.append((k, False))
                if k < b:
                    opts.append((k, True))
            axis_cells.append(opts)
        return tuple(BoxCell(combo) for combo in itertools.product(*axis_cells))
    if isinstance(p, GridSet):  # every cell whose closure lies in p, kind by kind
        cells = []
        u0, u1, v0, v1, s0, s1 = p.bounds()
        for kind, du0, du1, dv0, dv1, ds0, ds1 in _GRID_CELLS:
            v_min, v_max = v0 - dv0, v1 - dv1
            for u in range(u0 - du0, u1 - du1 + 1):
                lo, hi = s0 - ds0 - u, s1 - ds1 - u  # the bounds on u + v, on v
                lo, hi = lo if lo > v_min else v_min, hi if hi < v_max else v_max
                for v in range(lo, hi + 1):
                    cells.append(kind(u, v))
        return tuple(cells)
    if isinstance(p, ProductPolytope):
        return tuple(
            ProductCell(combo)
            for combo in itertools.product(*(decompose_cells(q) for q in p.parts))
        )
    raise TypeError(f"not a polytope: {p!r}")
