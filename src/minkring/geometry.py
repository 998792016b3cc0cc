"""Exact geometry of the supported polytope families.

Three families are modeled, each closed under Minkowski sums: 1-D closed
intervals with endpoints in Q or Q(sqrt 2) (:class:`Interval`), lattice
sets (:class:`LatticeSet`) and finite products of lattice sets
(:class:`ProductPolytope`).  A lattice set is tight integer bounds
``lo <= f <= hi`` on the forms of an :class:`Arrangement`: integer linear
forms on R^d, the coordinates first, and a fine lattice (1/N)Z^d.  Boxes
(:class:`Box`) take the d coordinates and N = 2; convex polygons of the
triangular grid (:class:`GridSet`) take u, v and u + v and N = 3.

Every family is tight bounds ``los`` and ``his`` on fixed forms (t on the
line; a product concatenates its parts').  Tight bounds are the support
function on the forms (McMullen, *The polytope algebra*, 1989), so sums,
dilations, negation, translation, intersection and containment act on the
bounds alone, through ``rebuild(los, his)``, which tightens a lattice
system once; a proper face pins a form to one of its bounds.

Every polytope decomposes canonically into relatively open cells: points
and open intervals on the line, lattice cells, and their products.  The
integer level sets of an arrangement's forms cut R^d into cells, each the
points of one signature (per form, its floor and whether it is integral)
and each holding a fine lattice point, so an arrangement derives its table
of cell kinds once by sampling [0, 1)^d, and a lattice set decomposes by
translating the table.  Empty systems and non-integral lattice coordinates
are rejected.  All values are immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, eq, gt, itemgetter, mul, sub
from typing import Iterable, Union

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
class Line:
    """The real line with a scalar mode: 'rational' or 'sqrt2'."""

    mode: str = "rational"


@dataclass(frozen=True)
class ProductSpace:
    parts: tuple


class Arrangement:
    """Integer linear forms on R^d with coefficients -1, 0 or 1, the
    coordinates first and any d of them independent, and the fine lattice
    (1/N)Z^d, which holds a point of every cell.  ``name`` and ``labels``
    (one per form, or none) spell its lattice sets, of class ``family``, and
    cells.  It is the ambient space of its lattice sets; equality is
    identity."""

    def __init__(self, name: str, labels: tuple, forms: tuple, fine: int,
                 family: type, cell_names: tuple = ()):
        self.name, self.labels, self.forms, self.fine = name, labels, forms, fine
        self.family = family
        self.d = d = len(forms[0])
        # each dependent form f_k as a relation: the forms in plus sum to those in minus
        self.relations = tuple(
            (tuple(i for i, c in enumerate(row) if c > 0),
             tuple(i for i, c in enumerate(row) if c < 0) + (k,))
            for k, row in enumerate(forms) if k >= d)
        # per coordinate j, each dependent form whose last coordinate is j:
        # (k, its coefficients before j, its coefficient on j)
        self.last_on = tuple(
            tuple((k, row[:j], row[j]) for k, row in enumerate(forms)
                  if k >= d and row[j] and not any(row[j + 1:]))
            for j in range(d))
        # The table: a kind per signature of (1/N)Z^d in [0, 1)^d (the first
        # coordinate fastest), ranked by dimension, then first sample; its closure
        # bounds are each form's floor and ceiling, its point the samples' mean.
        samples: dict = {}
        for index in itertools.product(range(fine), repeat=d):
            x = tuple(Fraction(i, fine) for i in reversed(index))
            samples.setdefault(self.signature(x), []).append(x)
        rows = sorted(((max(0, d - sum(p for _, p in sig)), sig, xs)
                       for sig, xs in samples.items()), key=lambda row: row[0])
        self.kinds = tuple(type(
            cell_names[rank] if cell_names else f"{name.title()}{d}Cell{rank}",
            (LatticeCell,),
            {"__slots__": (), "ARRANGEMENT": self, "RANK": rank, "DIM": dim,
             "SIGNATURE": sig, "LO": tuple(f for f, _ in sig),
             "HI": tuple(f if p else f + 1 for f, p in sig),
             "POINT": tuple(sum(c) / len(xs) for c in zip(*xs))})
            for rank, (dim, sig, xs) in enumerate(rows))
        self.kind_of = {kind.SIGNATURE: kind for kind in self.kinds}
        self.closures = tuple((kind, kind.LO, kind.HI) for kind in self.kinds)

    def __repr__(self) -> str:
        return f"Arrangement({self.name}, d={self.d})"

    def values(self, x) -> tuple:
        """The forms evaluated at a point."""
        return tuple(sum(map(mul, row, x)) for row in self.forms)

    def signature(self, x) -> tuple:
        """Per form, its floor at x and whether it is integral there: the
        cell of x, found in integers over a common denominator."""
        q = math.lcm(*(t.denominator for t in x))
        n = [t.numerator * (q // t.denominator) for t in x]
        return tuple((f // q, f % q == 0) for f in self.values(n))


Ambient = Union[Line, Arrangement, ProductSpace]


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

    los = property(lambda self: (self.lo,))
    his = property(lambda self: (self.hi,))

    def rebuild(self, los, his) -> "Interval":
        return Interval(los[0], his[0], self.mode)

    def forms(self, x) -> tuple:
        return (Scalar.of(x),)


def interval(lo: ScalarLike, hi: ScalarLike, mode: str | None = None) -> Interval:
    lo, hi = Scalar.of(lo), Scalar.of(hi)
    if mode is None:
        mode = "rational" if lo.is_rational and hi.is_rational else "sqrt2"
    return Interval(lo, hi, mode)


def line_point(at: ScalarLike, mode: str | None = None) -> Interval:
    return interval(at, at, mode)


def _tighten(arr: Arrangement, los: tuple, his: tuple) -> tuple:
    """The tight bounds (los, his) of a bound system on arr's forms: each
    relation narrows the bounds of each of its forms to what the others
    allow, all at once, until nothing changes."""
    while True:
        if any(map(gt, los, his)):
            raise EmptyRegionError(
                f"empty {arr.name} region {tuple(itertools.chain(*zip(los, his)))}")
        new_los, new_his = list(los), list(his)
        for plus, minus in arr.relations:
            low = high = 0  # the bounds of sum(plus) - sum(minus), which is 0
            for k in plus:
                low, high = low + los[k], high + his[k]
            for k in minus:
                low, high = low - his[k], high - los[k]
            # the rest of the relation bounds each form: f_k in plus lies in
            # [his[k] - high, los[k] - low], f_k in minus in [low + his[k], high + los[k]]
            for ks, a, b in ((plus, -high, -low), (minus, low, high)):
                for k in ks:
                    if his[k] + a > new_los[k]:
                        new_los[k] = his[k] + a
                    if los[k] + b < new_his[k]:
                        new_his[k] = los[k] + b
        new = tuple(new_los), tuple(new_his)
        if new == (los, his):
            return new
        los, his = new


class LatticeSet(tuple):
    """Tight integer bounds ``los[k] <= f_k <= his[k]`` on the forms f_k of
    an arrangement, as the tuple (arrangement, los, his), so hash and
    equality are the tuple's.  The constructor rejects bounds that are not
    tight; ``rebuild`` tightens new bounds once."""

    __slots__ = ()
    arrangement, los, his = (property(itemgetter(i)) for i in range(3))

    def __new__(cls, arrangement: Arrangement, los: tuple, his: tuple):
        tight = _tighten(arrangement, los, his)
        p = tuple.__new__(cls, (arrangement, los, his))
        if tight != (los, his):
            raise ValueError(f"{arrangement.name} bounds not canonical: {p} vs {tight}")
        return p

    def rebuild(self, los, his) -> "LatticeSet":
        arr = self[0]
        return _lattice_set(arr, *_tighten(arr, tuple(los), tuple(his)))

    def forms(self, x) -> tuple:
        return self[0].values(x)

    def bounds(self) -> tuple:
        """The lower and upper bound of each form in turn."""
        return tuple(itertools.chain(*zip(self.los, self.his)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{label}_min={lo}, {label}_max={hi}" for label, lo, hi
                           in zip(self.arrangement.labels, self.los, self.his))
        return f"{type(self).__name__}({fields or f'los={self.los}, his={self.his}'})"


def _lattice_set(arr: Arrangement, los: tuple, his: tuple) -> LatticeSet:
    """The lattice set of bounds already known to be tight."""
    return tuple.__new__(arr.family, (arr, los, his))


class Box(LatticeSet):
    """Product of integer intervals [los[i], his[i]]; degenerate axes allowed."""

    __slots__ = ()

    def __new__(cls, los: tuple, his: tuple):
        if len(los) != len(his) or not los:
            raise ValueError("box needs matching, nonempty bound tuples")
        return super().__new__(cls, box_arrangement(len(los)), tuple(los), tuple(his))


_BOX_ARRANGEMENTS: dict = {}


def box_arrangement(d: int) -> Arrangement:
    """The d coordinates with fine lattice (1/2)Z^d, built once per d."""
    if d not in _BOX_ARRANGEMENTS:
        identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        _BOX_ARRANGEMENTS[d] = Arrangement("box", (), identity, 2, Box)
    return _BOX_ARRANGEMENTS[d]


def box(los: Iterable[int], his: Iterable[int]) -> Box:
    return Box(tuple(_lattice(a) for a in los), tuple(_lattice(b) for b in his))


def box_point(coords: Iterable[int]) -> Box:
    c = tuple(_lattice(x) for x in coords)
    return Box(c, c)


class GridSet(LatticeSet):
    """Canonical convex polygon of the triangular grid (tight bounds)."""

    __slots__ = ()

    def __new__(cls, u_min: int, u_max: int, v_min: int, v_max: int,
                s_min: int, s_max: int):
        return super().__new__(cls, GRID, (u_min, v_min, s_min), (u_max, v_max, s_max))

    u_min, v_min, s_min = (property(lambda self, k=k: self.los[k]) for k in range(3))
    u_max, v_max, s_max = (property(lambda self, k=k: self.his[k]) for k in range(3))


class LatticeCell(tuple):
    """Cell of an arrangement, the tuple (kind, *anchor): the kind is a row of
    the arrangement's table, a subclass holding its ARRANGEMENT, RANK, DIM,
    SIGNATURE, closure bounds LO and HI and representative POINT at anchor
    0, moved to the integer anchor.  Hash and equality are the tuple's."""

    __slots__ = ()

    def __new__(cls, *anchor):
        return tuple.__new__(cls, (cls, *anchor))

    def __repr__(self) -> str:
        labels = self.ARRANGEMENT.labels or itertools.repeat("")
        body = ", ".join(f"{label}={a}" if label else str(a)
                         for label, a in zip(labels, self[1:]))
        return f"{type(self).__name__}({body})"


GRID = Arrangement("grid", ("u", "v", "s"), ((1, 0), (0, 1), (1, 1)), 3, GridSet, (
    "GridVertex", "GridEdgeU", "GridEdgeV", "GridEdgeS", "GridTriUp", "GridTriDown"))
# vertex (u, v); open unit edges to (u+1, v), to (u, v+1) and between; triangles up, down
GridVertex, GridEdgeU, GridEdgeV, GridEdgeS, GridTriUp, GridTriDown = GRID.kinds


def GridPlane() -> Arrangement:
    """The triangular-lattice plane: the grid arrangement."""
    return GRID


def grid_set(u_min: int, u_max: int, v_min: int, v_max: int,
             s_min: int, s_max: int) -> GridSet:
    """Build a canonical GridSet, tightening the six bounds first."""
    return _lattice_set(GRID, *_tighten(GRID, (u_min, v_min, s_min),
                                        (u_max, v_max, s_max)))


def grid_point_set(u: int, v: int) -> GridSet:
    return GridSet(u, u, v, v, u + v, u + v)


def unit_triangle() -> GridSet:
    return GridSet(0, 1, 0, 1, 0, 1)


@dataclass(frozen=True)
class ProductPolytope:
    """Cartesian product of lattice sets on disjoint coordinate blocks
    (lattice parts keep the product cell decomposition canonical)."""

    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("product needs at least two parts")
        for p in self.parts:
            if not isinstance(p, LatticeSet):
                raise FamilyMismatchError(
                    f"product parts must be Box or GridSet, got {type(p).__name__}"
                )

    los = property(lambda self: sum((q.los for q in self.parts), ()))
    his = property(lambda self: sum((q.his for q in self.parts), ()))

    def rebuild(self, los, his) -> "ProductPolytope":
        rest = zip(los, his)  # each part takes as many bounds as it has forms
        return ProductPolytope(tuple(
            q.rebuild(*zip(*itertools.islice(rest, len(q.los)))) for q in self.parts))

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


Polytope = Union[Interval, LatticeSet, ProductPolytope]


# ---------------------------------------------------------------------------
# basic queries


def ambient_of(p: Polytope) -> Ambient:
    if isinstance(p, LatticeSet):
        return p.arrangement
    if isinstance(p, ProductPolytope):
        return ProductSpace(tuple(ambient_of(q) for q in p.parts))
    return Line(p.mode)


def origin_of(ambient: Ambient) -> Polytope:
    if isinstance(ambient, Arrangement):
        zero = (0,) * len(ambient.forms)
        return _lattice_set(ambient, zero, zero)
    if isinstance(ambient, ProductSpace):
        return ProductPolytope(tuple(origin_of(a) for a in ambient.parts))
    return Interval(Scalar.of(0), Scalar.of(0), ambient.mode)


def dim(p: Polytope) -> int:
    if isinstance(p, LatticeSet):
        return max(0, p.arrangement.d - sum(map(eq, p.los, p.his)))
    if isinstance(p, ProductPolytope):
        return sum(dim(q) for q in p.parts)
    return 0 if p.lo == p.hi else 1


def _paired(a: Polytope, b: Polytope) -> None:
    """Check that a and b are one family on one ambient."""
    if type(a) is not type(b) or ambient_of(a) != ambient_of(b):
        raise FamilyMismatchError(
            f"mismatched families: {type(a).__name__} vs {type(b).__name__}"
        )


def minkowski_sum(a: Polytope, b: Polytope) -> Polytope:
    """Minkowski sum within one family: the bounds add."""
    _paired(a, b)
    return a.rebuild(tuple(map(add, a.los, b.los)), tuple(map(add, a.his, b.his)))


def scale(p: Polytope, k: int) -> Polytope:
    """k-fold Minkowski sum of p with itself (dilation); k = 0 gives the
    origin point of the same block."""
    if k < 0:
        raise ValueError("scale needs k >= 0")
    return p.rebuild(tuple(lo * k for lo in p.los), tuple(hi * k for hi in p.his))


def negate(p: Polytope) -> Polytope:
    return p.rebuild(tuple(-hi for hi in p.his), tuple(-lo for lo in p.los))


def translate(p: Polytope, offset) -> Polytope:
    """p moved by offset, given in the ambient coordinates (Scalar on the
    line, integer tuples elsewhere)."""
    shift = p.forms(offset)
    if not isinstance(p, Interval):
        shift = tuple(_lattice(d) for d in shift)
    return p.rebuild(tuple(map(add, p.los, shift)), tuple(map(add, p.his, shift)))


def contains_point(p: Polytope, x) -> bool:
    """Exact membership of a point given in the ambient coordinates
    (Scalar on the line, Fraction pairs/tuples elsewhere)."""
    return all(lo <= f <= hi for lo, hi, f in zip(p.los, p.his, p.forms(x)))


def contains_polytope(outer: Polytope, inner: Polytope) -> bool:
    _paired(outer, inner)
    return all(ol <= il and ih <= oh
               for ol, oh, il, ih in zip(outer.los, outer.his, inner.los, inner.his))


def intersect(a: Polytope, b: Polytope) -> Polytope:
    """Intersection within one family; raises EmptyRegionError when empty.

    Used as an independent membership oracle: x is in P + Q exactly when
    P meets x - Q.
    """
    _paired(a, b)
    return a.rebuild(tuple(map(max, a.los, b.los)), tuple(map(min, a.his, b.his)))


# ---------------------------------------------------------------------------
# face lattice


def polytope_sort_key(p: Polytope):
    if isinstance(p, LatticeSet):
        data = p.bounds()
    elif isinstance(p, ProductPolytope):
        data = tuple(polytope_sort_key(q) for q in p.parts)
    else:
        data = (p.lo.p, p.lo.q, p.hi.p, p.hi.q)
    return (dim(p), data)


@lru_cache(maxsize=None)
def faces(p: Polytope) -> tuple:
    """All nonempty faces of p, including p itself, in canonical order:
    p, and the faces of each pinning of one non-constant form of p to its
    lower or upper bound, which come through the cache."""
    out = {p}
    los, his = p.los, p.his
    for i, (lo, hi) in enumerate(zip(los, his)):
        if lo != hi:
            for end in (lo, hi):
                out.update(faces(p.rebuild(los[:i] + (end,) + los[i + 1:],
                                           his[:i] + (end,) + his[i + 1:])))
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
    if isinstance(p, LatticeSet):
        return p.los[:p.arrangement.d]
    if isinstance(p, ProductPolytope):
        return tuple(vertex_coords(q) for q in p.parts)
    return p.lo


# ---------------------------------------------------------------------------
# canonical cells


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
class ProductCell:
    parts: tuple


Cell = Union[LatticeCell, Point1D, OpenInterval1D, ProductCell]
_cell = tuple.__new__  # (kind, (kind, *anchor)): a lattice cell


def cell_dim(c: Cell) -> int:
    if isinstance(c, LatticeCell):
        return c[0].DIM
    if isinstance(c, ProductCell):
        return sum(cell_dim(q) for q in c.parts)
    return 0 if isinstance(c, Point1D) else 1


def cell_sort_key(c: Cell):
    if isinstance(c, LatticeCell):
        return (c[0].DIM, c[0].RANK) + c[1:]
    if isinstance(c, ProductCell):
        return (cell_dim(c), 9, tuple(cell_sort_key(q) for q in c.parts))
    if isinstance(c, Point1D):
        return (0, 0, c.at.p, c.at.q)
    return (1, 1, c.lo.p, c.lo.q, c.hi.p, c.hi.q)


def cell_closure(c: Cell, line_mode: str | None = None) -> Polytope:
    """The topological closure of a cell, as a family polytope.  Line
    cells carry no scalar mode, so a sqrt2-mode line passes its mode;
    otherwise the mode is inferred from the endpoint values."""
    if isinstance(c, LatticeCell):
        kind = c[0]
        at = kind.ARRANGEMENT.values(c[1:])
        return _lattice_set(kind.ARRANGEMENT, tuple(map(add, at, kind.LO)),
                            tuple(map(add, at, kind.HI)))
    if isinstance(c, ProductCell):
        return ProductPolytope(tuple(cell_closure(q) for q in c.parts))
    if isinstance(c, Point1D):
        return interval(c.at, c.at, line_mode)
    return interval(c.lo, c.hi, line_mode)


def cell_representative(c: Cell):
    """One exact point in the relative interior of the cell."""
    if isinstance(c, LatticeCell):
        return tuple(map(add, c[1:], c[0].POINT))
    if isinstance(c, ProductCell):
        return tuple(cell_representative(q) for q in c.parts)
    return c.at if isinstance(c, Point1D) else (c.lo + c.hi) / 2


def shift_cell(c: Cell, offset) -> Cell:
    """The cell moved by offset, given in the coordinates of
    :func:`translate` (Scalar on the line, integer tuples elsewhere, one
    per part for products)."""
    if isinstance(c, LatticeCell):
        kind = c[0]
        if len(c) == 3:  # the plane spelled out: phi moves every image cell here
            return _cell(kind, (kind, c[1] + offset[0], c[2] + offset[1]))
        return _cell(kind, (kind, *map(add, c[1:], offset)))
    if isinstance(c, ProductCell):
        return ProductCell(tuple(shift_cell(q, d) for q, d in zip(c.parts, offset)))
    if isinstance(c, Point1D):
        return Point1D(c.at + offset)
    return OpenInterval1D(c.lo + offset, c.hi + offset)


def cell_at(ambient: Ambient, x) -> Cell:
    """The cell of a lattice or product ambient holding the point x: the
    anchor is the floor of the coordinates, the kind the table row of the
    signature relative to the anchor."""
    if isinstance(ambient, ProductSpace):
        return ProductCell(tuple(cell_at(a, xa) for a, xa in zip(ambient.parts, x)))
    sig = ambient.signature(x)
    anchor = tuple(f for f, _ in sig[:ambient.d])
    kind = ambient.kind_of[tuple((f - at, integral) for (f, integral), at
                                 in zip(sig, ambient.values(anchor)))]
    return _cell(kind, (kind, *anchor))


def cell_contains(c: Cell, x) -> bool:
    """Membership in the cell: a lattice cell holds the points of its
    signature; a line cell is its point or open interval."""
    if isinstance(c, LatticeCell):
        return cell_at(c[0].ARRANGEMENT, x) == c
    if isinstance(c, ProductCell):
        return all(cell_contains(q, xq) for q, xq in zip(c.parts, x))
    t = Scalar.of(x)
    return t == c.at if isinstance(c, Point1D) else c.lo < t < c.hi


def _lattice_cells(arr: Arrangement, kind: type, los: tuple, his: tuple) -> list:
    """The cells of kind anchored at the integer points x with los[k] <= f_k(x)
    <= his[k]: coordinate j ranges over its own bounds narrowed, given the
    coordinates before it, by the forms whose last coordinate it is."""
    cells = [(kind,)]
    for lo_j, hi_j, forms in zip(los, his, arr.last_on):
        grown = []
        for x in cells:
            lo, hi = lo_j, hi_j
            for k, head, c in forms:  # c * x_j lies in [los[k], his[k]] less the rest
                rest = sum(map(mul, head, x[1:]))
                a, b = los[k] - rest, his[k] - rest
                lo, hi = (max(lo, a), min(hi, b)) if c > 0 else (max(lo, -b), min(hi, -a))
            grown += [x + (t,) for t in range(lo, hi + 1)]
        cells = grown
    return [_cell(kind, x) for x in cells]


@lru_cache(maxsize=None)
def decompose_cells(p: Polytope) -> tuple:
    """Disjoint canonical cells whose union is exactly p."""
    if isinstance(p, LatticeSet):  # each kind at each anchor where its closure is in p
        arr, p_los, p_his = p
        cells = []
        for kind, lo, hi in arr.closures:
            los, his = tuple(map(sub, p_los, lo)), tuple(map(sub, p_his, hi))
            if not any(map(gt, los, his)):
                cells += _lattice_cells(arr, kind, los, his)
        return tuple(cells)
    if isinstance(p, ProductPolytope):
        return tuple(ProductCell(combo) for combo in
                     itertools.product(*(decompose_cells(q) for q in p.parts)))
    if p.lo == p.hi:
        return (Point1D(p.lo),)
    return (Point1D(p.lo), OpenInterval1D(p.lo, p.hi), Point1D(p.hi))
