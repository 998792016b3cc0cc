"""Exact geometry of the supported polytope families.

Every polytope is tight bounds ``los[k] <= f_k <= his[k]`` on the fixed
forms f_k of its ambient, the tuple ``(ambient, los, his)``, and every cell
the tuple ``(kind, *data)``, its kind a class.  Tight bounds are the
support function on the forms (McMullen, *The polytope algebra*, 1989), so
sums, dilations, negation, translation, intersection and containment act on
the bounds alone, through the ambient's ``rebuild(los, his)``, which checks
new bounds and tightens a lattice system once; a proper face pins a form to
one of its bounds.  Each family keeps its geometry in its ambient, its
polytope class and its cell kinds, which answer what the module-level
functions ask; points are in the ambient's coordinates:

* a :class:`Line`, in the scalar mode 'rational' or 'sqrt2', has the one
  form t, Scalar points, closed intervals (:class:`Interval`) with ends in
  Q or Q(sqrt 2), and the cells :class:`Point1D`, :class:`OpenInterval1D`;
* an :class:`Arrangement` has integer linear forms on R^d, the coordinates
  first, coordinate tuples as points, a fine lattice (1/N)Z^d, lattice sets
  (:class:`LatticeSet`) and the cell kinds of its table
  (:class:`LatticeCell`).  Boxes (:class:`Box`) take the d coordinates and
  N = 2; polygons of the triangular grid (:class:`GridSet`) u, v and u + v
  and N = 3; a product of lattice sets (:class:`ProductPolytope`) each
  part's forms on its own block of coordinates and the lcm of the parts' N,
  so its points are flat tuples.

Every polytope decomposes canonically into relatively open cells, in the
key order of its ambient, as *runs*: ``(start, stop)`` ranges of keys
(``runs``, expanded by ``cells``).  On the line a key is ``(t, 0)`` for the
point t or ``(t, 1)`` for the open interval right of t, ordered as tuples,
[a, b] is the run from (a, 0) to (b, 1), and a translation adds to t.  The
integer level sets of an arrangement's forms cut R^d into cells, each the
points of one signature (per form, its floor and whether it is integral)
and each holding a fine lattice point, so an arrangement derives its table
of cell kinds once by sampling [0, 1)^d (a product takes the tuples of its
parts' kinds).

A lattice cell ``(kind, a_0, ..., a_{d-1})`` packs into one int key
(:meth:`Arrangement.pack`): the kind's RANK, then each a_j + 2^(w-1) in a
w-bit field, a_{d-1} least significant.  Kinds are ranked by dimension, so
int order is :func:`cell_sort_key` order, and a translation by o adds the
int sum of o_j * 2^(w(d-1-j)), with no carry while every field stays in
range; :func:`key_width` picks w from the largest coordinate.  The cells of
one kind whose anchors share a_0 .. a_{d-2} have consecutive a_{d-1}, so a
lattice set has one run per kind and row (:func:`decompose_runs`): O(n) of
them for a polygon of side n against O(n^2) cells.  Empty systems and
non-integral lattice coordinates are rejected.  All values are immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, eq, ge, gt, itemgetter, mul, ne, sub
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


class Polytope(tuple):
    """The tuple (ambient, los, his), so hash and equality are the tuple's."""

    __slots__ = ()
    ambient, los, his = (property(itemgetter(i)) for i in range(3))

    def forms(self, x) -> tuple:
        return self[0].values(x)


class Cell(tuple):
    """The tuple (kind, *data), so hash and equality are the tuple's; the
    kind, its class, has its DIM and a name per datum in FIELDS (or none)."""

    __slots__ = ()

    def __new__(cls, *data):
        return tuple.__new__(cls, (cls, *data))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={a!r}" if name else repr(a)
                         for name, a in zip(self.FIELDS or itertools.repeat(""), self[1:]))
        return f"{type(self).__name__}({body})"


_cell = tuple.__new__  # (kind, (kind, *data)): a cell of known data


# ---------------------------------------------------------------------------
# the line


@dataclass(frozen=True)
class Line:
    """The real line in a scalar mode, 'rational' or 'sqrt2', with the one
    form t.  Its keys are not packed, so every key width is 0."""

    mode: str = "rational"
    dims = {(True,): 0, (False,): 1}  # per tuple of pinned flags: the dimension

    def __post_init__(self):
        if self.mode not in ("rational", "sqrt2"):
            raise ValueError(f"unknown line mode {self.mode!r} (choose rational or sqrt2)")

    def rebuild(self, los, his) -> "Interval":
        (lo,), (hi,) = los, his
        if (hi - lo).sign() < 0:
            raise EmptyRegionError(f"interval needs lo <= hi, got [{lo}, {hi}]")
        if self.mode == "rational" and not (lo.is_rational and hi.is_rational):
            raise ValueError("irrational endpoint in rational-mode interval")
        return tuple.__new__(Interval, (self, (lo,), (hi,)))

    def origin(self) -> "Interval":
        zero = (Scalar.of(0),)
        return self.rebuild(zero, zero)

    def values(self, x) -> tuple:
        return (Scalar.of(x),)

    shift = values  # a translation adds the offset to t

    coords = staticmethod(itemgetter(0))  # the point where the form takes these values

    def offset(self, moves):  # the sum of exp * point over (exp, point) pairs
        return sum(itertools.starmap(mul, moves))

    def text(self, p: "Interval") -> str:  # p as presentations and the CLI print it
        (lo,), (hi,) = p[1], p[2]
        return f"point[{lo}]" if lo == hi else f"interval[{lo}, {hi}]"

    point_text = staticmethod(str)

    def width(self, *reach) -> int:
        return 0

    reach = width

    def runs(self, p: "Interval", width: int) -> tuple:
        return (((p[1][0], 0), (p[2][0], 1)),)

    def cells(self, start: tuple, stop: tuple, width: int) -> list:
        """The cells of the keys start <= k < stop, with no breakpoint
        between them: the point s, the open interval, the point t."""
        (s, right_of_s), (t, past_t) = start, stop
        cells = [] if right_of_s else [Point1D(s)]
        if s != t:
            cells += [OpenInterval1D(s, t), Point1D(t)][:1 + past_t]
        return cells

    def fold(self, acc: dict, n, deltas: dict, offset, width: int) -> None:
        """acc += n * deltas, each key moved by the scalar offset (or None)."""
        items = deltas.items() if offset is None else (
            ((t + offset, e), v) for (t, e), v in deltas.items())
        for k, v in items:
            acc[k] = acc.get(k, 0) + n * v

    def least(self, deltas: dict, width: int) -> tuple:
        """(cell, value) of the least cell in cell_sort_key order where the
        step function with these differences is nonzero: points first,
        ordered by (p, q), not by value."""
        return min(((c, v) for start, stop, v in steps(deltas)
                    for c in self.cells(start, stop, width)),
                   key=lambda cell_value: cell_value[0].sort_key())

    def key_at(self, x, width: int) -> tuple:
        return Scalar.of(x), 0


class Interval(Polytope):
    """Closed 1-D interval [lo, hi] of a line; lo == hi gives a point."""

    __slots__ = ()

    def __new__(cls, lo: ScalarLike, hi: ScalarLike, mode: str = "rational"):
        return Line(mode).rebuild((Scalar.of(lo),), (Scalar.of(hi),))

    lo = property(lambda self: self[1][0])
    hi = property(lambda self: self[2][0])
    mode = property(lambda self: self[0].mode)

    def order(self) -> tuple:  # of one dimension: by the (p, q) parts of the ends
        lo, hi = self.lo, self.hi
        return lo.p, lo.q, hi.p, hi.q

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r}, mode={self.mode!r})"


def interval(lo: ScalarLike, hi: ScalarLike, mode: str | None = None) -> Interval:
    lo, hi = Scalar.of(lo), Scalar.of(hi)
    if mode is None:
        mode = "rational" if lo.is_rational and hi.is_rational else "sqrt2"
    return Interval(lo, hi, mode)


def line_point(at: ScalarLike, mode: str | None = None) -> Interval:
    return interval(at, at, mode)


class LineCell(Cell):
    """Cell of a line: the point (Point1D, t) or the open interval
    (OpenInterval1D, lo, hi), the relative interior of [t, t] or [lo, hi]."""

    __slots__ = ()

    def sort_key(self) -> tuple:  # points first, then the (p, q) parts of the ends
        lo, hi = self[1], self[-1]
        return (0, 0, lo.p, lo.q) if self.DIM == 0 else (1, 1, lo.p, lo.q, hi.p, hi.q)

    def closure(self, line_mode: str | None = None) -> Interval:
        return interval(self[1], self[-1], line_mode)

    def representative(self):
        return (self[1] + self[-1]) / 2

    def shift(self, offset) -> "LineCell":
        return _cell(self[0], (self[0], *(t + offset for t in self[1:])))

    def contains(self, x) -> bool:  # a pinned end, or strictly between free ones
        lo, t, hi = self[1], Scalar.of(x), self[-1]
        return lo == t == hi or lo < t < hi


class Point1D(LineCell):
    __slots__ = ()
    DIM, FIELDS = 0, ("at",)
    at = property(itemgetter(1))


class OpenInterval1D(LineCell):
    __slots__ = ()
    DIM, FIELDS = 1, ("lo", "hi")
    lo, hi = property(itemgetter(1)), property(itemgetter(2))

    def __new__(cls, lo, hi):
        if (hi - lo).sign() <= 0:
            raise ValueError("open interval needs lo < hi")
        return _cell(cls, (cls, lo, hi))


# ---------------------------------------------------------------------------
# arrangements and their lattice sets


def _rank(rows) -> int:
    """The rank of integer row vectors, by fraction-free elimination."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    pivot, j = rows[0], next(j for j, c in enumerate(rows[0]) if c)
    return 1 + _rank([[pivot[j] * a - r[j] * b for a, b in zip(r, pivot)]
                      for r in rows[1:]])


def key_width(reach: int) -> int:
    """The field width of packed cell keys, a multiple of 32 bits, for anchor
    coordinates a with |a| <= reach: every field a + 2^(width - 1), and a
    run's stop at reach + 1, lies strictly between 0 and 2^width - 1.  So
    keys whose anchors stay within reach add without a carry from one field
    into the next, and runs of different anchor prefixes never meet."""
    return 32 * ((reach.bit_length() + 33) // 32)


@lru_cache(maxsize=None)
def reach(p: LatticeSet) -> int:
    """The largest absolute coordinate of p, which bounds its cells' anchors
    (cached: every fold of a closed basis reads it)."""
    d = p[0].d
    return max(map(abs, p[1][:d] + p[2][:d]))


def _lattice_runs(arr: Arrangement, kind: type, los: tuple, his: tuple,
                  width: int) -> list:
    """The keys at width of the cells of kind anchored at the integer points
    with los[k] <= f_k <= his[k], one (start, stop) run per row (*x, t),
    lo <= t <= hi.  Coordinate j ranges over its own bounds narrowed, given
    the coordinates before it, by the forms whose last coordinate it is; the
    keys are packed as the coordinates are chosen (:meth:`Arrangement.pack`)."""
    bias, last = 1 << (width - 1), arr.d - 1
    heads, runs = [((), kind.RANK)], []  # anchor prefixes and their keys
    for j, (lo_j, hi_j, forms) in enumerate(zip(los, his, arr.last_on)):
        grown = []
        for x, key in heads:
            lo, hi = lo_j, hi_j
            for k, head, c in forms:  # c * x_j lies in [los[k], his[k]] less the rest
                rest = sum(map(mul, head, x))
                a, b = los[k] - rest, his[k] - rest
                lo, hi = (max(lo, a), min(hi, b)) if c > 0 else (max(lo, -b), min(hi, -a))
            key = (key << width) + bias
            if j < last:
                grown += [(x + (t,), key + t) for t in range(lo, hi + 1)]
            elif lo <= hi:
                runs.append((key + lo, key + hi + 1))
        heads = grown
    return runs


@lru_cache(maxsize=None)
def decompose_runs(p: LatticeSet, width: int) -> tuple:
    """The cells of p as (start, stop) runs of keys packed at width, at
    least key_width(reach(p)): one run per kind and row, in key order, which
    is cell_sort_key order; kinds whose closure cannot fit in p are skipped."""
    arr, p_los, p_his = p
    runs = []
    for kind, lo, hi in arr.fitting[tuple(map(ne, p_los, p_his))]:
        runs += _lattice_runs(arr, kind, tuple(map(sub, p_los, lo)),
                              tuple(map(sub, p_his, hi)), width)
    return tuple(runs)


class Arrangement:
    """Integer linear forms on R^d with coefficients -1, 0 or 1, the
    coordinates first, and the fine lattice (1/N)Z^d, which holds a point of
    every cell.  ``name`` and ``labels`` (one per form, or none) spell its
    lattice sets, of class ``family``, and cells.  A product arrangement
    lists its ``parts``, each an arrangement and the indices of its forms.
    It is the ambient space of its lattice sets; equality is identity.  It
    has no scalar ``mode``: its cells close without one."""

    mode = None

    def __init__(self, name: str, labels: tuple, forms: tuple, fine: int,
                 family: type, cell_names: tuple = (), parts: tuple = ()):
        self.name, self.labels, self.forms, self.fine = name, labels, forms, fine
        self.family, self.parts = family, parts
        self.d = d = len(forms[0])
        # per tuple of flags, one per form: the dimension where the flagged forms
        # are constant, d less their rank
        self.dims = {pinned: d - _rank([row for row, p in zip(forms, pinned) if p])
                     for pinned in itertools.product((False, True), repeat=len(forms))}
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
        # The table: a kind per signature of the cells, ranked by dimension, then
        # by first sample of (1/N)Z^d in [0, 1)^d, the first coordinate fastest;
        # its closure bounds are each form's floor and ceiling, its point the
        # samples' mean.  A product's rows are the tuples of its parts' rows,
        # each part sampled at the product's N: the samples of a product of
        # cells are the tuples of the parts' samples.
        if parts:
            rows = []
            for combo in itertools.product(*(a.samples(fine) for a, _ in parts)):
                sig = [None] * len(forms)
                for (_, ks), (part_sig, _, _) in zip(parts, combo):
                    for k, entry in zip(ks, part_sig):
                        sig[k] = entry
                _, firsts, means = zip(*combo)
                rows.append((tuple(sig), sum(firsts, ()), sum(means, ())))
        else:
            rows = self.samples(fine)
        rows.sort(key=lambda row: (self.dims[tuple(p for _, p in row[0])], row[1][::-1]))
        self.kinds = tuple(type(
            cell_names[rank] if cell_names else f"{name.title()}{d}Cell{rank}",
            (LatticeCell,),
            {"__slots__": (), "ARRANGEMENT": self, "RANK": rank, "FIELDS": labels,
             "DIM": self.dims[tuple(p for _, p in sig)],
             "SIGNATURE": sig, "LO": tuple(f for f, _ in sig),
             "HI": tuple(f if p else f + 1 for f, p in sig), "POINT": point})
            for rank, (sig, _, point) in enumerate(rows))
        self.kind_of = {kind.SIGNATURE: kind for kind in self.kinds}
        # per tuple of flags, one per form, whether a lattice set's bounds differ
        # there: the kinds, with their closure bounds, whose closures can lie in it
        self.fitting = {flags: tuple((kind, kind.LO, kind.HI) for kind in self.kinds
                                     if all(map(ge, flags, map(ne, kind.LO, kind.HI))))
                        for flags in self.dims}

    def samples(self, fine: int) -> list:
        """(signature, first sample, mean) per signature of the points of
        (1/fine)Z^d in [0, 1)^d, the first coordinate fastest."""
        samples: dict = {}
        for index in itertools.product(range(fine), repeat=self.d):
            x = tuple(Fraction(i, fine) for i in reversed(index))
            samples.setdefault(self.signature(x), []).append(x)
        return [(sig, xs[0], tuple(sum(c) / len(xs) for c in zip(*xs)))
                for sig, xs in samples.items()]

    def rebuild(self, los, his) -> "LatticeSet":
        return _lattice_set(self, *_tighten(self, tuple(los), tuple(his)))

    def origin(self) -> "LatticeSet":
        zero = (0,) * len(self.forms)
        return _lattice_set(self, zero, zero)

    def values(self, x) -> tuple:
        """The forms evaluated at a point, which must have d coordinates."""
        if len(x) != self.d:
            raise ValueError(f"a {self.name} point has {self.d} coordinates, got {len(x)}")
        return tuple(sum(map(mul, row, x)) for row in self.forms)

    def shift(self, offset) -> tuple:  # a translation adds an integer to each form
        return tuple(_lattice(d) for d in self.values(offset))

    def coords(self, values) -> tuple:  # the coordinates are the first d forms
        return values[:self.d]

    def offset(self, moves) -> tuple:  # the sum of exp * point over (exp, point) pairs
        exps, points = zip(*moves)
        return tuple(sum(map(mul, exps, c)) for c in zip(*points))

    def text(self, p: "LatticeSet") -> str:  # p as presentations and the CLI print it
        if self.parts:
            return "prod[" + "; ".join(q[0].text(q) for q in p.parts) + "]"
        if self.labels:
            body = ", ".join(f"{label}:{lo}..{hi}"
                             for label, lo, hi in zip(self.labels, p[1], p[2]))
        else:
            body = " x ".join(f"{lo}..{hi}" for lo, hi in zip(p[1], p[2]))
        return f"{self.name}[{body}]"

    def point_text(self, x) -> str:
        if self.parts:  # each part reads its coordinates, the first of its forms
            return "prod[" + "; ".join(a.point_text(tuple(x[k] for k in ks[:a.d]))
                                       for a, ks in self.parts) + "]"
        return f"{self.name}(" + ", ".join(str(c) for c in x) + ")"

    def pack(self, cell, width: int) -> int:
        """The key of a lattice cell: its kind's RANK, then each anchor
        coordinate plus 2^(width - 1) in a width-bit field, the last coordinate
        least significant."""
        key, bias = cell[0].RANK, 1 << (width - 1)
        for a in cell[1:]:
            key = (key << width) + a + bias
        return key

    def cells(self, start: int, stop: int, width: int) -> list:
        """The cells of the keys start <= k < stop, which must differ in the
        last field only: one kind and anchor prefix, consecutive last
        coordinates."""
        mask, bias, key = (1 << width) - 1, 1 << (width - 1), start >> width
        first, head = (start & mask) - bias, ()
        for _ in range(self.d - 1):
            head = ((key & mask) - bias,) + head
            key >>= width
        kind = self.kinds[key]
        head = (kind,) + head
        return [_cell(kind, head + (t,)) for t in range(first, first + stop - start)]

    runs = staticmethod(decompose_runs)

    def reach(self, polytopes) -> int:
        return max(map(reach, polytopes), default=0)

    def width(self, reach: int, offsets=()) -> int:
        """The key width for anchors within reach, moved by any of offsets."""
        moves = itertools.chain.from_iterable(offsets)
        return key_width(reach + max(map(abs, moves), default=0))

    def fold(self, acc: dict, n, deltas: dict, offset, width: int) -> None:
        """acc += n * deltas, each key moved by the coordinate tuple offset
        (or None): one int addition."""
        move = 0
        for a in offset or ():
            move = (move << width) + a
        for k, v in deltas.items():
            k += move
            acc[k] = acc.get(k, 0) + n * v

    def least(self, deltas: dict, width: int) -> tuple:
        """(cell, value) of the least key with a nonzero difference: the step
        function is 0 below it, so that cell comes first in cell_sort_key order."""
        key = min(deltas)
        return self.cells(key, key + 1, width)[0], deltas[key]

    def key_at(self, x, width: int) -> int:
        """The key of the cell holding x, or -1, below every key, when that
        cell's anchor does not fit in width."""
        cell = cell_at(self, x)
        return self.pack(cell, width) if key_width(max(map(abs, cell[1:]))) <= width else -1

    def __repr__(self) -> str:
        return f"Arrangement({self.name}, d={self.d})"

    def signature(self, x) -> tuple:
        """Per form, its floor at x and whether it is integral there: the
        cell of x, found in integers over a common denominator."""
        q = math.lcm(*(t.denominator for t in x))
        n = [t.numerator * (q // t.denominator) for t in x]
        return tuple((f // q, f % q == 0) for f in self.values(n))


Ambient = Union[Line, Arrangement]


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


class LatticeSet(Polytope):
    """Tight integer bounds ``los[k] <= f_k <= his[k]`` on the forms f_k of
    an arrangement, as the tuple (arrangement, los, his).  The constructor
    rejects bounds that are not tight; the arrangement's ``rebuild`` tightens
    new bounds once."""

    __slots__ = ()
    arrangement = Polytope.ambient

    def __new__(cls, arrangement: Arrangement, los: tuple, his: tuple):
        tight = _tighten(arrangement, los, his)
        p = tuple.__new__(cls, (arrangement, los, his))
        if tight != (los, his):
            raise ValueError(f"{arrangement.name} bounds not canonical: {p} vs {tight}")
        return p

    def bounds(self) -> tuple:
        """The lower and upper bound of each form in turn."""
        return tuple(itertools.chain(*zip(self.los, self.his)))

    order = bounds  # what orders the lattice sets of one dimension

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


_ARRANGEMENTS: dict = {}  # built once per process: box d, or a tuple of parts


def box_arrangement(d: int) -> Arrangement:
    """The d coordinates with fine lattice (1/2)Z^d, built once per d."""
    if d not in _ARRANGEMENTS:
        identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        _ARRANGEMENTS[d] = Arrangement("box", (), identity, 2, Box)
    return _ARRANGEMENTS[d]


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


class LatticeCell(Cell):
    """Cell of an arrangement, the tuple (kind, *anchor): the kind is a row of
    the arrangement's table, a subclass holding its ARRANGEMENT, RANK, DIM,
    SIGNATURE, closure bounds LO and HI and representative POINT at anchor
    0, moved to the integer anchor."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        return (self[0].DIM, self[0].RANK) + self[1:]

    def closure(self, line_mode: str | None = None) -> LatticeSet:
        kind = self[0]
        at = kind.ARRANGEMENT.values(self[1:])
        return _lattice_set(kind.ARRANGEMENT, tuple(map(add, at, kind.LO)),
                            tuple(map(add, at, kind.HI)))

    def representative(self) -> tuple:
        return tuple(map(add, self[1:], self[0].POINT))

    def shift(self, offset) -> "LatticeCell":
        """The anchor moves as the coordinates, the first forms, do."""
        kind = self[0]
        return _cell(kind, (kind, *map(add, self[1:], kind.ARRANGEMENT.shift(offset))))

    def contains(self, x) -> bool:
        """A lattice cell holds the points of its signature."""
        return cell_at(self[0].ARRANGEMENT, x) == self


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


class ProductPolytope(LatticeSet):
    """Cartesian product of lattice sets on disjoint coordinate blocks: a
    lattice set of their product arrangement."""

    __slots__ = ()

    @property
    def parts(self) -> tuple:
        """The factors, each a lattice set of its part's arrangement."""
        return tuple(_lattice_set(a, tuple(self.los[k] for k in ks),
                                  tuple(self.his[k] for k in ks))
                     for a, ks in self.arrangement.parts)


def product_arrangement(parts: tuple) -> Arrangement:
    """The arrangement of products of lattice sets of the arrangements in
    parts: every part's coordinates, then every part's dependent forms, each
    padded onto its block of coordinates, and the lcm of the fine lattices;
    built once per process and tuple of parts."""
    if parts not in _ARRANGEMENTS:
        starts = tuple(itertools.accumulate((a.d for a in parts), initial=0))
        d = starts[-1]
        # form k of part i, as (dependent, i, k): coordinates first, parts in order
        order = sorted((k >= a.d, i, k)
                       for i, a in enumerate(parts) for k in range(len(a.forms)))
        forms = tuple((0,) * starts[i] + parts[i].forms[k] + (0,) * (d - starts[i + 1])
                      for _, i, k in order)
        blocks = tuple((a, tuple(n for n, (_, j, _) in enumerate(order) if j == i))
                       for i, a in enumerate(parts))
        _ARRANGEMENTS[parts] = Arrangement("prod", (), forms,
                                           math.lcm(*(a.fine for a in parts)),
                                           ProductPolytope, parts=blocks)
    return _ARRANGEMENTS[parts]


def product(*parts) -> ProductPolytope:
    flat = []
    for p in parts:
        flat += p.parts if isinstance(p, ProductPolytope) else (p,)
    if len(flat) < 2:
        raise ValueError("product needs at least two parts")
    for p in flat:
        if not isinstance(p, LatticeSet):
            raise FamilyMismatchError(
                f"product parts must be Box or GridSet, got {type(p).__name__}")
    arr = product_arrangement(tuple(q.arrangement for q in flat))
    # each part's bounds, sorted into the places of its forms
    bounds = sorted(zip(itertools.chain(*(ks for _, ks in arr.parts)),
                        itertools.chain(*(q.los for q in flat)),
                        itertools.chain(*(q.his for q in flat))))
    return _lattice_set(arr, tuple(lo for _, lo, _ in bounds),
                        tuple(hi for *_, hi in bounds))


# ---------------------------------------------------------------------------
# basic queries, each a question to the polytope's ambient


def ambient_of(p: Polytope) -> Ambient:
    return p[0]


def origin_of(ambient: Ambient) -> Polytope:
    return ambient.origin()


def dim(p: Polytope) -> int:
    return p[0].dims[tuple(map(eq, p[1], p[2]))]


def _paired(a: Polytope, b: Polytope) -> None:
    """Check that a and b are one family on one ambient."""
    if type(a) is not type(b) or a[0] != b[0]:
        raise FamilyMismatchError("mismatched families: " + " vs ".join(
            f"{type(p).__name__} on {getattr(p, 'ambient', None)}" for p in (a, b)))


def minkowski_sum(a: Polytope, b: Polytope) -> Polytope:
    """Minkowski sum within one family: the bounds add."""
    _paired(a, b)
    return a[0].rebuild(tuple(map(add, a.los, b.los)), tuple(map(add, a.his, b.his)))


def scale(p: Polytope, k: int) -> Polytope:
    """k-fold Minkowski sum of p with itself (dilation); k = 0 gives the
    origin point of the same block."""
    if k < 0:
        raise ValueError("scale needs k >= 0")
    return p[0].rebuild(tuple(lo * k for lo in p.los), tuple(hi * k for hi in p.his))


def negate(p: Polytope) -> Polytope:
    return p[0].rebuild(tuple(-hi for hi in p.his), tuple(-lo for lo in p.los))


def translate(p: Polytope, offset) -> Polytope:
    """p moved by offset, integral off the line."""
    shift = p[0].shift(offset)
    return p[0].rebuild(tuple(map(add, p.los, shift)), tuple(map(add, p.his, shift)))


def contains_point(p: Polytope, x) -> bool:
    """Exact membership of a point."""
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
    return a[0].rebuild(tuple(map(max, a.los, b.los)), tuple(map(min, a.his, b.his)))


# ---------------------------------------------------------------------------
# face lattice


def polytope_sort_key(p: Polytope):
    return dim(p), p.order()


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
                out.update(faces(p[0].rebuild(los[:i] + (end,) + los[i + 1:],
                                              his[:i] + (end,) + his[i + 1:])))
    return tuple(sorted(out, key=polytope_sort_key))


@lru_cache(maxsize=None)
def relint_faces(p: Polytope) -> tuple:
    """(face, sign) pairs of inclusion-exclusion over the face lattice:

        [relint P] = sum over faces F of (-1)^(dim P - dim F) [F]."""
    d = dim(p)
    return tuple((f, (-1) ** (d - dim(f))) for f in faces(p))


def vertices(p: Polytope) -> tuple:
    return tuple(f for f in faces(p) if dim(f) == 0)


def vertex_coords(p: Polytope):
    """The point of a 0-dimensional polytope, integers off the line."""
    if dim(p) != 0:
        raise ValueError("vertex_coords needs a 0-dimensional polytope")
    return p[0].coords(p.los)


# ---------------------------------------------------------------------------
# canonical cells, each question answered by the cell's kind


def cell_dim(c: Cell) -> int:
    return c.DIM


def cell_sort_key(c: Cell):
    return c.sort_key()


def cell_closure(c: Cell, line_mode: str | None = None) -> Polytope:
    """The topological closure of a cell, as a family polytope.  Line
    cells carry no scalar mode, so a sqrt2-mode line passes its mode;
    otherwise the mode is inferred from the endpoint values."""
    return c.closure(line_mode)


def cell_representative(c: Cell):
    """One exact point in the relative interior of the cell."""
    return c.representative()


def shift_cell(c: Cell, offset) -> Cell:
    """The cell moved by offset, as in :func:`translate`."""
    return c.shift(offset)


def cell_at(ambient: Arrangement, x) -> LatticeCell:
    """The cell of an arrangement holding the point x: the anchor is the
    floor of the coordinates, the kind the table row of the signature
    relative to the anchor."""
    sig = ambient.signature(x)
    anchor = tuple(f for f, _ in sig[:ambient.d])
    kind = ambient.kind_of[tuple((f - at, integral) for (f, integral), at
                                 in zip(sig, ambient.values(anchor)))]
    return _cell(kind, (kind, *anchor))


def cell_contains(c: Cell, x) -> bool:
    """Membership in the cell: a lattice cell holds the points of its
    signature; a line cell is its point or open interval."""
    return c.contains(x)


@lru_cache(maxsize=None)
def decompose_cells(p: Polytope) -> tuple:
    """Disjoint canonical cells whose union is exactly p: its runs in its
    ambient expanded, in key order (cell_sort_key order on an arrangement)."""
    ambient = p[0]
    width = ambient.width(ambient.reach((p,)))
    return tuple(c for start, stop in ambient.runs(p, width)
                 for c in ambient.cells(start, stop, width))


def steps(deltas: dict):
    """(start, stop, v) per maximal key interval on which the step function
    with these nonzero differences is the nonzero v."""
    keys, v = sorted(deltas), 0
    for start, stop in zip(keys, keys[1:]):
        v += deltas[start]
        if v:
            yield start, stop, v
