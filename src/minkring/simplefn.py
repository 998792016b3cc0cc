"""The semantic ring of simple functions.

A :class:`SimpleFunction` is a finite rational combination of indicator
functions of canonical cells of one ambient space, held in one form on
every ambient: the step function over the ambient's cell keys (see
:mod:`minkring.geometry`) stored as its nonzero *deltas*, the change of
value at each key, at one key width.  A run of cells with weight w adds w
at its start key and -w at its stop key.  Deltas are unique at a width, so
two functions are equal exactly when their deltas are, the narrower
repacked to the wider width, and the zero test reads no cell.  ``terms``,
each cell of a nonzero step with its value, is built once per function.
On the line the nonzero steps are the canonical maximal open runs of
constant value plus point corrections.

Closed indicators live one conversion away.  A closed-basis element maps
closed convex polytopes to rational weights; inclusion-exclusion over the
face lattice,

    [interior P] = sum over faces F of (-1)^(dim P - dim F) [F],

rewrites any open cell in that basis.  [P]*[Q] = [P+Q], extended
bilinearly, is :func:`closed_product`, and :func:`from_closed` folds the
runs of each polytope of a closed-basis element.  The ring's one product,
:func:`times_closed`, keeps the step form: by translation invariance it folds
the cached image of each run's shape (a cell at the origin) times the other
factor, moved along the run.

The trusted constructor ``SimpleFunction._trusted`` neither copies nor
re-wraps its dict.  Its invariant: every delta is nonzero, the keys are at
the given width, and the new function alone owns the dict.  Public results
carry ``Fraction`` weights; weights inside the library may be ``int``s, as
integral Laurent coefficients are under the coefficient rule of
:mod:`minkring.laurent`, and compare and hash like the equal Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from . import geometry as geo
from .geometry import Ambient, Cell, Polytope
from .laurent import _coefficient


class AmbientMismatchError(ValueError):
    """Operands live on different ambient spaces."""


def _canonical_line_terms(terms: Mapping[Cell, Fraction]) -> dict:
    """Canonical form on the line: maximal constant open runs + residual
    points, the cells of the nonzero steps of the line's step form."""
    return SimpleFunction(geo.LINE, terms).terms


class SimpleFunction:
    """Finite rational combination of cell indicators on one ambient space,
    as the nonzero deltas of its step function over cell keys."""

    __slots__ = ("ambient", "width", "deltas", "_terms")

    def __init__(self, ambient: Ambient, terms: Mapping[Cell, Fraction] | None = None):
        terms = {c: Fraction(_coefficient(q)) for c, q in (terms or {}).items()}
        fn = from_closed(ambient, _basis(terms))
        self.ambient, self.width, self.deltas = ambient, fn.width, fn.deltas
        self._terms = None

    @classmethod
    def _trusted(cls, ambient: Ambient, width: int, deltas: dict) -> "SimpleFunction":
        """Wrap nonzero deltas at a key width; the caller hands the dict over."""
        fn = object.__new__(cls)
        fn.ambient, fn.width, fn.deltas, fn._terms = ambient, width, deltas, None
        return fn

    @property
    def terms(self) -> Mapping[Cell, Fraction]:
        """The nonzero value of every cell: the nonzero steps expanded."""
        if self._terms is None:
            ambient, width = self.ambient, self.width
            self._terms = {c: v for start, stop, v in geo.steps(self.deltas)
                           for c in ambient.cells(start, stop, width)}
        return self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleFunction):
            return NotImplemented
        width = max(self.width, other.width)
        return (self.ambient == other.ambient
                and _deltas_at(self, width) == _deltas_at(other, width))

    def __hash__(self) -> int:
        return hash((self.ambient, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.deltas)

    def __add__(self, other: "SimpleFunction") -> "SimpleFunction":
        return _linear(self, other, 1)

    def __sub__(self, other: "SimpleFunction") -> "SimpleFunction":
        return _linear(self, other, -1)

    def __neg__(self) -> "SimpleFunction":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            deltas = {k: v * q for k, v in self.deltas.items()} if q else {}
            return SimpleFunction._trusted(self.ambient, self.width, deltas)
        return multiply(self, other) if isinstance(other, type(self)) else NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = ", ".join(f"{c}: {q}" for c, q in sorted(
            self.terms.items(), key=lambda it: it[0].sort_key()))
        return f"SimpleFunction({{{body}}})"


def _linear(f: SimpleFunction, g, sign: int):
    """f + sign * g, or NotImplemented when g is not a simple function."""
    return combine([1, sign], [f, g]) if isinstance(g, SimpleFunction) else NotImplemented


def _deltas_at(f: SimpleFunction, width: int) -> dict:
    """f's deltas at a key width at least f's, repacked when it differs."""
    if f.width == width:
        return f.deltas
    return {f.ambient.pack(f.ambient.cells(k, k + 1, f.width)[0], width): v
            for k, v in f.deltas.items()}


def zero(ambient: Ambient) -> SimpleFunction:
    return SimpleFunction(ambient)


def unit(ambient: Ambient) -> SimpleFunction:
    """Indicator of the origin point: the multiplicative identity."""
    return indicator(ambient.origin())


def indicator(p: Polytope, mode: str = "closed") -> SimpleFunction:
    """Indicator of a polytope, either closed or of its relative interior."""
    if mode not in ("closed", "interior"):
        raise ValueError(f"unknown indicator mode {mode!r}")
    faces = ((p, 1),) if mode == "closed" else geo.relint_faces(p)
    basis = {f: Fraction(sign) for f, sign in faces}
    return from_closed(p.ambient, basis)


def combine(coeffs: Sequence, fns: Sequence[SimpleFunction]) -> SimpleFunction:
    """Pointwise linear combination; all functions must share the ambient."""
    if len(coeffs) != len(fns):
        raise ValueError("combine needs one coefficient per function")
    if not fns:
        raise ValueError("combine needs at least one function")
    ambient, width = fns[0].ambient, max(f.width for f in fns)
    acc: dict = {}
    for q, f in zip(map(_coefficient, coeffs), fns):
        if f.ambient != ambient:
            raise AmbientMismatchError(f"{f.ambient} vs {ambient}")
        if q:
            ambient.fold(acc, _deltas_at(f, width), [(Fraction(q), 0)])
    return SimpleFunction._trusted(ambient, width, {k: v for k, v in acc.items() if v})


def _basis(terms: Mapping) -> dict:
    """A cell map in the basis of closed convex polytopes (cell closures),
    with the map's number type: inclusion-exclusion over each closure's faces."""
    acc: dict = {}
    for cell, coeff in terms.items():
        for face, sign in geo.relint_faces(cell.closure()):
            acc[face] = acc.get(face, 0) + coeff * sign
    return {p: q for p, q in acc.items() if q}


def _closed_basis(f: SimpleFunction) -> dict:
    """Rewrite in the basis of closed convex polytopes (cell closures).
    The weights keep f's number type: ints stay ints, Fractions Fractions."""
    return _basis(f.terms)


def closed_product(a: Mapping, b: Mapping) -> dict:
    """The ring product in the closed basis, sum a_P b_Q [P+Q], with like
    polytopes collected and zero weights dropped."""
    acc: dict = {}
    for p, qa in a.items():
        for q, qb in b.items():
            pq = geo.minkowski_sum(p, q)
            acc[pq] = acc.get(pq, 0) + qa * qb
    return {pq: w for pq, w in acc.items() if w}


def from_closed(ambient: Ambient, basis: Mapping) -> SimpleFunction:
    """The simple function of a closed-basis element: the runs of each
    polytope folded into deltas, at the width of the basis's reach.  The
    weights keep the basis's type: Fractions in the ring operations, ints
    in a presentation's images."""
    width = ambient.width(ambient.reach(basis))
    deltas: dict = {}
    get, runs = deltas.get, ambient.runs
    for p, q in basis.items():
        _coefficient(q)  # refuses a float weight
        for start, stop in runs(p, width):
            deltas[start] = get(start, 0) + q
            deltas[stop] = get(stop, 0) - q
    return SimpleFunction._trusted(ambient, width, {k: v for k, v in deltas.items() if v})


@lru_cache(maxsize=None)
def _shape_image(shape: Cell, basis: tuple) -> tuple:
    """(reach, image) of [shape], a cell at the origin, times basis pairs."""
    ambient, closed = shape.closure().ambient, closed_product(_basis({shape: 1}), dict(basis))
    return ambient.reach(closed), from_closed(ambient, closed)


def times_closed(f: SimpleFunction, basis: Mapping) -> SimpleFunction:
    """f times a closed-basis element: per run of f's cells, its shape's cached
    image moved to each cell, as a presentation moves a monomial's shape image."""
    ambient, items = f.ambient, tuple(basis.items())
    for _, q in items:
        _coefficient(q)  # refuses a float weight
    pieces = [(v, _shape_image(shape, items), offset, count)
              for start, stop, v in geo.steps(f.deltas)
              for shape, offset, count in ambient.pieces(start, stop, f.width)]
    width = ambient.width(max((reach + count - 1 for _, (reach, _), _, count in pieces),
                              default=0), [offset for _, _, offset, _ in pieces])
    acc = {}
    for v, (_, image), offset, count in pieces:
        move = ambient.move(offset, width)
        ambient.fold(acc, _deltas_at(image, width), [(v, move + i) for i in range(count)])
    return SimpleFunction._trusted(ambient, width, {k: v for k, v in acc.items() if v})


def multiply_by_indicator(f: SimpleFunction, p: Polytope) -> SimpleFunction:
    """Ring product f * [p] for a single closed convex polytope p."""
    if p.ambient != f.ambient:
        raise AmbientMismatchError(f"{p.ambient} vs {f.ambient}")
    return times_closed(f, {p: 1})


def multiply(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    """The Minkowski-ring product, extended bilinearly from [P]*[Q] = [P+Q]."""
    if f.ambient != g.ambient:
        raise AmbientMismatchError(f"{f.ambient} vs {g.ambient}")
    return times_closed(f, _closed_basis(g))


def evaluate_at(f: SimpleFunction, x) -> Fraction:
    """Exact value of the function at a point of the ambient space: the sum
    of the deltas up to the key of the cell holding x."""
    key = f.ambient.key_at(x, f.width)
    return Fraction(sum(v for k, v in f.deltas.items() if k <= key))


def is_zero(f: SimpleFunction) -> bool:
    """True exactly when f vanishes everywhere: it has no nonzero delta."""
    return not f.deltas


def euler_char(f: SimpleFunction) -> Fraction:
    """The valuation taking value 1 on every nonempty closed convex
    polytope's indicator: sum of coeff * (-1)^dim over cells, summed per
    piece of each nonzero step, value * (-1)^dim * count, listing no cell."""
    return sum((v * (-1) ** shape.DIM * count for start, stop, v in geo.steps(f.deltas)
                for shape, _, count in f.ambient.pieces(start, stop, f.width)), Fraction(0))
