"""The semantic ring of simple functions.

A :class:`SimpleFunction` is a finite rational combination of indicator
functions of canonical cells of one ambient space.  The open cells are the
storage basis, so two functions are equal on the ambient space exactly when
their term maps coincide; the zero test is a lookup.

Closed indicators live one conversion away.  A closed-basis element maps
closed convex polytopes to rational weights; inclusion-exclusion over the
face lattice,

    [interior P] = sum over faces F of (-1)^(dim P - dim F) [F],

rewrites any open cell in that basis.  The ring's one product, [P]*[Q] =
[P+Q] extended bilinearly, is :func:`closed_product`, and :func:`from_closed`
decomposes each polytope of a closed-basis element into cells once; every
multiplication goes through the two.

On the 1-D ambient with free endpoints the cell structure is not a fixed
partition, so functions are re-canonicalized after every operation by one
sweep over the breakpoints: maximal open intervals of constant nonzero
value, plus point corrections.

The trusted constructor ``SimpleFunction._trusted`` neither copies nor
re-wraps its dict.  Its invariant: every weight is nonzero, the map is
canonical (:func:`canonical_terms`) and the new function alone owns it.
Public results carry ``Fraction`` weights; weights inside the library may
be ``int``s, as integral Laurent coefficients are under the coefficient rule
of :mod:`minkring.laurent`, and compare and hash like the equal Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import geometry as geo
from .geometry import (Ambient, Cell, Line, OpenInterval1D, Point1D, Polytope,
                       cell_closure, cell_contains, cell_dim, cell_sort_key)


class AmbientMismatchError(ValueError):
    """Operands live on different ambient spaces."""


def _canonical_line_terms(terms: Mapping[Cell, Fraction]) -> dict:
    """Canonical form on the line: maximal constant open runs + residual points.
    A run continues through a breakpoint t while the values left of t, at t
    and right of t are equal and nonzero."""
    at: dict = {}
    opens: dict = {}
    closes: dict = {}
    for c, q in terms.items():
        if isinstance(c, Point1D):
            at[c.at] = at.get(c.at, 0) + q
        else:
            opens[c.lo] = opens.get(c.lo, 0) + q
            closes[c.hi] = closes.get(c.hi, 0) + q
    out: dict = {}
    left, start = 0, None
    for t in sorted(at.keys() | opens.keys() | closes.keys()):
        through = left - closes.get(t, 0)
        value, right = through + at.get(t, 0), through + opens.get(t, 0)
        if left and left == value == right:
            continue
        if left:
            out[OpenInterval1D(start, t)] = left
        if value:
            out[Point1D(t)] = value
        left, start = right, t
    return out


class SimpleFunction:
    """Finite rational combination of cell indicators on one ambient space."""

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient: Ambient, terms: Mapping[Cell, Fraction] | None = None):
        self.ambient = ambient
        self._terms = canonical_terms(
            ambient, {c: Fraction(q) for c, q in terms.items()}) if terms else {}

    @classmethod
    def _trusted(cls, ambient: Ambient, terms: dict) -> "SimpleFunction":
        """Wrap a canonical dict of nonzero weights; the caller hands it over."""
        fn = object.__new__(cls)
        fn.ambient, fn._terms = ambient, terms
        return fn

    @property
    def terms(self) -> Mapping[Cell, Fraction]:
        return self._terms

    def cells(self) -> list:
        return sorted(self._terms, key=cell_sort_key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleFunction):
            return NotImplemented
        return self.ambient == other.ambient and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ambient, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "SimpleFunction") -> "SimpleFunction":
        return combine([1, 1], [self, other])

    def __sub__(self, other: "SimpleFunction") -> "SimpleFunction":
        return combine([1, -1], [self, other])

    def __neg__(self) -> "SimpleFunction":
        return SimpleFunction(self.ambient, {c: -q for c, q in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return SimpleFunction(self.ambient,
                                  {c: q * f for c, q in self._terms.items()})
        return multiply(self, other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = ", ".join(f"{c}: {q}" for c, q in sorted(
            self._terms.items(), key=lambda it: cell_sort_key(it[0])))
        return f"SimpleFunction({{{body}}})"


def zero(ambient: Ambient) -> SimpleFunction:
    return SimpleFunction(ambient)


def unit(ambient: Ambient) -> SimpleFunction:
    """Indicator of the origin point: the multiplicative identity."""
    return indicator(geo.origin_of(ambient))


def indicator(p: Polytope, mode: str = "closed") -> SimpleFunction:
    """Indicator of a polytope, either closed or of its relative interior."""
    if mode not in ("closed", "interior"):
        raise ValueError(f"unknown indicator mode {mode!r}")
    faces = ((p, 1),) if mode == "closed" else geo.relint_faces(p)
    basis = {f: Fraction(sign) for f, sign in faces}
    return from_closed(geo.ambient_of(p), basis)


def combine(coeffs: Sequence, fns: Sequence[SimpleFunction]) -> SimpleFunction:
    """Pointwise linear combination; all functions must share the ambient."""
    if len(coeffs) != len(fns):
        raise ValueError("combine needs one coefficient per function")
    if not fns:
        raise ValueError("combine needs at least one function")
    ambient = fns[0].ambient
    acc: dict = {}
    for q, f in zip(coeffs, fns):
        if f.ambient != ambient:
            raise AmbientMismatchError(f"{f.ambient} vs {ambient}")
        q = Fraction(q)
        if not q:
            continue
        for cell, coeff in f.terms.items():
            acc[cell] = acc.get(cell, 0) + q * coeff
    return SimpleFunction._trusted(ambient, canonical_terms(ambient, acc))


def _closed_basis(f: SimpleFunction) -> dict:
    """Rewrite in the basis of closed convex polytopes (cell closures).
    The weights keep f's number type: ints stay ints, Fractions Fractions."""
    line_mode = f.ambient.mode if isinstance(f.ambient, Line) else None
    acc: dict = {}
    for cell, coeff in f.terms.items():
        for face, sign in geo.relint_faces(cell_closure(cell, line_mode)):
            acc[face] = acc.get(face, 0) + coeff * sign
    return {p: q for p, q in acc.items() if q}


def closed_product(a: Mapping, b: Mapping) -> dict:
    """The ring product in the closed basis, sum a_P b_Q [P+Q], with like
    polytopes collected and zero weights dropped."""
    acc: dict = {}
    for p, qa in a.items():
        for q, qb in b.items():
            pq = geo.minkowski_sum(p, q)
            acc[pq] = acc.get(pq, 0) + qa * qb
    return {pq: w for pq, w in acc.items() if w}


def canonical_terms(ambient: Ambient, acc: dict) -> dict:
    """The canonical map of summed cell weights: zeros dropped, and on the
    line one sweep into maximal runs."""
    if isinstance(ambient, Line):
        return _canonical_line_terms(acc)
    return {c: q for c, q in acc.items() if q}


def from_closed(ambient: Ambient, basis: Mapping) -> SimpleFunction:
    """The simple function of a closed-basis element: each polytope is
    decomposed into cells once.  The weights keep the basis's type:
    Fractions in the ring operations, ints in a presentation's images."""
    acc: dict = {}
    for p, q in basis.items():
        for cell in geo.decompose_cells(p):
            acc[cell] = acc.get(cell, 0) + q
    return SimpleFunction._trusted(ambient, canonical_terms(ambient, acc))


def multiply_by_indicator(f: SimpleFunction, p: Polytope) -> SimpleFunction:
    """Ring product f * [p] for a single closed convex polytope p."""
    if geo.ambient_of(p) != f.ambient:
        raise AmbientMismatchError(f"{geo.ambient_of(p)} vs {f.ambient}")
    return from_closed(f.ambient, closed_product(_closed_basis(f), {p: 1}))


def multiply(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    """The Minkowski-ring product, extended bilinearly from [P]*[Q] = [P+Q]."""
    if f.ambient != g.ambient:
        raise AmbientMismatchError(f"{f.ambient} vs {g.ambient}")
    return from_closed(f.ambient, closed_product(_closed_basis(f), _closed_basis(g)))


def evaluate_at(f: SimpleFunction, x) -> Fraction:
    """Exact value of the function at a point of the ambient space: the
    weight of the one cell holding x, or a scan of the cells on the line."""
    if isinstance(f.ambient, Line):
        return sum((q for c, q in f.terms.items() if cell_contains(c, x)), Fraction(0))
    return Fraction(f.terms.get(geo.cell_at(f.ambient, x), 0))


def is_zero(f: SimpleFunction) -> bool:
    """True exactly when f vanishes everywhere (empty canonical term map)."""
    return not f.terms


def euler_char(f: SimpleFunction) -> Fraction:
    """The valuation taking value 1 on every nonempty closed convex
    polytope's indicator: sum of coeff * (-1)^dim over cells."""
    return sum((q * (-1) ** cell_dim(c) for c, q in f.terms.items()), Fraction(0))
