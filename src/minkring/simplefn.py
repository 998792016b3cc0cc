"""The semantic ring of simple functions.

A :class:`SimpleFunction` is a finite rational combination of indicator
functions of canonical cells of one ambient space.  The open cells are the
storage basis, so two functions are equal on the ambient space exactly when
their term maps coincide; the zero test is a lookup.

Closed indicators live one conversion away: the relative interior of a
polytope satisfies the inclusion-exclusion identity over its face lattice,

    [interior P] = sum over faces F of (-1)^(dim P - dim F) [F],

and the same identity rewrites any open cell in the closed basis.  The ring
product multiplies closed convex indicators by Minkowski sum of the
underlying sets and is extended bilinearly, so multiplication routes every
factor through the closed basis and re-decomposes the resulting polytopes.

On the 1-D ambient with free endpoints the cell structure is not a fixed
partition, so functions are re-canonicalized after every operation: maximal
open intervals of constant nonzero value, plus point corrections.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import geometry as geo
from .geometry import (Ambient, Cell, Line, OpenInterval1D, Point1D, Polytope,
                       cell_closure, cell_contains, cell_dim, cell_sort_key)
from .scalars import Scalar


class AmbientMismatchError(ValueError):
    """Operands live on different ambient spaces."""


def _canonical_line_terms(terms: Mapping[Cell, Fraction]) -> dict:
    """Canonical form on the line: maximal constant open runs + residual points."""
    pts = sorted({c.at for c in terms if isinstance(c, Point1D)}
                 | {e for c in terms if isinstance(c, OpenInterval1D)
                    for e in (c.lo, c.hi)})
    if not pts:
        return {}
    intervals = [(c, q) for c, q in terms.items() if isinstance(c, OpenInterval1D)]

    def value_at_point(t: Scalar) -> Fraction:
        val = Fraction(0)
        for c, q in terms.items():
            if isinstance(c, Point1D) and c.at == t:
                val += q
            elif isinstance(c, OpenInterval1D) and (t - c.lo).sign() > 0 \
                    and (c.hi - t).sign() > 0:
                val += q
        return val

    def value_on_gap(i: int) -> Fraction:
        lo, hi = pts[i], pts[i + 1]
        val = Fraction(0)
        for c, q in intervals:
            if (lo - c.lo).sign() >= 0 and (c.hi - hi).sign() >= 0:
                val += q
        return val

    point_vals = [value_at_point(t) for t in pts]
    gap_vals = [value_on_gap(i) for i in range(len(pts) - 1)]

    out: dict = {}
    covered = [Fraction(0)] * len(pts)  # run value at interior breakpoints
    i = 0
    while i < len(gap_vals):
        g = gap_vals[i]
        if g == 0:
            i += 1
            continue
        j = i
        while j + 1 < len(gap_vals) and gap_vals[j + 1] == g and point_vals[j + 1] == g:
            covered[j + 1] = g
            j += 1
        out[OpenInterval1D(pts[i], pts[j + 1])] = g
        i = j + 1
    for t, val, run in zip(pts, point_vals, covered):
        residual = val - run
        if residual:
            out[Point1D(t)] = residual
    return out


class SimpleFunction:
    """Finite rational combination of cell indicators on one ambient space."""

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient: Ambient, terms: Mapping[Cell, Fraction] | None = None):
        clean = {}
        if terms:
            for cell, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[cell] = coeff
        if isinstance(ambient, Line) and clean:
            clean = _canonical_line_terms(clean)
        self.ambient = ambient
        self._terms = clean

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
    ambient = geo.ambient_of(p)
    if mode == "closed":
        return SimpleFunction(ambient, {c: Fraction(1) for c in geo.decompose_cells(p)})
    if mode != "interior":
        raise ValueError(f"unknown indicator mode {mode!r}")
    acc: dict = {}
    for face, sign in geo.relint_faces(p):
        for c in geo.decompose_cells(face):
            acc[c] = acc.get(c, 0) + sign
    return SimpleFunction(ambient, acc)


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
            acc[cell] = acc.get(cell, Fraction(0)) + q * coeff
    return SimpleFunction(ambient, acc)


def _closed_basis(f: SimpleFunction) -> dict:
    """Rewrite in the basis of closed convex polytopes (cell closures)."""
    line_mode = f.ambient.mode if isinstance(f.ambient, Line) else None
    acc: dict = {}
    for cell, coeff in f.terms.items():
        for face, sign in geo.relint_faces(cell_closure(cell, line_mode)):
            acc[face] = acc.get(face, Fraction(0)) + coeff * sign
    return {p: q for p, q in acc.items() if q}


def multiply_by_indicator(f: SimpleFunction, p: Polytope) -> SimpleFunction:
    """Ring product f * [p] for a single closed convex polytope p."""
    if geo.ambient_of(p) != f.ambient:
        raise AmbientMismatchError(f"{geo.ambient_of(p)} vs {f.ambient}")
    acc: dict = {}
    for poly, coeff in _closed_basis(f).items():
        for cell in geo.decompose_cells(geo.minkowski_sum(poly, p)):
            acc[cell] = acc.get(cell, Fraction(0)) + coeff
    return SimpleFunction(f.ambient, acc)


def multiply(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    """The Minkowski-ring product, extended bilinearly from [P]*[Q] = [P+Q]."""
    if f.ambient != g.ambient:
        raise AmbientMismatchError(f"{f.ambient} vs {g.ambient}")
    cf, cg = _closed_basis(f), _closed_basis(g)
    acc: dict = {}
    for pf, qf in cf.items():
        for pg, qg in cg.items():
            coeff = qf * qg
            for cell in geo.decompose_cells(geo.minkowski_sum(pf, pg)):
                acc[cell] = acc.get(cell, Fraction(0)) + coeff
    return SimpleFunction(f.ambient, acc)


def evaluate_at(f: SimpleFunction, x) -> Fraction:
    """Exact value of the function at a point of the ambient space."""
    return sum((q for c, q in f.terms.items() if cell_contains(c, x)), Fraction(0))


def is_zero(f: SimpleFunction) -> bool:
    """True exactly when f vanishes everywhere (empty canonical term map)."""
    return not f.terms


def euler_char(f: SimpleFunction) -> Fraction:
    """The valuation taking value 1 on every nonempty closed convex
    polytope's indicator: sum of coeff * (-1)^dim over cells."""
    total = Fraction(0)
    for cell, coeff in f.terms.items():
        total += coeff * (-1) ** cell_dim(cell)
    return total
