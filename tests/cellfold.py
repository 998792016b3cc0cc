"""The cell-dict form of simple functions, kept as the reference for the
step form of :mod:`minkring.simplefn`.

A function here is its canonical map of cells to nonzero weights.  Every
operation folds weights cell by cell; on an arrangement the canonical map
drops zeros, and on the line one sweep over the breakpoints rewrites the
map into maximal open runs of constant nonzero value plus point
corrections.  Products go through the closed basis: each cell's closure is
rewritten by inclusion-exclusion over its faces, like polytopes are
multiplied by Minkowski sums, and each sum is decomposed into cells.
"""

from __future__ import annotations

from fractions import Fraction

import minkring.geometry as geo


def sweep(terms) -> dict:
    """Canonical form on the line: maximal constant open runs + residual
    points.  A run continues through a breakpoint t while the values left of
    t, at t and right of t are equal and nonzero."""
    at: dict = {}
    opens: dict = {}
    closes: dict = {}
    for c, q in terms.items():
        if isinstance(c, geo.Point1D):
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
            out[geo.OpenInterval1D(start, t)] = left
        if value:
            out[geo.Point1D(t)] = value
        left, start = right, t
    return out


def canonical(ambient, acc) -> dict:
    """The canonical map of summed cell weights: zeros dropped, and on the
    line the sweep."""
    if isinstance(ambient, geo.Line):
        return sweep(acc)
    return {c: q for c, q in acc.items() if q}


def combine(ambient, coeffs, maps) -> dict:
    acc: dict = {}
    for q, terms in zip(coeffs, maps):
        for c, w in terms.items():
            acc[c] = acc.get(c, 0) + Fraction(q) * w
    return canonical(ambient, acc)


def closed_basis(ambient, terms) -> dict:
    acc: dict = {}
    for c, w in terms.items():
        for face, sign in geo.relint_faces(c.closure()):
            acc[face] = acc.get(face, 0) + w * sign
    return {p: q for p, q in acc.items() if q}


def from_closed(ambient, basis) -> dict:
    acc: dict = {}
    for p, q in basis.items():
        for c in geo.decompose_cells(p):
            acc[c] = acc.get(c, 0) + q
    return canonical(ambient, acc)


def multiply(ambient, a, b) -> dict:
    acc: dict = {}
    for p, qa in closed_basis(ambient, a).items():
        for q, qb in closed_basis(ambient, b).items():
            pq = geo.minkowski_sum(p, q)
            acc[pq] = acc.get(pq, 0) + qa * qb
    return from_closed(ambient, {p: w for p, w in acc.items() if w})


def evaluate_at(ambient, terms, x) -> Fraction:
    """The weight of the cell holding x, or on the line the scan of every
    cell."""
    if isinstance(ambient, geo.Line):
        return sum((q for c, q in terms.items() if c.contains(x)), Fraction(0))
    return Fraction(terms.get(geo.cell_at(ambient, x), 0))


def euler_char(terms) -> Fraction:
    return sum((q * (-1) ** c.DIM for c, q in terms.items()), Fraction(0))
