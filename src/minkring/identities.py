"""Face-cover identities of a single polytope.

For a polytope P and a set C of its faces, the product of the differences
[P] - [F] over F in C vanishes in the ring of simple functions exactly when
C covers every vertex of P.  This module expands such products, verifies
them through the semantic oracle, decides the cover criterion, implements
the replacement relation on antichains of faces (swap one face for a set of
its own faces covering its vertices), and enumerates the antichain covers
that are minimal in the resulting order; those yield the defining
identities.

Kernel checks embed the polytope with one vertex anchored at the origin,
since kernels of translated polytopes differ; the anchor is reported next
to every result.

Every weight in these products is an integer, a product of +-1 face signs:
:func:`id_holds` multiplies simple functions with int cell weights, and the
Laurent product of :func:`id_context` keeps int coefficients by the
coefficient rule of :mod:`minkring.laurent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from . import geometry as geo
from . import simplefn as sf
from .geometry import Polytope
from .laurent import LaurentPoly
from .presentations import box_ring, coxeter_ring, interval_ring
from .rewriting import first_normal_form


class AntichainError(ValueError):
    """A face set violates the antichain requirement."""


@dataclass(frozen=True)
class CoverSpec:
    """A polytope with a duplicate-free list of its faces.

    The polytope itself may appear among the faces; the identity product
    then contains a zero factor and holds degenerately.
    """

    polytope: Polytope
    faces: tuple

    def __post_init__(self):
        pool = set(geo.faces(self.polytope))
        seen = set()
        for f in self.faces:
            if f not in pool:
                raise ValueError(f"{f} is not a face of {self.polytope}")
            if f in seen:
                raise ValueError(f"duplicate face {f}")
            seen.add(f)


def cover(polytope: Polytope, faces) -> CoverSpec:
    return CoverSpec(polytope, tuple(faces))


def covers_vertices(c: CoverSpec) -> bool:
    """True when every vertex of the polytope lies in some listed face."""
    return all(any(geo.contains_polytope(f, v) for f in c.faces)
               for v in geo.vertices(c.polytope))


def anchored(c: CoverSpec) -> tuple:
    """Translate the polytope so its least vertex, the first in
    polytope_sort_key order, sits at the origin; returns the anchored cover
    and the applied offset, that vertex's coordinates negated."""
    off = geo.vertex_coords(geo.negate(geo.vertices(c.polytope)[0]))
    moved = CoverSpec(geo.translate(c.polytope, off),
                      tuple(geo.translate(f, off) for f in c.faces))
    return moved, off


def id_holds(c: CoverSpec) -> bool:
    """Semantic truth of the identity: the expanded product of the
    indicator differences is the zero function.  Each factor is one round
    trip from cells to the closed basis and back, on int weights."""
    p = c.polytope
    ambient = geo.ambient_of(p)
    fn = sf.from_closed(ambient, {geo.origin_of(ambient): 1})
    for face in c.faces:
        diff = {p: 1}
        diff[face] = diff.get(face, 0) - 1
        fn = sf.from_closed(ambient, sf.closed_product(sf._closed_basis(fn), diff))
        if sf.is_zero(fn):
            return True
    return sf.is_zero(fn)


def _box_poly(face: geo.Box) -> LaurentPoly:
    """Laurent preimage of a box face in the box ring (anchored coordinates
    assumed): the one monomial of its low corner and its side lengths."""
    d = len(face.los)
    exps = {}
    for i, (a, b) in enumerate(zip(face.los, face.his)):
        exps["x" if d == 1 else f"x{i + 1}"] = a
        exps["y" if d == 1 else f"y{i + 1}"] = b - a
    return LaurentPoly.term(exps)


def id_context(c: CoverSpec) -> tuple:
    """(presentation, expanded product, anchor offset) for an identity.

    The product expands over the family presentation of the anchored
    polytope: grid polygons through their first normal forms, boxes
    through their face monomials, intervals through the x, y, z naming.
    """
    ac, off = anchored(c)
    p = ac.polytope
    if isinstance(p, geo.Interval):
        if p.lo == p.hi:
            pres, sym = None, {p: LaurentPoly.var("x")}
        else:
            pres = interval_ring(p.lo, p.hi, mode="laurent", naming="xyz")
            sym = {p: LaurentPoly.var("z"),
                   geo.Interval(p.lo, p.lo, p.mode): LaurentPoly.var("x"),
                   geo.Interval(p.hi, p.hi, p.mode): LaurentPoly.var("y")}
        poly = sym.__getitem__
    elif isinstance(p, geo.GridSet):
        pres, poly = coxeter_ring(), lambda f: first_normal_form(f)[1]
    elif isinstance(p, geo.Box):
        pres, poly = box_ring(len(p.los), signed=True), _box_poly
    else:
        raise ValueError(f"id_context does not support the {type(p).__name__} "
                         "family: identities expand over grid polygons, boxes "
                         "and intervals")
    p_poly = poly(p)
    return pres, math.prod((p_poly - poly(f) for f in ac.faces),
                           start=LaurentPoly.const(1)), off


def id_expand(c: CoverSpec) -> LaurentPoly:
    """The expanded identity product; the empty cover gives 1."""
    return id_context(c)[1]


def _is_antichain(faces) -> bool:
    for f, g in combinations(faces, 2):
        if geo.contains_polytope(f, g) or geo.contains_polytope(g, f):
            return False
    return True


def _check_poset_member(c: CoverSpec) -> None:
    if c.polytope in c.faces:
        raise AntichainError("the polytope itself is not allowed in antichains")
    if not _is_antichain(c.faces):
        raise AntichainError(f"faces are not an antichain: {c.faces}")


def covers_relation(a: CoverSpec, b: CoverSpec) -> bool:
    """True when b arises from a by swapping one face A for a set of faces
    of A that covers the vertices of A (the identity swap is excluded)."""
    if a.polytope != b.polytope:
        raise ValueError("covers_relation needs a common polytope")
    _check_poset_member(a)
    _check_poset_member(b)
    sa, sb = set(a.faces), set(b.faces)
    if sa == sb:
        return False
    for swapped in sa:
        if swapped in sb:
            continue
        rest = sa - {swapped}
        if not rest <= sb:
            continue
        introduced = sb - rest
        sub_faces = set(geo.faces(swapped))
        if not introduced <= sub_faces:
            continue
        replacement = {f for f in sb if f in sub_faces}
        if covers_vertices(CoverSpec(swapped, tuple(replacement))):
            return True
    return False


def minimal_antichains(p: Polytope) -> list:
    """All antichains of proper faces covering the vertices of p that are
    minimal in the order generated by the swap relation together with
    inclusion; these give the defining identities."""
    all_faces = geo.faces(p)
    if len(all_faces) > 12:
        raise ValueError(f"face count {len(all_faces)} exceeds the bound 12")
    proper = [f for f in all_faces if f != p]
    pool = []
    for r in range(1, len(proper) + 1):
        for combo in combinations(proper, r):
            if _is_antichain(combo):
                spec = CoverSpec(p, combo)
                if covers_vertices(spec):
                    pool.append(spec)
    # An element has a predecessor in the generated order exactly when it has
    # a direct one, because the last step of any chain is direct.
    sets = [set(s.faces) for s in pool]
    minimal = [b for j, b in enumerate(pool)
               if not any(i != j and (sets[i] < sets[j] or covers_relation(a, b))
                          for i, a in enumerate(pool))]
    minimal.sort(key=lambda s: (len(s.faces),
                                tuple(geo.polytope_sort_key(f) for f in s.faces)))
    return minimal
