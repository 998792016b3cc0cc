"""Face-cover identities of a single polytope.

For a polytope P and a set C of its faces, the product of the differences
[P] - [F] over F in C vanishes in the ring of simple functions exactly when
C covers every vertex of P.  This module expands such products, verifies
them through the semantic oracle, decides the cover criterion, implements
the replacement relation on antichains of faces (swap one face for a set of
its own faces covering its vertices), and finds the antichain covers that
are minimal in the resulting order, which yield the defining identities, by
a test on each cover grown from the first uncovered vertex.

Kernel checks embed the polytope with one vertex anchored at the origin,
since kernels of translated polytopes differ; the anchor is reported next
to every result.

Every weight in these products is an integer, a product of +-1 face signs:
:func:`id_holds` multiplies step forms with int weights, and the Laurent
product of :func:`id_context` keeps int coefficients by the coefficient rule
of :mod:`minkring.laurent`.

Both products are cached per sub-cover in one lru cache, bounded at the
512 face sets of the square and keyed on (polytope, frozenset of faces), so
a cover in any face order extends its longest cached prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    """True when every vertex of the polytope lies in some listed face, that
    is, is a vertex of one."""
    return set(geo.vertices(c.polytope)) <= {v for f in c.faces for v in geo.vertices(f)}


def anchored(c: CoverSpec) -> tuple:
    """Translate the polytope so its least vertex, the first in
    polytope_sort_key order, sits at the origin; returns the anchored cover
    (c itself for a zero offset) and the offset, its coordinates negated."""
    off = geo.vertex_coords(geo.negate(geo.vertices(c.polytope)[0]))
    if not any(c.polytope.ambient.shift(off)):
        return c, off
    moved = CoverSpec(geo.translate(c.polytope, off),
                      tuple(geo.translate(f, off) for f in c.faces))
    return moved, off


@lru_cache(maxsize=512)
def _cover_memo(p: Polytope, faces: frozenset) -> list:
    """One sub-cover's [step form, Laurent product], each None until made."""
    return [None, None]


def _cover_product(p: Polytope, faces: tuple, slot: int, value, times):
    """The product over faces, by times(product, face) from value, the empty
    product: the longest prefix with a product in slot `slot` of its memo
    times each later face, each longer prefix's product stored."""
    todo = []  # (memo, last face) of each prefix longer than the cached one
    for i in range(len(faces), 0, -1):
        memo = _cover_memo(p, frozenset(faces[:i]))
        if memo[slot] is not None:
            value = memo[slot]
            break
        todo.append((memo, faces[i - 1]))
    for memo, face in reversed(todo):
        if value is None or value:  # a zero product is the whole product
            value = times(value, face)
        memo[slot] = value
    return value


def id_holds(c: CoverSpec) -> bool:
    """Semantic truth of the identity: the expanded product of the
    indicator differences is the zero function: the first difference times
    each next one by times_closed, on int weights, to the first zero."""
    p = c.polytope

    def times(fn, face):
        diff = {p: 1, face: -1} if face != p else {}  # [P] - [P] is zero
        return sf.from_closed(p.ambient, diff) if fn is None else sf.times_closed(fn, diff)
    fn = _cover_product(p, c.faces, 0, None, times)
    return fn is not None and sf.is_zero(fn)


@lru_cache(maxsize=None)
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
                   geo.line_point(p.lo): LaurentPoly.var("x"),
                   geo.line_point(p.hi): LaurentPoly.var("y")}
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
    return pres, _cover_product(p, ac.faces, 1, LaurentPoly.const(1),
                                lambda acc, f: acc * (p_poly - poly(f))), off


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
    of A that covers the vertices of A (the identity swap is excluded):
    a - b = {A}, and b - a lies in the faces of A and covers its vertices."""
    if a.polytope != b.polytope:
        raise ValueError("covers_relation needs a common polytope")
    _check_poset_member(a)
    _check_poset_member(b)
    gone, introduced = set(a.faces) - set(b.faces), set(b.faces) - set(a.faces)
    if len(gone) != 1:
        return False
    swapped = gone.pop()
    return (introduced <= set(geo.faces(swapped))
            and covers_vertices(CoverSpec(swapped, tuple(introduced))))


def minimal_antichains(p: Polytope) -> list:
    """All antichains of proper faces covering the vertices of p that are
    minimal in the order generated by the swap relation together with
    inclusion; these give the defining identities.  A cover has a
    predecessor exactly when it has a direct one, and a cover b fixes its
    direct ones: b less a redundant face, and (b - I) + {A} for each proper
    face A in no face of b whose vertices I, b's faces inside A, cover.  So
    each cover grown from the first uncovered vertex of p is tested alone."""
    proper = [f for f in geo.faces(p) if f != p]
    if len(proper) > 12:
        raise ValueError(f"face count {len(proper) + 1} exceeds the bound 13")
    verts = {f: set(geo.vertices(f)) for f in proper}
    inside = {f: set(geo.faces(f)) for f in proper}

    def grow(chosen: frozenset, covered: set, banned: frozenset):
        v = next((v for v in geo.vertices(p) if v not in covered), None)
        if v is None:
            yield chosen
            return
        options = [f for f in proper if v in verts[f] and f not in banned
                   and not any(f in inside[g] or g in inside[f] for g in chosen)]
        for i, f in enumerate(options):  # each cover grows along one branch
            yield from grow(chosen | {f}, covered | verts[f], banned.union(options[:i]))

    def minimal(b: frozenset) -> bool:
        return not (any(covers_vertices(CoverSpec(p, tuple(b - {f}))) for f in b)
                    or any(covers_vertices(CoverSpec(a, tuple(b & inside[a])))
                           for a in proper if not any(a in inside[g] for g in b)))

    return sorted((CoverSpec(p, tuple(f for f in proper if f in b))
                   for b in grow(frozenset(), set(), frozenset()) if minimal(b)),
                  key=lambda s: (len(s.faces), tuple(map(geo.polytope_sort_key, s.faces))))
