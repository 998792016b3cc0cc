"""Ring presentations: named generators mapped to polytopes.

A :class:`Presentation` fixes an ordered set of generator names, assigns
each a polytope of one ambient family, and realizes the surjection from the
(Laurent) polynomial ring in those names onto the ring of simple functions:
a name maps to the closed indicator of its polytope, products map to
Minkowski sums, and the inverse of a d-dimensional polytope indicator is
(-1)^d times the indicator of the negated relative interior.  By
inclusion-exclusion over the face lattice of -P (McMullen's polytope
algebra) that inverse is a signed sum of closed faces,

    (-1)^d [relint(-P)] = sum over faces F of -P of (-1)^(dim F) [F],

so a point generator's inverse is a translation, a segment's has three
terms and the unit triangle's seven.

A generator whose polytope is a point is a translation, so every monomial
splits into a *shape*, its factors on the other generators, and an
*offset*, the sum of exp * point over its point factors (a Scalar on the
line, integer coordinates elsewhere).  The shape's image is built in the
closed basis: each positive power k of P is the element {kP: 1}, each
inverse power the signed faces of -kP above, and the factors are multiplied
with the ring's one closed-basis product before the runs of each resulting
polytope are folded once (:func:`minkring.simplefn.from_closed`).  Images
are cached per shape, so the cache holds at most one entry per distinct
shape, and a monomial's image is its shape's image moved by the offset, one
addition per delta of its step form.  Every geometric weight is an integer
(products of +-1 face signs), so the cached images carry ``int`` weights,
as integral coefficients do (see :mod:`minkring.laurent`): the image of
D * f, D the lcm of f's denominators, is summed in ``int``s and divided by
D once per value :meth:`phi` reports.

Kernel membership is decided semantically: map the polynomial through the
surjection and test the image for zero, which reads its deltas and folds
no cell; :meth:`kernel_witness` asks the ambient for the least cell where
the image is nonzero, and only its value becomes a ``Fraction``.  Declared
kernel generators are verified this way at construction time, never
trusted.

The catalog covers the interval rings (four isomorphism classes, split by
whether an endpoint is zero and whether the endpoint ratio is rational),
the d-dimensional box rings in plain and invertible form, and the
triangular-grid ring with its nine declared kernel generators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Mapping, Optional, Sequence, Tuple

from . import geometry as geo
from . import simplefn as sf
from .geometry import Polytope
from .laurent import LaurentPoly, univariate_ideal_member
from .scalars import Scalar, ScalarLike


class NonInvertibleError(ValueError):
    """Negative exponent on a non-invertible generator."""


class WitnessError(ValueError):
    """A non-redundancy witness left two or more variables free."""


@dataclass(frozen=True)
class Generator:
    name: str
    polytope: Polytope
    invertible: bool


class Presentation:
    """Immutable generator table plus verified declared kernel generators."""

    def __init__(self, ring_id: str, mode: str,
                 generators: Sequence[Generator],
                 declared: Sequence[LaurentPoly] = ()):
        if mode not in ("polynomial", "laurent"):
            raise ValueError(f"unknown mode {mode!r}")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        ambients = {geo.ambient_of(g.polytope) for g in generators}
        if len(ambients) != 1:
            raise ValueError("generators must share one ambient space")
        self.ring_id = ring_id
        self.mode = mode
        self.generators = {g.name: g for g in generators}
        self.ambient = ambients.pop()
        self.declared = tuple(declared)
        # name -> coordinates of each point generator, a translation
        self._points = {g.name: geo.vertex_coords(g.polytope)
                        for g in generators if geo.dim(g.polytope) == 0}
        self._mono_cache: dict = {}  # shape -> image
        for g in self.declared:
            if not self.kernel_member(g):
                raise ValueError(f"declared kernel generator {g} is not in the kernel")

    def names(self) -> Tuple[str, ...]:
        return tuple(self.generators)

    def unit(self) -> sf.SimpleFunction:
        return sf.unit(self.ambient)

    # -- the surjection ------------------------------------------------------

    def generator_power(self, name: str, exp: int) -> sf.SimpleFunction:
        if name not in self.generators:
            raise KeyError(f"unknown generator {name!r} in ring {self.ring_id}")
        return self.phi(LaurentPoly.term({name: exp}))

    def _split(self, m):
        """(shape, offset) of a monomial: its factors on generators that are
        not points, and the sum of exp * point over the others, in the
        coordinates of geo.translate (None when there are none).  Checks
        every factor, in order, for an unknown name or a negative power of
        a non-invertible generator."""
        shape, moves = [], []
        for name, exp in m:
            gen = self.generators.get(name)
            if gen is None:
                raise KeyError(f"unknown generator {name!r} in ring {self.ring_id}")
            if exp < 0 and (self.mode != "laurent" or not gen.invertible):
                raise NonInvertibleError(
                    f"negative exponent on non-invertible generator {name!r}"
                )
            point = self._points.get(name)
            if point is None:
                shape.append((name, exp))
            else:
                moves.append((exp, point))
        return tuple(shape), (self.ambient.offset(moves) if moves else None)

    def _phi_monomial(self, m) -> sf.SimpleFunction:
        """Image of one monomial, with int weights: its shape's, moved."""
        deltas, _, width = self._image_ints(LaurentPoly._trusted({m: 1}))
        return sf.SimpleFunction._trusted(self.ambient, width, deltas)

    def _shape_image(self, shape) -> tuple:
        """(reach, image) of a shape from :meth:`_split`: its int-weight image,
        built once as a signed sum of closed polytopes, and their reach."""
        entry = self._mono_cache.get(shape)
        if entry is None:
            factors = []
            for name, exp in shape:
                dilated = geo.scale(self.generators[name].polytope, abs(exp))
                if exp > 0:
                    factors.append({dilated: 1})
                else:
                    factors.append({f: (-1) ** geo.dim(f)
                                    for f in geo.faces(geo.negate(dilated))})
            basis = {geo.origin_of(self.ambient): 1}
            # Small factors first keep the intermediate sums few.
            for factor in sorted(factors, key=len):
                basis = sf.closed_product(basis, factor)
            entry = self.ambient.reach(basis), sf.from_closed(self.ambient, basis)
            self._mono_cache[shape] = entry
        return entry

    def _image_ints(self, f: LaurentPoly) -> tuple:
        """(deltas, D, width): the nonzero int deltas of the image of D * f, D the
        lcm of f's denominators: the shape images of f's terms, moved by their
        offsets and folded at a key width for every term's reach."""
        den = math.lcm(*(c.denominator for c in f.terms.values()))
        parts = [(c.numerator * (den // c.denominator), *self._split(m))
                 for m, c in f.terms.items()]
        images = [self._shape_image(shape) for _, shape, _ in parts]
        ambient = self.ambient
        width = ambient.width(max(map(itemgetter(0), images), default=0),
                              [offset for _, _, offset in parts if offset])
        acc: dict = {}
        for (_, image), (n, _, offset) in zip(images, parts):
            ambient.fold(acc, n, sf._deltas_at(image, width), offset, width)
        return {k: v for k, v in acc.items() if v}, den, width

    def phi(self, f: LaurentPoly) -> sf.SimpleFunction:
        """Image of f under the surjection, as a canonical simple function:
        the int deltas of :meth:`_image_ints` divided by D once per value."""
        deltas, den, width = self._image_ints(f)
        fraction = {v: Fraction(v, den) for v in set(deltas.values())}
        return sf.SimpleFunction._trusted(self.ambient, width,
                                          {k: fraction[v] for k, v in deltas.items()})

    def kernel_member(self, f: LaurentPoly) -> bool:
        """True when the image of f is zero: it has no nonzero delta."""
        return not self._image_ints(f)[0]

    def kernel_witness(self, f: LaurentPoly):
        """None when f is in the kernel, else (point, value): the least cell in
        cell_sort_key order where the image is nonzero, found from the deltas."""
        deltas, den, width = self._image_ints(f)
        if not deltas:
            return None
        cell, value = self.ambient.least(deltas, width)
        return geo.cell_representative(cell), Fraction(value, den)

    # -- description ---------------------------------------------------------

    def document(self) -> str:
        lines = ["minkring-presentation v1",
                 f"ring: {self.ring_id}",
                 f"mode: {self.mode}"]
        for g in self.generators.values():
            inv = " (invertible)" if g.invertible else ""
            lines.append(f"generator: {g.name} -> {g.polytope.ambient.text(g.polytope)}{inv}")
        for p in self.declared:
            lines.append(f"kernel-generator: {p}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Presentation({self.ring_id})"


# ---------------------------------------------------------------------------
# the principal case: a single closed convex set


class PrincipalShape(enum.Enum):
    EMPTY = "empty"
    ORIGIN = "origin"
    SELF_SIMILAR = "self-similar"      # S = 2S, S not empty and not {0}
    BOUNDED = "bounded"                # bounded nondegenerate


@dataclass(frozen=True)
class PrincipalIdeal:
    shape: PrincipalShape
    mode: str
    generators: Tuple[LaurentPoly, ...]
    whole_ring: bool = False

    def text(self) -> str:
        if self.whole_ring:
            return "1"
        if not self.generators:
            return "0"
        return ", ".join(str(g) for g in self.generators)


def classify_principal(shape: PrincipalShape, mode: str = "polynomial") -> PrincipalIdeal:
    """Kernel of the one-generator surjection for each shape of closed
    convex set, in polynomial or Laurent form."""
    x = LaurentPoly.var("x")
    one = LaurentPoly.const(1)
    if mode == "polynomial":
        table = {
            PrincipalShape.EMPTY: (x,),
            PrincipalShape.ORIGIN: (x - one,),
            PrincipalShape.SELF_SIMILAR: (x * (x - one),),
            PrincipalShape.BOUNDED: (),
        }
        return PrincipalIdeal(shape, mode, table[shape])
    if mode == "laurent":
        if shape is PrincipalShape.EMPTY:
            return PrincipalIdeal(shape, mode, (one,), whole_ring=True)
        if shape in (PrincipalShape.ORIGIN, PrincipalShape.SELF_SIMILAR):
            return PrincipalIdeal(shape, mode, (x - one,))
        return PrincipalIdeal(shape, mode, ())
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# interval rings


def _ratio(alpha: Scalar, beta: Scalar) -> Optional[Fraction]:
    """alpha/beta as a Fraction when the ratio is rational, else None."""
    if beta.p != 0 and beta.q != 0:
        r1, r2 = alpha.p / beta.p, alpha.q / beta.q
        return r1 if r1 == r2 else None
    if beta.q == 0:
        return alpha.p / beta.p if alpha.q == 0 else None
    return alpha.q / beta.q if alpha.p == 0 else None


@lru_cache(maxsize=None)
def interval_ring(alpha: ScalarLike, beta: ScalarLike, mode: str = "polynomial",
                  naming: str = "auto") -> Presentation:
    """Ring of a closed interval and its endpoints.

    The declared kernel generators follow the four isomorphism classes:
    one endpoint zero; irrational endpoint ratio; rational ratio of equal
    signs; rational ratio of opposite signs.  With ``naming='xyz'`` the
    zero-endpoint case keeps all three generators (the unit generator stays
    explicit) instead of the relabeled two-generator form.
    """
    alpha, beta = Scalar.of(alpha), Scalar.of(beta)
    if alpha == beta:
        raise ValueError(f"degenerate interval [{alpha}, {beta}]")
    if (beta - alpha).sign() < 0:
        raise ValueError(f"interval needs alpha < beta, got ({alpha}, {beta})")
    seg = geo.interval(alpha, beta)
    invertible = mode == "laurent"
    x, y, z = (LaurentPoly.var(n) for n in "xyz")
    ring_id = f"interval:{alpha},{beta}:{mode}"

    if Scalar.of(0) in (alpha, beta) and naming != "xyz":
        other = beta if alpha == Scalar.of(0) else alpha
        gens = [Generator("x", geo.line_point(other, seg.mode), invertible),
                Generator("y", seg, invertible)]
        declared = [(y - 1) * (y - x)]
        return Presentation(ring_id, mode, gens, declared)

    gens = [Generator("x", geo.line_point(alpha, seg.mode), invertible),
            Generator("y", geo.line_point(beta, seg.mode), invertible),
            Generator("z", seg, invertible)]
    declared = [(z - x) * (z - y)]
    if alpha == Scalar.of(0):
        declared.append(x - 1)
    elif beta == Scalar.of(0):
        declared.append(y - 1)
    else:
        r = _ratio(alpha, beta)
        if r is not None:
            m, n = abs(r.numerator), r.denominator
            if r > 0:
                declared.append(LaurentPoly.var("y", m) - LaurentPoly.var("x", n))
            else:
                declared.append(
                    LaurentPoly.term({"x": n, "y": m}) - LaurentPoly.const(1))
    return Presentation(ring_id + (":xyz" if naming == "xyz" else ""),
                        mode, gens, declared)


# ---------------------------------------------------------------------------
# box rings


@lru_cache(maxsize=None)
def box_ring(d: int, signed: bool = False) -> Presentation:
    """Ring of the d-dimensional integer boxes: a point and a unit segment
    per axis, with one quadratic relation per axis."""
    if not 1 <= d <= 4:
        raise ValueError("box_ring supports 1 <= d <= 4")
    mode = "laurent" if signed else "polynomial"
    gens, declared = [], []
    for i in range(d):
        xn = "x" if d == 1 else f"x{i + 1}"
        yn = "y" if d == 1 else f"y{i + 1}"
        e_i = tuple(1 if j == i else 0 for j in range(d))
        gens.append(Generator(xn, geo.box_point(e_i), signed))
        gens.append(Generator(yn, geo.box((0,) * d, e_i), signed))
        x, y = LaurentPoly.var(xn), LaurentPoly.var(yn)
        declared.append((y - 1) * (y - x))
    ring_id = f"box:{d}" + (":signed" if signed else "")
    return Presentation(ring_id, mode, gens, declared)


# ---------------------------------------------------------------------------
# the triangular-grid ring


def grid_generator_polytopes() -> dict:
    return {
        "x1": geo.grid_point_set(1, 0),
        "x2": geo.grid_point_set(0, 1),
        "y1": geo.grid_set(0, 1, 0, 0, 0, 1),
        "y2": geo.grid_set(0, 0, 0, 1, 0, 1),
        "y3": geo.grid_set(0, 1, 0, 1, 1, 1),
        "z": geo.unit_triangle(),
    }


def grid_kernel_generators() -> Tuple[LaurentPoly, ...]:
    """The nine declared kernel generators: three quadratic edge relations
    and six triangle-cover relations, in the canonical order."""
    x1, x2, y1, y2, y3, z = (LaurentPoly.var(n)
                             for n in ("x1", "x2", "y1", "y2", "y3", "z"))
    return (
        (y1 - 1) * (y1 - x1),
        (y2 - 1) * (y2 - x2),
        (y3 - x1) * (y3 - x2),
        (z - 1) * (z - y3),
        (z - x1) * (z - y2),
        (z - x2) * (z - y1),
        (z - y1) * (z - y2),
        (z - y1) * (z - y3),
        (z - y2) * (z - y3),
    )


@lru_cache(maxsize=None)
def coxeter_ring() -> Presentation:
    """Ring of all convex polygons of the regular triangular grid.

    Six invertible generators: the two unit lattice points, the three unit
    edges, and the unit triangle.
    """
    polys = grid_generator_polytopes()
    gens = [Generator(n, p, True) for n, p in polys.items()]
    return Presentation("coxeter", "laurent", gens, grid_kernel_generators())


def coxeter_nonredundancy_witnesses() -> list:
    """Witness assignments showing no declared grid kernel generator is
    implied by the others, one per generator in declared order.

    Six are full evaluations (all other generators vanish, the target is a
    nonzero constant); three leave one variable free and rest on a
    univariate divisibility failure.
    """
    names = ("x1", "x2", "y1", "y2", "y3", "z")
    all_one = {n: 1 for n in names}
    return [
        (0, {**all_one, "y1": 2}),
        (1, {**all_one, "y2": 2}),
        (2, {**all_one, "y3": 2}),
        (3, {"z": 2, "y1": 2, "y2": 2, "x1": 2, "x2": 2}),   # y3 stays free
        (4, {"z": 1, "y1": 1, "y3": 1, "x2": 1, "x1": 2}),   # y2 stays free
        (5, {"z": 1, "y2": 1, "y3": 1, "x1": 1, "x2": 2}),   # y1 stays free
        (6, {"y1": 1, "y2": 1, "y3": 0, "z": 0, "x1": 0, "x2": 0}),
        (7, {"z": 1, "y2": 1, "x2": 1, "y1": 0, "y3": 0, "x1": 0}),
        (8, {"z": 1, "y1": 1, "x1": 1, "y2": 0, "y3": 0, "x2": 0}),
    ]


def minimality_witness(pres: Presentation, target_index: int,
                       assignment: Mapping[str, object]) -> bool:
    """Check a non-redundancy witness for one declared kernel generator.

    After substitution either every other generator must vanish while the
    target is a nonzero constant, or all images must be univariate and the
    target image must fail membership in the ideal of the other images.
    """
    if not 0 <= target_index < len(pres.declared):
        raise IndexError(f"no declared kernel generator {target_index}")
    values = {n: Fraction(v) for n, v in assignment.items()}
    images = [g.substitute(values) for g in pres.declared]
    target = images.pop(target_index)
    free = set(target.names())
    for img in images:
        free |= img.names()
    if len(free) >= 2:
        raise WitnessError(f"witness leaves variables {sorted(free)} free")
    if not free:
        return (not target.is_zero()) and all(img.is_zero() for img in images)
    return not univariate_ideal_member(target, images)


# ---------------------------------------------------------------------------
# the one-point ring (unit block for products)


@lru_cache(maxsize=None)
def point_ring(name: str = "u") -> Presentation:
    """Face ring of a single point: one generator mapping to the unit."""
    gen = Generator(name, geo.box_point((0,)), True)
    declared = [LaurentPoly.var(name) - 1]
    return Presentation("point", "laurent", [gen], declared)
