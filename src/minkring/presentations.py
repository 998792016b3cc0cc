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
terms and the unit triangle's seven.  In a Laurent presentation every
generator is invertible, in a polynomial one none is: the mode alone
decides whether a monomial may carry a negative power.

A point generator is a translation, so a monomial splits into a *shape*,
its factors on the other generators, and its point factors.  A shape's
image is built once and cached: each positive power k of P is the
closed-basis element {kP: 1}, each inverse power the signed faces of -kP
above, and the factors are multiplied with the ring's one closed-basis
product before the runs of each polytope are folded
(:func:`minkring.simplefn.from_closed`).  Points are packed once per key
width (on the line a point is its own Scalar move), a monomial moves by the
sum of exp * packed point, and each shape's image is folded once per query
over the (coefficient, move) pairs of its monomials.  Every geometric
weight is an integer (products of +-1 face signs), so images carry ``int``
weights, as integral coefficients do (see :mod:`minkring.laurent`): the
image of D * f, D the lcm of f's denominators, is summed in ``int``s and
divided by D once per value :meth:`phi` reports.

Kernel membership is decided semantically: map the polynomial through the
surjection and test the image for zero, which reads its deltas and folds
no cell; :meth:`kernel_witness` asks the ambient for the least cell where
the image is nonzero, and only its value becomes a ``Fraction``.  Declared
kernel generators are verified this way at construction time, never
trusted.

A presentation may declare itself a tensor product of factor
presentations, each with its share of the names, as the paper's closing
theorem M(P x Q) = M(P) (x) M(Q) allows: products
(:func:`minkring.products.product_presentation`) do, and ``box:d`` is the
d-th tensor power of ``box:1``.  Membership is then decided by the Euler
characteristic f(1, ..., 1) and factor by factor on the factors' images
(:meth:`Presentation._tensor_member`); a non-member's witness is still the
combined arrangement's least cell, and :meth:`phi` is unchanged.

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


class Presentation:
    """Immutable generator table plus verified declared kernel generators."""

    def __init__(self, ring_id: str, mode: str,
                 generators: Sequence[Generator],
                 declared: Sequence[LaurentPoly] = (), tensor: Sequence = ()):
        if mode not in ("polynomial", "laurent"):
            raise ValueError(f"unknown mode {mode!r}")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        ambients = {g.polytope.ambient for g in generators}
        if len(ambients) != 1:
            raise ValueError("generators must share one ambient space")
        self.ring_id = ring_id
        self.mode = mode
        self.generators = {g.name: g for g in generators}
        self.ambient = ambients.pop()
        self.declared = tuple(declared)
        # per tensor factor: (its presentation, combined name -> its name)
        self.tensor = tuple((factor, dict(names)) for factor, names in tensor)
        if tensor and sorted(n for _, own in self.tensor for n in own) != sorted(names):
            raise ValueError("tensor factor names must partition the generator names")
        # name -> largest absolute coordinate of each point generator, a translation
        self._sizes = {g.name: self.ambient.reach((g.polytope,))
                       for g in generators if geo.dim(g.polytope) == 0}
        # key width -> {point generator: its packed move}; shape -> image
        self._moves, self._mono_cache = {}, {}
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
        """(shape, points, bound) of a monomial: its factors on generators that
        are not points, those on points, and sum |exp| * |point|, a bound on its
        move.  Checks each factor in order: a known name, no polynomial-mode inverse."""
        shape, points, bound, sizes = [], [], 0, self._sizes
        for factor in m:
            name, exp = factor
            if name not in self.generators:
                raise KeyError(f"unknown generator {name!r} in ring {self.ring_id}")
            if exp < 0 and self.mode != "laurent":
                raise NonInvertibleError(
                    f"negative exponent on non-invertible generator {name!r}")
            size = sizes.get(name)
            if size is None:
                shape.append(factor)
            else:
                points.append(factor)
                bound += abs(exp) * size
        return tuple(shape), points, bound

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
                else:  # [P]^-1 = (-1)^dim(P) [relint(-P)]
                    faces = geo.relint_faces(geo.negate(dilated))
                    factors.append({f: (-1) ** geo.dim(dilated) * s for f, s in faces})
            basis = {self.ambient.origin(): 1}
            # Small factors first keep the intermediate sums few.
            for factor in sorted(factors, key=len):
                basis = sf.closed_product(basis, factor)
            entry = self.ambient.reach(basis), sf.from_closed(self.ambient, basis)
            self._mono_cache[shape] = entry
        return entry

    def _images(self, polys) -> tuple:
        """([deltas per poly], width): the nonzero int deltas of the images of
        polys of (monomial, int) pairs at one width for every reach and bound:
        each shape's image folded once per poly, moved by every term's sum of
        exp * packed point."""
        splits, bound = [], 0  # per poly: shape -> [(int coefficient, point factors)]
        for pairs in polys:
            terms = {}
            for m, n in pairs:
                shape, points, b = self._split(m)
                terms.setdefault(shape, []).append((n, points))
                bound = max(bound, b)
            splits.append(terms)
        ambient, images = self.ambient, {s: self._shape_image(s) for t in splits for s in t}
        width = ambient.width(max((r for r, _ in images.values()), default=0) + bound)
        packed = self._moves.get(width) or self._moves.setdefault(width, {
            name: ambient.move(geo.vertex_coords(self.generators[name].polytope), width)
            for name in self._sizes})
        out = []
        for terms in splits:
            acc: dict = {}
            for shape, pairs in terms.items():
                moves = []
                for n, points in pairs:
                    move = 0
                    for name, exp in points:
                        move += exp * packed[name]
                    moves.append((n, move))
                ambient.fold(acc, sf._deltas_at(images[shape][1], width), moves)
            out.append({k: v for k, v in acc.items() if v})
        return out, width

    def _image_ints(self, f: LaurentPoly) -> tuple:
        """(deltas, D, width): the nonzero int deltas of the image of D * f, D the
        lcm of f's denominators, at its width (:meth:`_images`)."""
        den = math.lcm(*(c.denominator for c in f.terms.values()))
        (deltas,), width = self._images([[(m, (c * den).numerator) for m, c in f.terms.items()]])
        return deltas, den, width

    def phi(self, f: LaurentPoly) -> sf.SimpleFunction:
        """Image of f under the surjection, as a canonical simple function:
        the int deltas of :meth:`_image_ints` divided by D once per value."""
        deltas, den, width = self._image_ints(f)
        fraction = {v: Fraction(v, den) for v in set(deltas.values())}
        return sf.SimpleFunction._trusted(self.ambient, width,
                                          {k: fraction[v] for k, v in deltas.items()})

    def kernel_member(self, f: LaurentPoly) -> bool:
        """True when the image of f is zero: it has no nonzero delta, or on a
        tensor product, factor by factor (:meth:`_tensor_member`)."""
        if not self.tensor:
            return not self._image_ints(f)[0]
        for m in f.terms:  # the combined path's errors, before any factor work
            self._split(m)
        if sum(f.terms.values()):  # f(1, ..., 1), the Euler characteristic of phi(f)
            return False
        den = math.lcm(*(c.denominator for c in f.terms.values()))
        return self._tensor_member([(  # each monomial as its parts, one per factor
            tuple(tuple(sorted((own[n], e) for n, e in m if n in own)) for _, own in self.tensor),
            (c * den).numerator) for m, c in f.terms.items()])

    def _tensor_member(self, terms, level: int = 0) -> bool:
        """Whether f, (parts, int) terms with a monomial per factor from level
        on, maps to zero.  Write f = sum_j A_j (x) B_j, A_j = sum c_L m_L over
        the first factor's monomials m_L whose rest is c_L B_j, B_j primitive.
        The first factor's images are sums of independent steps d_k [key >= k],
        so phi(f) = sum_k [key >= k] (x) phi_rest(sum_j d_jk B_j), d_jk the
        deltas of A_j: zero exactly when the rest maps sum_j b_j B_j to zero
        for each row b of a fraction-free basis of the rows (d_jk)_j."""
        factor = self.tensor[level][0]
        if level == len(self.tensor) - 1:
            return factor.kernel_member(LaurentPoly._trusted({p[0]: c for p, c in terms}))
        groups: dict = {}  # m_L -> g_L
        for parts, c in terms:
            groups.setdefault(parts[0], {})[parts[1:]] = c
        if len(groups) == 1:  # a monomial's image is never zero
            return self._tensor_member(groups.popitem()[1].items(), level + 1)
        classes: dict = {}  # B_j -> the terms (m_L, c_L) of A_j
        for mine, g in groups.items():
            c = math.gcd(*g.values()) * (1 if g[min(g)] > 0 else -1)
            classes.setdefault(frozenset((m, v // c) for m, v in g.items()), []).append((mine, c))
        images, basis = factor._images(classes.values())[0], []  # (pivot, row)
        for k in set().union(*images):
            row = [d.get(k, 0) for d in images]
            for p, b in basis:
                if row[p]:
                    row = [b[p] * r - row[p] * x for r, x in zip(row, b)]
            p = next((i for i, r in enumerate(row) if r), None)
            if p is not None:
                basis.append((p, [r // math.gcd(*row) for r in row]))
                if len(basis) == len(classes):
                    break
        for _, b in basis:
            h: dict = {}
            for beta, bj in zip(b, classes):
                for m, v in bj:
                    h[m] = h.get(m, 0) + beta * v
            if not self._tensor_member([(m, v) for m, v in h.items() if v], level + 1):
                return False
        return True

    def kernel_witness(self, f: LaurentPoly):
        """None when f is in the kernel (on a tensor product, decided factor by
        factor), else (point, value): the least cell in the cell kinds'
        sort_key order where the image is nonzero, from the deltas."""
        if self.tensor and self.kernel_member(f):
            return None
        deltas, den, width = self._image_ints(f)
        if not deltas:
            return None
        cell, value = self.ambient.least(deltas, width)
        return cell.representative(), Fraction(value, den)

    # -- description ---------------------------------------------------------

    def document(self) -> str:
        lines = ["minkring-presentation v1",
                 f"ring: {self.ring_id}",
                 f"mode: {self.mode}"]
        inv = " (invertible)" if self.mode == "laurent" else ""
        for g in self.generators.values():
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

    @property
    def whole_ring(self) -> bool:
        return self.generators == (LaurentPoly.const(1),)

    def text(self) -> str:
        return ", ".join(map(str, self.generators)) or "0"


def classify_principal(shape: PrincipalShape, mode: str = "polynomial") -> PrincipalIdeal:
    """Kernel of the one-generator surjection for each shape of closed
    convex set, in polynomial or Laurent form."""
    x, one = LaurentPoly.var("x"), LaurentPoly.const(1)
    tables = {
        "polynomial": {PrincipalShape.EMPTY: (x,), PrincipalShape.ORIGIN: (x - one,),
                       PrincipalShape.SELF_SIMILAR: (x * (x - one),),
                       PrincipalShape.BOUNDED: ()},
        "laurent": {PrincipalShape.EMPTY: (one,), PrincipalShape.ORIGIN: (x - one,),
                    PrincipalShape.SELF_SIMILAR: (x - one,), PrincipalShape.BOUNDED: ()},
    }
    if mode not in tables:
        raise ValueError(f"unknown mode {mode!r}")
    return PrincipalIdeal(shape, mode, tables[mode][shape])


# ---------------------------------------------------------------------------
# interval rings


def _ratio(alpha: Scalar, beta: Scalar) -> Optional[Fraction]:
    """alpha/beta, beta nonzero, as a Fraction when the ratio is rational,
    else None: a + b sqrt2 = r (c + d sqrt2) for a rational r exactly when
    ad = bc."""
    (a, b), (c, d) = alpha.parts, beta.parts
    if a * d == b * c:
        return Fraction(a, c) if c else Fraction(b, d)


def interval_ring(alpha: ScalarLike, beta: ScalarLike, mode: str = "polynomial",
                  naming: str = "auto") -> Presentation:
    """Ring of a closed interval and its endpoints, built once per ring.

    The declared kernel generators follow the four isomorphism classes:
    one endpoint zero; irrational endpoint ratio; rational ratio of equal
    signs; rational ratio of opposite signs.  With ``naming='xyz'`` the
    zero-endpoint case keeps all three generators (the unit generator stays
    explicit) instead of the relabeled two-generator form.
    """
    return _interval_ring(Scalar.of(alpha), Scalar.of(beta), mode, naming == "xyz")


@lru_cache(maxsize=None)
def _interval_ring(alpha: Scalar, beta: Scalar, mode: str, xyz: bool) -> Presentation:
    if alpha == beta:
        raise ValueError(f"degenerate interval [{alpha}, {beta}]")
    if beta < alpha:
        raise ValueError(f"interval needs alpha < beta, got ({alpha}, {beta})")
    seg = geo.interval(alpha, beta)
    x, y, z = (LaurentPoly.var(n) for n in "xyz")
    ring_id = f"interval:{alpha},{beta}:{mode}" + (":xyz" if xyz else "")

    if Scalar.of(0) in (alpha, beta) and not xyz:
        other = beta if alpha == Scalar.of(0) else alpha
        gens = [Generator("x", geo.line_point(other)), Generator("y", seg)]
        declared = [(y - 1) * (y - x)]
        return Presentation(ring_id, mode, gens, declared)

    gens = [Generator("x", geo.line_point(alpha)), Generator("y", geo.line_point(beta)),
            Generator("z", seg)]
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
    return Presentation(ring_id, mode, gens, declared)


# ---------------------------------------------------------------------------
# box rings


def box_ring(d: int, signed: bool = False) -> Presentation:
    """Ring of the d-dimensional integer boxes: a point and a unit segment
    per axis, with one quadratic relation per axis; built once per (d, signed)."""
    return _box_ring(d, bool(signed))


@lru_cache(maxsize=None)
def _box_ring(d: int, signed: bool) -> Presentation:
    if not 1 <= d <= 4:
        raise ValueError("box_ring supports 1 <= d <= 4")
    mode = "laurent" if signed else "polynomial"
    gens, declared = [], []
    for i in range(d):
        xn = "x" if d == 1 else f"x{i + 1}"
        yn = "y" if d == 1 else f"y{i + 1}"
        e_i = tuple(1 if j == i else 0 for j in range(d))
        gens.append(Generator(xn, geo.box_point(e_i)))
        gens.append(Generator(yn, geo.box((0,) * d, e_i)))
        x, y = LaurentPoly.var(xn), LaurentPoly.var(yn)
        declared.append((y - 1) * (y - x))
    ring_id = f"box:{d}" + (":signed" if signed else "")
    # box:d is the d-th tensor power of box:1, axis i its factor i
    tensor = [(box_ring(1, signed), {f"x{i + 1}": "x", f"y{i + 1}": "y"})
              for i in range(d)] if d > 1 else ()
    return Presentation(ring_id, mode, gens, declared, tensor)


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
    gens = [Generator(n, p) for n, p in polys.items()]
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
    gen = Generator(name, geo.box_point((0,)))
    declared = [LaurentPoly.var(name) - 1]
    return Presentation("point", "laurent", [gen], declared)
