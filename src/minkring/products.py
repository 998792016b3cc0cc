"""Cartesian products of presentations.

The ring of the faces of P x Q is the tensor product of the face rings of P
and Q: embedding every left generator as A x {0} and every right generator
as {0} x B makes the pair monomials x_i y_j hit exactly the faces A_i x B_j,
and splitting a combined polynomial by setting the other block's names to 1
recovers the two tensor factors.

Combined generator names: the left block keeps its spelling, the right
block gains the suffix ``_r``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Mapping, Sequence, Tuple

from . import geometry as geo
from .laurent import LaurentPoly, fold_terms, mono_mul, monomial
from .presentations import Generator, Presentation

RIGHT_SUFFIX = "_r"


def rename_poly(f: LaurentPoly, mapping: Mapping[str, str]) -> LaurentPoly:
    return fold_terms((monomial({mapping.get(n, n): e for n, e in m}), c)
                      for m, c in f.terms.items())


@dataclass(frozen=True)
class ProductPresentation:
    left: Presentation
    right: Presentation
    combined: Presentation
    left_names: Tuple[str, ...]
    right_names: Tuple[str, ...]          # names inside the combined ring
    right_rename: Mapping[str, str]       # original right name -> combined name

    def split(self, f: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
        """Components of a combined polynomial in the two factor rings
        (right names mapped back to their original spelling)."""
        fl, fr = psi_split(f, self.left_names, self.right_names)
        back = {v: k for k, v in self.right_rename.items()}
        return fl, rename_poly(fr, back)


def product_presentation(pl: Presentation, pr: Presentation) -> ProductPresentation:
    """Combine two face presentations over the product polytope.

    Declared kernel generators of the factors are carried over (renamed on
    the right) and re-verified against the combined oracle.
    """
    if pl.mode != pr.mode:
        raise ValueError(f"mixed modes: {pl.mode} vs {pr.mode}")
    rename = {n: n + RIGHT_SUFFIX for n in pr.names()}
    left_origin = pl.ambient.origin()
    right_origin = pr.ambient.origin()
    gens = [
        Generator(g.name, geo.product(g.polytope, right_origin))
        for g in pl.generators.values()
    ]
    gens += [
        Generator(rename[g.name], geo.product(left_origin, g.polytope))
        for g in pr.generators.values()
    ]
    declared = list(pl.declared) + [rename_poly(g, rename) for g in pr.declared]
    combined = Presentation(f"product:{pl.ring_id},{pr.ring_id}", pl.mode, gens, declared,
                            [(pl, {n: n for n in pl.names()}),
                             (pr, {v: k for k, v in rename.items()})])
    return ProductPresentation(pl, pr, combined,
                               tuple(pl.names()), tuple(rename.values()), rename)


def psi_split(f: LaurentPoly, left_names: Iterable[str],
              right_names: Iterable[str]) -> Tuple[LaurentPoly, LaurentPoly]:
    """(f with the right block set to 1, f with the left block set to 1):
    each side drops the other block's names from every monomial in one
    fold."""
    return tuple(fold_terms((tuple(p for p in m if p[0] not in drop), c)
                            for m, c in f.terms.items())
                 for drop in (set(right_names), set(left_names)))


def _monomials_up_to(names: Sequence[str], bound: int) -> list:
    return [monomial(dict(zip(names, exps)))
            for exps in iproduct(range(bound + 1), repeat=len(names)) if sum(exps) <= bound]


def random_ideal_element(pp: ProductPresentation, rng: random.Random,
                         max_parts: int = 3) -> LaurentPoly:
    """Random combination of declared combined kernel generators times
    monomials with exponents in [-2, 2] (plain mode: in [0, 2])."""
    lo = -2 if pp.combined.mode == "laurent" else 0
    names = pp.combined.names()
    out = LaurentPoly.zero()
    for _ in range(rng.randint(1, max_parts)):
        gen = rng.choice(pp.combined.declared)
        exps = {n: rng.randint(lo, 2) for n in rng.sample(names, rng.randint(0, 2))}
        coeff = rng.randint(-3, 3) or 1
        out = out + coeff * LaurentPoly.term(exps) * gen
    return out


def verify_tensor_identity(pp: ProductPresentation, bound: int = 2,
                           samples: int = 20, seed: int = 0) -> bool:
    """Structural check that splitting after combining is the identity on
    monomial pairs up to the degree bound, plus randomized ideal samples
    whose split components must land in the factor kernels and vanish at
    the all-ones point."""
    if not 0 <= bound <= 3:
        raise ValueError("degree bound must lie in 0..3")
    if samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {samples}")
    rights = _monomials_up_to(pp.right_names, bound)
    drops = (set(pp.right_names), set(pp.left_names))
    for ml in _monomials_up_to(pp.left_names, bound):
        for mr in rights:  # psi_split of the pair's product, on monomial tuples
            m = mono_mul(ml, mr)
            if tuple(tuple(p for p in m if p[0] not in drop) for drop in drops) != (ml, mr):
                return False
    rng = random.Random(seed)
    for _ in range(samples):
        f = random_ideal_element(pp, rng)
        fl, fr = pp.split(f)
        if not pp.left.kernel_member(fl):
            return False
        if not pp.right.kernel_member(fr):
            return False
        if sum(f.terms.values()):  # f at (1, ..., 1), its coefficient sum
            return False
    return True
