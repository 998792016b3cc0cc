"""Sparse multivariate Laurent polynomials over the rationals.

A monomial is a tuple of ``(name, exponent)`` pairs, sorted by name, each
exponent a nonzero int (negative exponents allowed), no name twice; the
unit monomial is ``()``.  The public constructor enforces this invariant
on every key it is given, and every other path builds keys that keep it,
so :func:`mono_mul` can merge two sorted tuples without a dict or a sort.
A polynomial maps monomials to nonzero coefficients under one coefficient
rule: an ``int`` when integral, else a ``Fraction`` with denominator > 1;
floats are refused.  The zero polynomial has no terms.  Results are always
canonical: no zero exponents, no zero coefficients, and a deterministic
term order for printing (total degree first, then exponent vectors with the
alphabetically last name most significant, largest first).

Arithmetic builds each result in one dict: :func:`fold_terms` adds terms
into it, deleting a monomial whose coefficient sums to zero, and wraps it
with the trusted constructor ``LaurentPoly._trusted``, which neither copies
the dict nor re-wraps its values.  Its invariant: every key is a canonical
monomial, every value keeps the coefficient rule, and the new polynomial
alone owns the dict.  The public constructor and :func:`fold_terms`, which
every coefficient passes, apply the rule.  :func:`poly_sum` folds many
polynomials into one dict, so assembling n terms costs O(n), not O(n^2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple, Union

RationalLike = Union[int, Fraction]

# A monomial is a name-sorted tuple of (name, nonzero exponent) pairs.
Monomial = tuple

UNIT_MONOMIAL: Monomial = ()


class ArityError(ValueError):
    """An operation required univariate input but saw several names."""


def monomial(exponents: Mapping[str, int]) -> Monomial:
    return tuple(sorted([(n, int(e)) for n, e in exponents.items() if e != 0]))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two canonical monomials: a merge of the name-sorted
    tuples that adds the exponents of a shared name and drops a zero sum."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        fa, fb = a[i], b[j]
        if fa[0] < fb[0]:
            out.append(fa)
            i += 1
        elif fb[0] < fa[0]:
            out.append(fb)
            j += 1
        else:
            e = fa[1] + fb[1]
            if e:
                out.append((fa[0], e))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def mono_pow(m: Monomial, i: int) -> Monomial:
    if i == 0:
        return UNIT_MONOMIAL
    return tuple((name, e * i) for name, e in m)


def mono_text(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in m)


class LaurentPoly:
    """Immutable Laurent polynomial in named generators."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, RationalLike]] = None):
        """The polynomial of a map from monomials to coefficients.  Each key
        is made canonical (sorted by name, zero exponents dropped) and keys
        that become equal are summed; a key that names one generator twice
        raises ``ValueError``, a float coefficient ``TypeError``."""
        self._terms = fold_terms(
            (_canonical(m), _coefficient(c)) for m, c in (terms or {}).items())._terms

    @classmethod
    def _trusted(cls, terms: dict) -> "LaurentPoly":
        """Wrap a dict of coefficients that keep the coefficient rule as it
        is: no copy, no re-wrapping.  The caller hands the dict over."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def const(value: RationalLike) -> "LaurentPoly":
        return LaurentPoly.term({}, value)

    @staticmethod
    def var(name: str, exp: int = 1) -> "LaurentPoly":
        return LaurentPoly._trusted({((name, exp),) if exp else UNIT_MONOMIAL: 1})

    @staticmethod
    def term(exponents: Mapping[str, int], coeff: RationalLike = 1) -> "LaurentPoly":
        coeff = _coefficient(coeff)
        return LaurentPoly._trusted({monomial(exponents): coeff} if coeff else {})

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, RationalLike]:
        return self._terms

    def names(self) -> set:
        return {name for m in self._terms for name, _ in m}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == UNIT_MONOMIAL for m in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self._terms.get(UNIT_MONOMIAL, 0))

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    def __add__(self, other) -> "LaurentPoly":
        return fold_terms(self._coerce(other)._terms.items(), dict(self._terms))

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return fold_terms(((m, -c) for m, c in self._coerce(other)._terms.items()),
                          dict(self._terms))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        return fold_terms((mono_mul(ma, mb), ca * cb)
                          for ma, ca in self._terms.items()
                          for mb, cb in o._terms.items())

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only apply to monomials")
            ((m, c),) = self._terms.items()
            # An int to a negative power is a float; a Fraction stays exact.
            return LaurentPoly({mono_pow(m, n): Fraction(c) ** n})
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- substitution maps ---------------------------------------------------

    def power_map(self, i: int) -> "LaurentPoly":
        """Substitute every generator g by g^i (i = 0 sends them all to 1)."""
        return fold_terms((mono_pow(m, i), c) for m, c in self._terms.items())

    def substitute(self, assignment: Mapping[str, RationalLike]) -> "LaurentPoly":
        """Partially evaluate; unassigned names stay symbolic.

        Assigning zero to a name that occurs with a negative exponent raises
        ``ZeroDivisionError``.
        """
        values = {n: Fraction(v) for n, v in assignment.items()}
        pairs = []
        for m, c in self._terms.items():
            for name, e in m:
                if name in values:
                    if values[name] == 0 and e < 0:
                        raise ZeroDivisionError(
                            f"zero assigned to {name} with negative exponent")
                    c = c * values[name]**e
            pairs.append((tuple(f for f in m if f[0] not in values), c))
        return fold_terms(pairs)

    # -- canonical text ------------------------------------------------------

    def sorted_terms(self) -> list:
        """Terms in printing order: total degree, largest first, then the
        exponent vectors over the names, the alphabetically last name most
        significant, largest first."""
        rank = {n: i for i, n in enumerate(sorted(self.names(), reverse=True))}
        width = len(rank)

        def key(item):
            vector, degree = [0] * width, 0
            for name, e in item[0]:
                vector[rank[name]] = -e
                degree += e
            return -degree, vector

        return sorted(self._terms.items(), key=key)

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            neg = c < 0
            mag = -c if neg else c
            if m == UNIT_MONOMIAL:
                body = str(mag)
            elif mag == 1:
                body = mono_text(m)
            else:
                body = f"{mag}*{mono_text(m)}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"{'-' if neg else '+'} {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"


def _canonical(m) -> Monomial:
    """m as a canonical monomial: sorted by name, zero exponents dropped."""
    if all(f[1] for f in m) and all(f[0] < g[0] for f, g in zip(m, m[1:])):
        return m
    names = [name for name, _ in m]
    if len(set(names)) < len(names):
        raise ValueError(f"monomial {m!r} names a generator twice")
    return tuple(sorted(f for f in m if f[1]))


def _coefficient(c) -> RationalLike:
    """c under the coefficient rule, allowing 0; a float is refused, since it
    is not exact."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}; use an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def fold_terms(pairs: Iterable[Tuple[Monomial, RationalLike]],
               acc: Optional[dict] = None) -> LaurentPoly:
    """The polynomial of acc (empty by default) plus the (monomial,
    coefficient) pairs, summed in acc itself: like monomials are collected,
    a zero sum is deleted and an integral one becomes an int.  acc must keep
    the coefficient rule and becomes the result's."""
    acc = {} if acc is None else acc
    for m, c in pairs:
        c = acc.get(m, 0) + c
        if c:
            acc[m] = c.numerator if c.denominator == 1 else c
        else:
            acc.pop(m, None)
    return LaurentPoly._trusted(acc)


def poly_sum(items: Iterable[LaurentPoly]) -> LaurentPoly:
    """Sum of the polynomials, folded into one dict."""
    return fold_terms(pair for p in items for pair in p.terms.items())


# -- univariate Laurent ideal membership ------------------------------------


def _dense_coeffs(p: LaurentPoly, var: str) -> list:
    """Fraction coefficients (exact under /) of a one-name polynomial, shifted
    so the lowest exponent becomes degree 0 (Laurent monomials are units)."""
    if p.is_zero():
        return []
    exps = {}
    for m, c in p.terms.items():
        e = dict(m).get(var, 0)
        exps[e] = c
    lo, hi = min(exps), max(exps)
    return [Fraction(exps.get(e, 0)) for e in range(lo, hi + 1)]


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_rem(num: list, den: list) -> list:
    rem = list(num)
    d = len(den) - 1
    lead = den[-1]
    while len(rem) - 1 >= d and rem:
        factor = rem[-1] / lead
        shift = len(rem) - 1 - d
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        _trim(rem)
    return rem


def _poly_gcd(a: list, b: list) -> list:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def univariate_ideal_member(target: LaurentPoly, gens: Iterable[LaurentPoly]) -> bool:
    """Decide membership in the ideal the generators span inside the
    one-variable Laurent ring.

    Every generator is normalized by its lowest monomial (a unit), the ideal
    collapses to the one generated by the polynomial gcd, and membership is
    plain divisibility.
    """
    gens = [g for g in gens if not g.is_zero()]
    names = set(target.names())
    for g in gens:
        names |= g.names()
    if len(names) > 1:
        raise ArityError(f"univariate membership got names {sorted(names)}")
    if target.is_zero():
        return True
    if not gens:
        return False
    var = next(iter(names)) if names else "x"
    g = []
    for gen in gens:
        g = _poly_gcd(g, _dense_coeffs(gen, var))
    if not g:
        return False
    return not _poly_rem(_dense_coeffs(target, var), g)
