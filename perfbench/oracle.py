"""Answers computed apart from minkring, used to check its outputs.

Nothing here imports minkring or reuses its cell decomposition.  The
oracle knows each ring by a hand-written table of generator polytopes,
every one of them a simplex given by its vertices, and evaluates the image
of a Laurent polynomial at a single point:

* a monomial with positive exponents maps to the closed Minkowski sum of
  dilated generators, whose bounds in the family's directions (u, v, u+v
  on the grid; each axis on boxes and on the line) are the sums of the
  generators' bounds;
* a negative power g^-k maps to (-1)^dim [relint(-kP)], which inclusion-
  exclusion over the faces of the simplex P rewrites as the closed sum
  of (-1)^dim F [-kF] over its faces F;
* a point lies in a closed polytope of these families exactly when every
  direction's value lies between the bounds.

Numbers on the sqrt(2) line are pairs (p, q) meaning p + q*sqrt(2), with
their own sign test.  Polynomials are dicts from name-sorted
(name, exponent) tuples to Fractions, read from minkring's canonical text
by this module's own parser.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# Q(sqrt 2)


class Q2:
    """p + q*sqrt(2) with rational p, q; ordered by an exact sign test."""

    __slots__ = ("p", "q")

    def __init__(self, p, q=0):
        self.p = Fraction(p)
        self.q = Fraction(q)

    @staticmethod
    def of(x) -> "Q2":
        return x if isinstance(x, Q2) else Q2(x)

    def sign(self) -> int:
        sp = (self.p > 0) - (self.p < 0)
        sq = (self.q > 0) - (self.q < 0)
        if sp == sq or sq == 0:
            return sp
        if sp == 0:
            return sq
        # p and q*sqrt2 pull in opposite directions: compare p^2 with 2q^2.
        return sp if self.p * self.p > 2 * self.q * self.q else sq

    def __add__(self, o):
        o = Q2.of(o)
        return Q2(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __neg__(self):
        return Q2(-self.p, -self.q)

    def __sub__(self, o):
        return self + (-Q2.of(o))

    def __rsub__(self, o):
        return Q2.of(o) - self

    def __mul__(self, k):
        if isinstance(k, Q2):
            return Q2(self.p * k.p + 2 * self.q * k.q, self.p * k.q + self.q * k.p)
        return Q2(self.p * k, self.q * k)

    __rmul__ = __mul__

    def __le__(self, o):
        return (Q2.of(o) - self).sign() >= 0

    def __ge__(self, o):
        return (self - Q2.of(o)).sign() >= 0

    def __lt__(self, o):
        return (Q2.of(o) - self).sign() > 0

    def __gt__(self, o):
        return (self - Q2.of(o)).sign() > 0

    def __eq__(self, o):
        if not isinstance(o, (Q2, int, Fraction)):
            return NotImplemented
        o = Q2.of(o)
        return self.p == o.p and self.q == o.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"Q2({self.p}, {self.q})"


_SCALAR = re.compile(r"^(?P<p>-?\d+(?:/\d+)?)?(?:(?P<s>[+-])?(?:(?P<q>\d+(?:/\d+)?)\*)?"
                     r"(?P<rad>sqrt2))?$")


def parse_q2(text: str):
    """Read minkring's printed line scalar: '3/2', 'sqrt2', '-2*sqrt2',
    '1+sqrt2', '-1/2-3*sqrt2'.  Rational values come back as Fractions."""
    m = _SCALAR.match(text.strip())
    if not m or not (m.group("p") or m.group("rad")):
        raise ValueError(f"not a scalar: {text!r}")
    p = Fraction(m.group("p")) if m.group("p") else Fraction(0)
    if not m.group("rad"):
        return p
    q = Fraction(m.group("q")) if m.group("q") else Fraction(1)
    if m.group("s") == "-":
        q = -q
    return Q2(p, q)


def parse_point(text: str) -> tuple:
    """Flat coordinates of a printed witness point: 'grid(1/3, 1/3)',
    'box(0, 1/2)', 'prod[box(0); grid(0, 0)]', or a line scalar."""
    text = text.strip()
    if text.startswith("prod[") and text.endswith("]"):
        out = ()
        for part in text[5:-1].split(";"):
            out += parse_point(part)
        return out
    for head in ("grid(", "box("):
        if text.startswith(head) and text.endswith(")"):
            return tuple(Fraction(c) for c in text[len(head):-1].split(","))
    return (parse_q2(text),)


# ---------------------------------------------------------------------------
# polynomials


def mono(**exps) -> tuple:
    return tuple(sorted((n, e) for n, e in exps.items() if e))


def mono_mul(a: tuple, b: tuple) -> tuple:
    d = dict(a)
    for n, e in b:
        d[n] = d.get(n, 0) + e
    return tuple(sorted((n, e) for n, e in d.items() if e))


def padd(*polys) -> dict:
    out: dict = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: Fraction(c) for m, c in out.items() if c}


def pscale(p: dict, c) -> dict:
    return {m: Fraction(v * c) for m, v in p.items() if v * c}


def pmul(*polys) -> dict:
    out = {(): Fraction(1)}
    for p in polys:
        acc: dict = {}
        for ma, ca in out.items():
            for mb, cb in p.items():
                m = mono_mul(ma, mb)
                acc[m] = acc.get(m, 0) + ca * cb
        out = {m: c for m, c in acc.items() if c}
    return out


def ppow(p: dict, n: int) -> dict:
    return pmul(*([p] * n))


def power_map(p: dict, n: int) -> dict:
    out: dict = {}
    for m, c in p.items():
        mm = tuple((name, e * n) for name, e in m)
        out[mm] = out.get(mm, 0) + c
    return {m: c for m, c in out.items() if c}


def var(name: str, e: int = 1) -> dict:
    return {mono(**{name: e}): Fraction(1)}


def const(c) -> dict:
    return {(): Fraction(c)} if c else {}


def at_ones(p: dict) -> Fraction:
    """f(1, ..., 1): the coefficient sum."""
    return sum(p.values(), Fraction(0))


def poly_text(p: dict) -> str:
    """Input text in minkring's grammar, terms in a fixed order."""
    if not p:
        return "0"
    parts = []
    for m, c in sorted(p.items()):
        body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        parts.append(("- " if c < 0 else "+ ") + body)
    first = parts[0]
    return " ".join([("-" + first[2:]) if first[0] == "-" else first[2:]] + parts[1:])


def parse_canonical(text: str) -> dict:
    """Read minkring's canonical polynomial text (no parentheses)."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    sign, rest = (-1, text[1:]) if text.startswith("-") else (1, text)
    for i, chunk in enumerate(re.split(r" ([+-]) ", rest)):
        if i % 2 == 1:
            sign = -1 if chunk == "-" else 1
            continue
        coeff = Fraction(sign)
        exps: dict = {}
        for factor in chunk.split("*"):
            if re.fullmatch(r"\d+(?:/\d+)?", factor):
                coeff *= Fraction(factor)
            else:
                name, _, e = factor.partition("^")
                exps[name] = exps.get(name, 0) + (int(e) if e else 1)
        m = mono(**exps)
        out[m] = out.get(m, 0) + coeff
    return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------------------
# rings as tables of simplices

GRID_DIRS = ((1, 0), (0, 1), (1, 1))


class RingModel:
    """Generator simplices of one ring, in flat coordinates, with the
    directions whose bounds describe every polytope of the family.
    ``line`` marks the real line of the interval rings, whose points are
    scalars rather than coordinate tuples."""

    def __init__(self, gens: dict, dirs: tuple, line: bool = False):
        self.dirs = dirs
        self.line = line
        self.gens = {}
        for name, verts in gens.items():
            faces = []
            for r in range(1, len(verts) + 1):
                for sub in itertools.combinations(verts, r):
                    faces.append(((-1) ** (r - 1), self._bounds(sub)))
            self.gens[name] = (self._bounds(verts), faces)

    def _bounds(self, verts) -> tuple:
        out = []
        for d in self.dirs:
            vals = [sum((c * x for c, x in zip(d, v)), 0) for v in verts]
            lo, hi = vals[0], vals[0]
            for x in vals[1:]:
                lo = x if x < lo else lo
                hi = x if hi < x else hi
            out.append((lo, hi))
        return tuple(out)

    def pieces(self, poly: dict):
        """(weight, lower bounds, upper bounds) of closed polytopes whose
        weighted indicators sum to the image of poly."""
        ndirs = len(self.dirs)
        for m, coeff in poly.items():
            lo = [0] * ndirs
            hi = [0] * ndirs
            negs = []
            for name, e in m:
                bounds, faces = self.gens[name]
                if e > 0:
                    for i, (a, b) in enumerate(bounds):
                        lo[i] = lo[i] + e * a
                        hi[i] = hi[i] + e * b
                else:
                    negs.append((-e, faces))
            for combo in itertools.product(*(faces for _, faces in negs)):
                sign = 1
                clo, chi = list(lo), list(hi)
                for (k, _), (s, fb) in zip(negs, combo):
                    sign *= s
                    for i, (a, b) in enumerate(fb):
                        clo[i] = clo[i] - k * b
                        chi[i] = chi[i] - k * a
                yield sign * coeff, clo, chi

    def value_at(self, poly: dict, point: tuple) -> Fraction:
        """Exact value of the image of poly at the point."""
        coords = [sum((c * x for c, x in zip(d, point)), 0) for d in self.dirs]
        return sum((w for w, lo, hi in self.pieces(poly)
                    if all(a <= x <= b for a, x, b in zip(lo, coords, hi))), Fraction(0))

    def line_samples(self, poly: dict) -> list:
        """On a line: every endpoint of the image's pieces, the midpoints
        between consecutive ones and a point beyond each end."""
        ends = sorted({Q2.of(x) for _, lo, hi in self.pieces(poly) for x in (lo[0], hi[0])})
        mids = [(a + b) * Fraction(1, 2) for a, b in zip(ends, ends[1:])]
        return ends + mids + [ends[0] - 1, ends[-1] + 1]


def grid_model(suffix: str = "", pad_before: int = 0, pad_after: int = 0):
    """The triangular-grid ring: points x1, x2, edges y1, y2, y3, triangle z."""
    def v(u, w):
        return (0,) * pad_before + (u, w) + (0,) * pad_after
    return {
        "x1" + suffix: [v(1, 0)],
        "x2" + suffix: [v(0, 1)],
        "y1" + suffix: [v(0, 0), v(1, 0)],
        "y2" + suffix: [v(0, 0), v(0, 1)],
        "y3" + suffix: [v(1, 0), v(0, 1)],
        "z" + suffix: [v(0, 0), v(1, 0), v(0, 1)],
    }


def box_gens(d: int) -> dict:
    gens = {}
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        xn, yn = ("x", "y") if d == 1 else (f"x{i + 1}", f"y{i + 1}")
        gens[xn] = [e]
        gens[yn] = [(0,) * d, e]
    return gens


def axis_dirs(n: int, offset: int = 0, width: int | None = None) -> tuple:
    width = n + offset if width is None else width
    return tuple(tuple(1 if j == offset + i else 0 for j in range(width))
                 for i in range(n))


def shifted_grid_dirs(offset: int, width: int) -> tuple:
    return tuple(tuple(d[j - offset] if offset <= j < offset + 2 else 0
                       for j in range(width)) for d in GRID_DIRS)


def coxeter_model() -> RingModel:
    return RingModel(grid_model(), GRID_DIRS)


def box_model(d: int) -> RingModel:
    return RingModel(box_gens(d), axis_dirs(d))


def interval_model(alpha, beta) -> RingModel:
    """Ring of [alpha, beta] under minkring's automatic naming: x, y
    (point, segment) when an endpoint is 0, else x, y, z."""
    a, b = Q2.of(alpha), Q2.of(beta)
    if a == Q2(0) or b == Q2(0):
        other = b if a == 0 else a
        gens = {"x": [(other,)], "y": [(a,), (b,)]}
    else:
        gens = {"x": [(a,)], "y": [(b,)], "z": [(a,), (b,)]}
    return RingModel(gens, ((1,),), line=True)


def product_model(left: str, right: str) -> RingModel:
    """product:<left>,<right> with components d1 (signed unit box ring) and
    d2 (grid ring); right names carry the suffix _r."""
    widths = {"d1": 1, "d2": 2}
    width = widths[left] + widths[right]
    gens, dirs = {}, ()
    for comp, offset, suffix in ((left, 0, ""), (right, widths[left], "_r")):
        if comp == "d1":
            for name, verts in box_gens(1).items():
                gens[name + suffix] = [(0,) * offset + v + (0,) * (width - offset - 1)
                                       for v in verts]
            dirs += axis_dirs(1, offset, width)
        else:
            gens.update(grid_model(suffix, offset, width - offset - 2))
            dirs += shifted_grid_dirs(offset, width)
    return RingModel(gens, dirs)


# ---------------------------------------------------------------------------
# grid polygons


def in_grid_set(bounds: tuple, point: tuple) -> bool:
    u0, u1, v0, v1, s0, s1 = bounds
    u, v = point
    return u0 <= u <= u1 and v0 <= v <= v1 and s0 <= u + v <= s1


def hexagon_cuts(bounds: tuple) -> tuple:
    """(N, cut at the corner s = s_min, cut by u = u_max, cut by v = v_max)
    of the polygon inside its enclosing up-triangle of side N."""
    u0, u1, v0, v1, s0, s1 = bounds
    n = s1 - u0 - v0
    return n, s0 - u0 - v0, u0 + n - u1, v0 + n - v1


def tri(k: int) -> int:
    return k * (k + 1) // 2


def hexagon_piece_counts(bounds: tuple) -> dict:
    """Closed-form counts of the open pieces tiling a 2-D grid polygon.

    Cutting a corner triangle of side m off the side-N up-triangle removes
    tri(m) lattice points, tri(m) up-triangles, tri(m - 1) down-triangles,
    tri(m) unit edges in each direction not parallel to the cut and
    tri(m - 1) parallel to it.  The s = s_min cut is parallel to y3, the
    u = u_max cut to y2 and the v = v_max cut to y1.
    """
    n, ms, mu, mv = hexagon_cuts(bounds)
    cuts = {"y3o": ms, "y2o": mu, "y1o": mv}
    out = {"1": tri(n + 1) - sum(tri(m) for m in cuts.values()),
           "zo": tri(n) - sum(tri(m) for m in cuts.values()),
           "zinv": tri(n - 1) - sum(tri(m - 1) for m in cuts.values())}
    for kind in ("y1o", "y2o", "y3o"):
        out[kind] = tri(n) - sum(tri(m - 1) if k == kind else tri(m)
                                 for k, m in cuts.items())
    return out


def piece_kind(piece: str) -> str:
    """Kind of one term of the printed second-normal-form piece list."""
    last = piece.split("*")[-1]
    if last == "z^-1":
        return "zinv"
    if last in ("y1o", "y2o", "y3o", "zo"):
        return last
    return "1"


CELL_OFFSETS = ((0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)),
                (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 3)),
                (Fraction(2, 3), Fraction(2, 3)))


def grid_samples(rng, bounds: tuple, count: int) -> list:
    """Points around a polygon's bounding box, one of every cell kind of
    the unit triangulation, plus the polygon's extreme corners."""
    u0, u1, v0, v1, _, _ = bounds
    pts = [(Fraction(u0), Fraction(v0)), (Fraction(u1), Fraction(v1))]
    for i in range(count):
        du, dv = CELL_OFFSETS[i % len(CELL_OFFSETS)]
        pts.append((rng.randint(u0 - 1, u1) + du, rng.randint(v0 - 1, v1) + dv))
    return pts


# ---------------------------------------------------------------------------
# the paper's relations and tilings


def grid_relations() -> list:
    """The nine declared relations of the grid ring, in the paper's order."""
    x1, x2, y1, y2, y3, z = (var(n) for n in ("x1", "x2", "y1", "y2", "y3", "z"))
    one = const(1)
    neg = lambda p: pscale(p, -1)  # noqa: E731
    d = lambda a, b: padd(a, neg(b))  # noqa: E731
    return [pmul(d(y1, one), d(y1, x1)), pmul(d(y2, one), d(y2, x2)),
            pmul(d(y3, x1), d(y3, x2)), pmul(d(z, one), d(z, y3)),
            pmul(d(z, x1), d(z, y2)), pmul(d(z, x2), d(z, y1)),
            pmul(d(z, y1), d(z, y2)), pmul(d(z, y1), d(z, y3)),
            pmul(d(z, y2), d(z, y3))]


def edge_relation(point: str, seg: str) -> dict:
    """(seg - 1)(seg - point): a unit segment from the origin to the point."""
    return pmul(padd(var(seg), const(-1)), padd(var(seg), pscale(var(point), -1)))


def open_pieces() -> dict:
    """Preimages of the open unit edges and the open up-triangle."""
    x1, x2, y1, y2, y3, z = (var(n) for n in ("x1", "x2", "y1", "y2", "y3", "z"))
    m1 = const(-1)
    return {"y1o": padd(y1, m1, pscale(x1, -1)),
            "y2o": padd(y2, m1, pscale(x2, -1)),
            "y3o": padd(y3, pscale(x1, -1), pscale(x2, -1)),
            "zo": padd(z, pscale(y1, -1), pscale(y2, -1), pscale(y3, -1),
                       const(1), x1, x2)}


def homogeneous(k: int) -> dict:
    return {mono(x1=i, x2=k - i): Fraction(1) for i in range(k + 1)} if k >= 0 else {}


def triangle_points(k: int) -> dict:
    return padd(*(homogeneous(j) for j in range(k + 1))) if k >= 0 else {}


def triangle_tiling(n: int) -> dict:
    """z^n = f_n + f_(n-1)(y1o + y2o + y3o + zo) + f_(n-2) x1 x2 z^-1."""
    pieces = open_pieces()
    opens = padd(*pieces.values())
    down = {mono(x1=1, x2=1, z=-1): Fraction(1)}
    return padd(triangle_points(n), pmul(triangle_points(n - 1), opens),
                pmul(triangle_points(n - 2), down))


def strip_identity(n: int) -> dict:
    """z^n - z^(n-1) minus the open pieces of one hexagonal strip."""
    opens = padd(*open_pieces().values())
    down = {mono(x1=1, x2=1, z=-1): Fraction(1)}
    rhs = padd(homogeneous(n), pmul(homogeneous(n - 1), opens),
               pmul(homogeneous(n - 2), down))
    return padd(var("z", n), pscale(var("z", n - 1), -1), pscale(rhs, -1))


def edge_tiling(edge: str, n: int) -> dict:
    """y^n = its n + 1 lattice points plus its n open unit edges."""
    if edge == "y3":
        pts = {mono(x1=i, x2=n - i): Fraction(1) for i in range(n + 1)}
        opens = {mono(x1=i, x2=n - 1 - i): Fraction(1) for i in range(n)}
    else:
        xn = "x1" if edge == "y1" else "x2"
        pts = {mono(**{xn: i}): Fraction(1) for i in range(n + 1)}
        opens = {mono(**{xn: i}): Fraction(1) for i in range(n)}
    return padd(pts, pmul(open_pieces()[edge + "o"], opens))
