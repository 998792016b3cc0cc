"""The three workloads: seeded query lists and the check of every answer.

A query is one library call or one CLI verb, called in-process.  Its
inputs are built before any pass from the seed and the fixed ladders
below; its check compares the answer with oracle.py's computations and
the properties the paper proves.  Seeds change translations, coefficients,
choices among symmetric relations, an interval's endpoints and query
order, never the ladder of sizes, so every seed costs about the same.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
from fractions import Fraction

import oracle as orc
from oracle import Q2, at_ones, padd, pmul, pscale, var


class Query:
    """One operation of a pass: ``run`` calls minkring, ``check`` judges
    the answer apart from it and returns an error text or None."""

    __slots__ = ("kind", "label", "run", "check")

    def __init__(self, kind, label, run, check):
        self.kind, self.label, self.run, self.check = kind, label, run, check


class Api:
    """The freshly imported minkring modules a pass calls into."""

    def __init__(self, modules: dict):
        self.pkg = modules["minkring"]
        self.cli = modules["minkring.cli"]
        self.pres = modules["minkring.presentations"]
        self.rw = modules["minkring.rewriting"]
        self.sf = modules["minkring.simplefn"]
        self.Poly = self.pkg.LaurentPoly
        self.Scalar = self.pkg.Scalar

    def poly(self, p: dict):
        return self.Poly(p)

    def scalar(self, x):
        x = Q2.of(x)
        return self.Scalar(x.p, x.q)

    def euler(self, ring, p: dict) -> Fraction:
        return self.sf.euler_char(ring.phi(self.Poly(p)))


def cli_call(api: Api, argv: list, stdin_text: str | None = None) -> tuple:
    """cli.main on argv with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stderr(err):
            rc = api.cli.main(argv, out=out)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def report(result: tuple) -> dict:
    """Fields of a structured report; repeated keys collect into lists."""
    rc, text, err = result
    if rc != 0:
        raise AssertionError(f"exit code {rc}: {err.strip()}")
    fields: dict = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        fields.setdefault(key, []).append(value)
    return fields


def one(fields: dict, key: str) -> str:
    (value,) = fields[key]
    return value


def flat_point(x) -> tuple:
    """Flat coordinates of a witness point returned by the library."""
    if isinstance(x, tuple):
        return sum((flat_point(y) for y in x), ())
    if hasattr(x, "q"):
        return (Q2(x.p, x.q) if x.q else Fraction(x.p),)
    return (Fraction(x),)


# ---------------------------------------------------------------------------
# kernel membership queries shared by the workloads


def line_problem(api, ring, model, poly: dict):
    """On a line, the image must match the oracle at every endpoint of its
    pieces and between them, which exercises minkring's Q(sqrt 2) order."""
    if not model.line:
        return None
    image = ring.phi(api.poly(poly))
    for x in model.line_samples(poly):
        got = api.sf.evaluate_at(image, api.scalar(x))
        if got != model.value_at(poly, (x,)):
            return f"image is {got} at {x}, oracle {model.value_at(poly, (x,))}"
    return None


def member_checker(api, ring_fn, model, poly: dict, member: bool):
    """Check a witness (point, value) or None from the library.

    Members are built from declared relations, so the answer must be None;
    non-members carry a monomial perturbation, so the image is nonzero and
    its value at the witness must match the oracle's.  Either way
    euler_char(phi(f)) must equal f(1, ..., 1).
    """
    def check(result):
        if member:
            if result is not None:
                return f"member reported a witness {result}"
            if at_ones(poly) != 0:
                return "member does not vanish at (1, ..., 1)"
        else:
            if result is None:
                return "non-member reported in the kernel"
            point, value = result
            if value == 0:
                return "witness value is 0"
            expect = model.value_at(poly, flat_point(point))
            if expect != value:
                return f"witness value {value}, oracle {expect}"
            problem = line_problem(api, ring_fn(), model, poly)
            if problem:
                return problem
        if api.euler(ring_fn(), poly) != at_ones(poly):
            return "euler_char(phi(f)) differs from f(1, ..., 1)"
        return None
    return check


def lib_member(api, kind, label, ring_fn, model, poly, member, build=None):
    """Library kernel_witness on poly; ``build`` makes the argument inside
    the timed call when the query also exercises Laurent arithmetic."""
    arg = api.poly(poly)
    if build is None:
        run = lambda: ring_fn().kernel_witness(arg)  # noqa: E731
    else:
        run = lambda: ring_fn().kernel_witness(build())  # noqa: E731
    return Query(kind, label, run, member_checker(api, ring_fn, model, poly, member))


def cli_member(api, kind, label, selector, ring_fn, model, poly, member, stdin=False):
    """``member --ring selector`` on poly's text, as an argument or on stdin."""
    text = orc.poly_text(poly)
    argv = ["member", "--ring", selector, "-" if stdin else text]
    run = lambda: cli_call(api, argv, text if stdin else None)  # noqa: E731

    def check(result):
        fields = report(result)
        if orc.parse_canonical(one(fields, "canonical")) != poly:
            return "canonical text differs from the oracle's expansion"
        if one(fields, "result") != ("true" if member else "false"):
            return f"result {one(fields, 'result')}"
        if not member:
            point = orc.parse_point(one(fields, "witness"))
            value = Fraction(one(fields, "value"))
            if value == 0 or model.value_at(poly, point) != value:
                return f"witness value {value} differs from the oracle"
            problem = line_problem(api, ring_fn(), model, poly)
            if problem:
                return problem
        if member and at_ones(poly) != 0:
            return "member does not vanish at (1, ..., 1)"
        if api.euler(ring_fn(), poly) != at_ones(poly):
            return "euler_char(phi(f)) differs from f(1, ..., 1)"
        return None
    return Query(kind, label, run, check)


def grid_points_check(model, poly: dict, bounds, rng, count=12):
    """Sample-point check that the image of poly is the indicator of the
    grid polygon with the given bounds (or zero when bounds is None)."""
    pts = orc.grid_samples(rng, bounds if bounds else (-2, 4, -2, 4, -4, 8), count)
    for pt in pts:
        want = 1 if bounds and orc.in_grid_set(bounds, pt) else 0
        got = model.value_at(poly, pt)
        if got != want:
            return f"image is {got} at {pt}, polygon gives {want}"
    return None


# ---------------------------------------------------------------------------
# probes: one small query for each layer a grid workload does not reach


def probe_queries(api) -> list:
    """Keep every per-layer metric measured on the grid workloads: an
    interval member (scalars), a face-cover identity (identities) and the
    smallest product (products)."""
    qs = []
    model = orc.interval_model(1, Q2(0, 1))
    x, y, z = var("x"), var("y"), var("z")
    rel = pmul(padd(z, pscale(x, -1)), padd(z, pscale(y, -1)))
    qs.append(cli_member(api, "probe-interval", "(z-x)*(z-y) on [1, sqrt2]",
                         "interval:1,sqrt2",
                         lambda: api.cli.ring_from_selector("interval:1,sqrt2"),
                         model, rel, True))
    qs.append(identity_query(api, "triangle", ("edge:OA", "vertex:B")))
    qs.append(product_query(api, "d1", "d1", seed=0, samples=2))
    return qs


def distinct_shifts(rng, family: int, count: int) -> list:
    """Seeded translations x1^a x2^b, 20 apart and distinct within a family
    of queries, with families in disjoint ranges.  The images of two queries
    then share no cells, and what the lru caches share does not depend on
    the seed."""
    cells = rng.sample(range(64), count)
    return [orc.mono(x1=20 * (10 * family + 1 + c % 8), x2=20 * (1 + c // 8))
            for c in cells]


# ---------------------------------------------------------------------------
# grid-dilate


def grid_dilate(api: Api, seed: int) -> list:
    rng = random.Random(f"grid-dilate:{seed}")
    cox = lambda: api.pres.coxeter_ring()  # noqa: E731
    cmodel = orc.coxeter_model()
    rels = orc.grid_relations()
    qs = []

    # Relations fall into three orbits of the lattice symmetries: the seed
    # picks within an orbit, never across, so every seed costs the same.
    orbits = ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def power_query(label, terms):
        """Sum of c * shift * rel.power_map(n), built inside the timed call."""
        poly, parts = {}, []
        for rel, n, c, sh in terms:
            poly = padd(poly, pscale({orc.mono_mul(m, sh): v
                                      for m, v in orc.power_map(rel, n).items()}, c))
            parts.append((api.poly(rel), n, api.poly({sh: Fraction(c)})))

        def build():
            out = parts[0][0].power_map(parts[0][1]) * parts[0][2]
            for base, n, sp in parts[1:]:
                out = out + base.power_map(n) * sp
            return out
        return lib_member(api, "dilate-power-map", label, cox, cmodel, poly, True,
                          build=build)

    # Declared relations under power_map(n), translated by x1^a x2^b.
    sh = iter(distinct_shifts(rng, 0, 45))
    for i, rel in enumerate(rels):
        for n in (1, 2, 3, 4) + ((5, 6, 8) if i in orbits[0] else ()):
            qs.append(power_query(f"r{i} pm{n}", [(rel, n, 1, next(sh))]))
    # Ideal combinations of two relations from different orbits.
    sh = iter(distinct_shifts(rng, 1, 18))
    for n in (1, 2, 3):
        for oa, ob in itertools.combinations(orbits, 2):
            ia, ib = rng.choice(oa), rng.choice(ob)
            qs.append(power_query(f"r{ia} + r{ib} pm{n}",
                                  [(rels[ia], n, 1, next(sh)),
                                   (rels[ib], n, rng.choice((-2, -1, 2)), next(sh))]))

    # (z - p)(z - q) z^n times the inverse of a point: a translation whose
    # image goes through the general product today.
    for orbit in orbits[1:]:
        for n, k in ((0, 1), (2, 2), (6, 2), (8, 1)):
            rel = rels[rng.choice(orbit)]
            pt = rng.choice(("x1", "x2"))
            poly = pmul(rel, var("z", n), var(pt, -k)) if n else pmul(rel, var(pt, -k))
            qs.append(cli_member(api, "dilate-inverse-point",
                                 f"r*z^{n}*{pt}^-{k}", "coxeter", cox, cmodel, poly, True))

    # Non-members z^n - y^n, answered with a witness: a ladder, then a block
    # of equal-cost queries that holds the 90th percentile.
    ladder = (2, 4, 6, 8, 12, 16) + (24,) * 14
    for n, sh in zip(ladder, distinct_shifts(rng, 2, len(ladder))):
        edge = rng.choice(("y1", "y2", "y3"))
        poly = {orc.mono_mul(m, sh): c
                for m, c in padd(var("z", n), pscale(var(edge, n), -1)).items()}
        qs.append(lib_member(api, "dilate-witness", f"z^{n} - {edge}^{n}", cox,
                             cmodel, poly, False))

    # Non-members y^k z^-k - 1: an inverse dilation.
    for k in (1, 2, 3, 5):
        edge = rng.choice(("y1", "y2", "y3"))
        poly = padd(pmul(var(edge, k), var("z", -k)), orc.const(-1))
        qs.append(cli_member(api, "dilate-inverse-witness", f"{edge}^{k} z^-{k} - 1",
                             "coxeter", cox, cmodel, poly, False))

    # Box rings: axis relations dilated by power_map and by other axes.
    for d, ladder in ((3, (1, 2, 4)), (4, (1, 2))):
        ring = (lambda d=d: api.pres.box_ring(d))
        bmodel = orc.box_model(d)
        for m in ladder:
            for i in (range(d) if m < 4 else (rng.randrange(d),)):
                axes = rng.sample([j for j in range(d) if j != i], 2)
                rel = orc.edge_relation(f"x{i + 1}", f"y{i + 1}")
                poly = pmul(orc.power_map(rel, m + 1),
                            *(var(f"y{j + 1}", m) for j in axes),
                            var(f"x{rng.choice(axes) + 1}", rng.randint(1, 3)))
                qs.append(lib_member(api, f"box{d}-member", f"r{i} pm{m + 1}", ring,
                                     bmodel, poly, True))
        for n in ladder:
            full = pmul(*(var(f"y{j + 1}", n) for j in range(d)))
            pts = orc.mono(**{f"x{j + 1}": rng.randint(0, n) for j in range(d)})
            poly = padd(full, {pts: Fraction(-rng.randint(1, 3))})
            qs.append(lib_member(api, f"box{d}-witness", f"(y..)^{n} - c*x..", ring,
                                 bmodel, poly, False))

    qs += probe_queries(api)
    rng.shuffle(qs)
    return qs


def grid_dilate_catalog(api: Api) -> None:
    api.pres.coxeter_ring()
    api.pres.box_ring(3)
    api.pres.box_ring(4)


# ---------------------------------------------------------------------------
# grid-many-terms

# (N, cuts) of the hexagon ladder: the side-N up-triangle with three
# corners cut off; the seed permutes the cuts and translates the polygon,
# which keeps every count of cells.
HEXAGONS = ((2, (1, 0, 0)), (3, (1, 1, 0)), (4, (1, 1, 1)), (5, (1, 1, 1)),
            (5, (2, 1, 1)), (6, (2, 2, 1)), (6, (2, 2, 2)), (9, (3, 3, 2)),
            (12, (2, 1, 1)), (14, (4, 4, 4)))

DEEP_NESTING = 400


def hexagon_bounds(n, cuts, a, b) -> tuple:
    ms, mu, mv = cuts
    return (a, a + n - mu, b, b + n - mv, a + b + ms, a + b + n)


def normalize_query(api, bounds, rng) -> Query:
    u0, u1, v0, v1, s0, s1 = bounds
    spec = f"u:{u0}..{u1},v:{v0}..{v1},s:{s0}..{s1}"
    model = orc.coxeter_model()
    sample_rng = random.Random(rng.random())

    def check(result):
        fields = report(result)
        if one(fields, "verified") != "true":
            return "normal forms not verified"
        n, _, _, _ = orc.hexagon_cuts(bounds)
        if one(fields, "anchor") != f"({u0}, {v0})" or \
                not one(fields, "params").startswith(f"N={n} "):
            return "traversal anchor or scale differs"
        counts = {k: 0 for k in ("1", "y1o", "y2o", "y3o", "zo", "zinv")}
        for piece in one(fields, "second-open").split(" + "):
            counts[orc.piece_kind(piece)] += 1
        if counts != orc.hexagon_piece_counts(bounds):
            return f"piece counts {counts} differ from the closed form"
        for key in ("first", "second"):
            poly = orc.parse_canonical(one(fields, key))
            if at_ones(poly) != 1:
                return f"{key} normal form has Euler value {at_ones(poly)}"
            bad = grid_points_check(model, poly, bounds, sample_rng)
            if bad:
                return f"{key} normal form: {bad}"
        return None
    return Query("normalize", spec, lambda: cli_call(api, ["normalize", "--gridset", spec]),
                 check)


def tile_query(api, axis, n) -> Query:
    model = orc.coxeter_model()
    bounds = {"z": (0, n, 0, n, 0, n), "y1": (0, n, 0, 0, 0, n),
              "y2": (0, 0, 0, n, 0, n), "y3": (0, n, 0, n, n, n)}[axis]
    sample_rng = random.Random(f"{axis}:{n}")

    def check(result):
        fields = report(result)
        if one(fields, "verified") != "true":
            return "tiling not verified"
        poly = orc.parse_canonical(one(fields, "tiling"))
        if at_ones(poly) != 1:
            return "tiling has Euler value other than 1"
        if axis == "z":
            ups = sum(1 for m in poly if dict(m).get("z") == 1)
            downs = sum(1 for m in poly if dict(m).get("z") == -1)
            if (ups, downs) != (orc.tri(n), orc.tri(n - 1)):
                return f"{ups} up and {downs} down triangles for n = {n}"
        else:
            edges = sum(1 for m in poly if dict(m).get(axis) == 1)
            if edges != n:
                return f"{edges} open edges for n = {n}"
        return grid_points_check(model, poly, bounds, sample_rng)
    argv = ["tile", "--axis", axis, "--n", str(n)]
    return Query("tile", f"{axis}^{n}", lambda: cli_call(api, argv), check)


def strip_query(api, n) -> Query:
    model = orc.coxeter_model()
    strip = orc.strip_identity(n)
    sample_rng = random.Random(f"strip:{n}")

    def check(result):
        if result is not True:
            return f"verify_strip({n}) returned {result}"
        return grid_points_check(model, strip, None, sample_rng)
    return Query("verify-strip", f"strip {n}", lambda: api.rw.verify_strip(n), check)


def deep_query(api) -> Query:
    """A member whose text is nested DEEP_NESTING parentheses deep.  The
    right outcome is the answer, or a one-line error with exit code 1."""
    text = "(" * DEEP_NESTING + "(z-1)*(z-y3)" + ")" * DEEP_NESTING

    def check(result):
        rc, out, err = result
        if rc == 1 and len(err.strip().splitlines()) == 1:
            return None
        if rc == 0 and "result: true" in out.splitlines():
            return None
        return f"exit code {rc} with {err.strip()[:80]!r}"
    return Query("member-deep", f"{DEEP_NESTING} parentheses",
                 lambda: cli_call(api, ["member", "--ring", "coxeter", text]), check)


def grid_many_terms(api: Api, seed: int) -> list:
    rng = random.Random(f"grid-many-terms:{seed}")
    cox = lambda: api.pres.coxeter_ring()  # noqa: E731
    cmodel = orc.coxeter_model()
    qs = []
    for n, cuts in HEXAGONS:
        cuts = tuple(rng.sample(cuts, 3))
        bounds = hexagon_bounds(n, cuts, rng.randint(-6, 6), rng.randint(-6, 6))
        qs.append(normalize_query(api, bounds, rng))
    for axis in ("z", "y1", "y2", "y3"):
        for n in (1, 2, 3, 4, 5, 6, 8, 10) + ((12, 14) if axis != "z" else ()):
            qs.append(tile_query(api, axis, n))
    for n in range(1, 17):
        qs.append(strip_query(api, n))

    # z^n minus its tiling, printed by this benchmark and piped to member -:
    # a ladder, then a block of equal-cost payloads at n = 8 spaced apart so
    # they share no cells, which holds the 90th percentile.
    ladder = (2, 3, 4, 5, 6, 10, 16) + (8,) * 14
    for n, sh in zip(ladder, distinct_shifts(rng, 0, len(ladder))):
        poly = {orc.mono_mul(m, sh): c for m, c in
                padd(var("z", n), pscale(orc.triangle_tiling(n), -1)).items()}
        qs.append(cli_member(api, "member-tiling", f"z^{n} - tiling", "coxeter", cox,
                             cmodel, poly, True, stdin=True))
    edges = [(edge, n) for edge in ("y1", "y2", "y3") for n in (4, 8, 16, 32)]
    for (edge, n), sh in zip(edges, distinct_shifts(rng, 3, len(edges))):
        poly = {orc.mono_mul(m, sh): c for m, c in
                padd(var(edge, n), pscale(orc.edge_tiling(edge, n), -1)).items()}
        qs.append(cli_member(api, "member-edge-tiling", f"{edge}^{n} - tiling",
                             "coxeter", cox, cmodel, poly, True, stdin=True))
    # Euler characteristic of translated tilings: always 1.
    for n, sh in zip((3, 6, 12), distinct_shifts(rng, 6, 3)):
        poly = {orc.mono_mul(m, sh): c for m, c in orc.triangle_tiling(n).items()}
        qs.append(euler_query(api, poly, "coxeter", cox))
    qs.append(deep_query(api))
    qs += probe_queries(api)
    rng.shuffle(qs)
    return qs


def euler_query(api, poly, selector, ring_fn) -> Query:
    text = orc.poly_text(poly)

    def check(result):
        fields = report(result)
        if Fraction(one(fields, "euler")) != at_ones(poly):
            return f"euler {one(fields, 'euler')}, f(1, ..., 1) = {at_ones(poly)}"
        return None
    return Query("euler", f"euler of {len(poly)} terms",
                 lambda: cli_call(api, ["euler", "--ring", selector, "-"], text), check)


def grid_many_terms_catalog(api: Api) -> None:
    api.pres.coxeter_ring()


# ---------------------------------------------------------------------------
# line-box-product

# Interval rings: endpoints as (p, q) pairs of p + q*sqrt2.  The ratios are
# fixed so the declared relations, checked at set-up, cost the same on
# every seed.
INTERVALS = (((1, 0), (2, 0)), ((-2, 0), (3, 0)), ((0, 0), (Fraction(3, 2), 0)),
             ((2, 0), (Fraction(5, 2), 0)), ((1, 0), (0, 1)), ((-1, 0), (0, 1)),
             ((0, 1), (1, 1)), ((0, 0), (0, 1)))

TRIANGLE_FACES = {"vertex:O": ("O",), "vertex:A": ("A",), "vertex:B": ("B",),
                  "edge:OA": ("O", "A"), "edge:OB": ("O", "B"), "edge:AB": ("A", "B")}
SQUARE_FACES = {"vertex:00": ("00",), "vertex:10": ("10",), "vertex:01": ("01",),
                "vertex:11": ("11",), "edge:bottom": ("00", "10"),
                "edge:top": ("01", "11"), "edge:left": ("00", "01"),
                "edge:right": ("10", "11")}
INTERVAL_FACES = {"vertex:lo": ("lo",), "vertex:hi": ("hi",)}

# Minimal antichain covers: the paper's six triangle patterns (an edge
# with the opposite vertex, or two edges), the endpoint pair of an
# interval, and the square's two opposite-edge pairs and four
# two-edges-and-the-far-corner covers, derived by hand from the swap order.
MINIMAL_COVERS = {
    "triangle": {frozenset(c) for c in (
        ("edge:AB", "vertex:O"), ("edge:OA", "vertex:B"), ("edge:OB", "vertex:A"),
        ("edge:OA", "edge:OB"), ("edge:AB", "edge:OB"), ("edge:AB", "edge:OA"))},
    "square": {frozenset(c) for c in (
        ("edge:left", "edge:right"), ("edge:bottom", "edge:top"),
        ("edge:right", "edge:top", "vertex:00"), ("edge:bottom", "edge:right", "vertex:01"),
        ("edge:left", "edge:top", "vertex:10"), ("edge:bottom", "edge:left", "vertex:11"))},
    "interval": {frozenset(("vertex:hi", "vertex:lo"))},
}


def face_vertices(polytope: str) -> dict:
    if polytope == "triangle":
        return TRIANGLE_FACES
    if polytope == "square":
        return SQUARE_FACES
    return INTERVAL_FACES


def identity_query(api, polytope, labels) -> Query:
    """The face-cover identity holds exactly when the cover meets every
    vertex; the expanded product vanishes at (1, ..., 1)."""
    faces = face_vertices(polytope.split(":")[0])
    all_vertices = {v for vs in faces.values() for v in vs}
    covered = {v for label in labels for v in faces[label]}
    covers = covered == all_vertices
    argv = ["identity", "--polytope", polytope, "--cover", ",".join(labels)]

    def check(result):
        fields = report(result)
        expect = "true" if covers else "false"
        if one(fields, "covers") != expect or one(fields, "holds") != expect:
            return (f"covers {one(fields, 'covers')}, holds {one(fields, 'holds')},"
                    f" vertex cover {expect}")
        if at_ones(orc.parse_canonical(one(fields, "product"))) != 0:
            return "identity product does not vanish at (1, ..., 1)"
        return None
    return Query("identity", f"{polytope} {','.join(labels)}",
                 lambda: cli_call(api, argv), check)


def minimal_covers_query(api, polytope) -> Query:
    kind = polytope.split(":")[0]
    faces = face_vertices(kind)
    all_vertices = {v for vs in faces.values() for v in vs}

    def check(result):
        fields = report(result)
        covers = {frozenset(c.split(", ")) for c in fields.get("cover", [])}
        if int(one(fields, "count")) != len(covers):
            return "count differs from the listed covers"
        for c in covers:
            if {v for label in c for v in faces[label]} != all_vertices:
                return f"cover {sorted(c)} misses a vertex"
        if covers != MINIMAL_COVERS[kind]:
            return f"covers {sorted(map(sorted, covers))} differ from the table"
        return None
    return Query("minimal-covers", polytope,
                 lambda: cli_call(api, ["minimal-covers", "--polytope", polytope]), check)


def product_query(api, left, right, seed, samples=20) -> Query:
    model = orc.product_model(left, right)
    names = {"d1": 2, "d2": 6}
    argv = ["product", "--left", left, "--right", right, "--seed", str(seed),
            "--samples", str(samples)]
    sample_rng = random.Random(f"{left}x{right}")

    def sample():
        pt = ()
        for comp in (left, right):
            if comp == "d1":
                pt += (sample_rng.choice((0, Fraction(1, 2))) + sample_rng.randint(-2, 2),)
            else:
                du, dv = sample_rng.choice(orc.CELL_OFFSETS)
                pt += (sample_rng.randint(-2, 2) + du, sample_rng.randint(-2, 2) + dv)
        return pt

    def check(result):
        fields = report(result)
        if one(fields, "declared-kernel") != "true" or \
                one(fields, "tensor-identity") != "true":
            return "declared kernel or tensor identity reported broken"
        if len(fields["mapping"]) != names[left] + names[right]:
            return "mapping does not list every generator"
        rels = [orc.parse_canonical(line[len("kernel-generator: "):])
                for line in fields["doc"] if line.startswith("kernel-generator: ")]
        if len(rels) != len(fields["doc"]) - 3 - names[left] - names[right]:
            return "declared relations missing from the document"
        for _ in range(12):
            pt = sample()
            for rel in rels:
                if model.value_at(rel, pt) != 0:
                    return f"declared relation is nonzero at {pt}"
        return None
    return Query("product", f"{left} x {right}", lambda: cli_call(api, argv), check)


def interval_selector(lo, hi, mode) -> str:
    def txt(pq):
        p, q = Fraction(pq[0]), Fraction(pq[1])
        if not q:
            return str(p)
        rad = "sqrt2" if q == 1 else f"{q}*sqrt2"
        return rad if not p else f"{p}+{rad}"
    return f"interval:{txt(lo)},{txt(hi)}" + (":laurent" if mode == "laurent" else "")


def line_box_product(api: Api, seed: int) -> list:
    rng = random.Random(f"line-box-product:{seed}")
    qs = []

    # Interval rings: (z-x)^n (z-y) [y^-2], members and perturbed
    # non-members sharing their monomials.
    for lo, hi in INTERVALS:
        a, b = Q2(*lo), Q2(*hi)
        model = orc.interval_model(a, b)
        for mode in ("polynomial", "laurent"):
            sel = interval_selector(lo, hi, mode)
            sa, sb = api.scalar(a), api.scalar(b)
            ring = (lambda sa=sa, sb=sb, mode=mode: api.pres.interval_ring(sa, sb, mode=mode))
            # The segment is y when an endpoint is 0, else z.
            seg, other = ("y", orc.const(1)) if Q2(0) in (a, b) else ("z", var("y"))
            for n in (1, 2, 4, 6):
                poly = pmul(orc.ppow(padd(var(seg), pscale(var("x"), -1)), n),
                            padd(var(seg), pscale(other, -1)))
                if mode == "laurent":
                    poly = pmul(poly, var(seg, -2))
                poly = pscale(poly, rng.choice((-3, -2, -1, 1, 2, 3)))
                if n % 2:
                    qs.append(lib_member(api, "interval-member", f"{sel} n={n}", ring,
                                         model, poly, True))
                else:
                    qs.append(cli_member(api, "interval-member", f"{sel} n={n}", sel,
                                         ring, model, poly, True))
                if n in (2, 4):
                    shared = rng.choice(sorted(poly))
                    bumped = padd(poly, {shared: Fraction(rng.choice((-1, 1)))})
                    qs.append(lib_member(api, "interval-witness", f"{sel} n={n} + m",
                                         ring, model, bumped, False))

    # Non-members whose pieces end within a hair of each other: z^n spans
    # [n, n*sqrt2] (or [-n, n*sqrt2]) and x^m is the nearest integer point
    # m = round(n*sqrt2), so the order of m and n*sqrt2 decides the image.
    for (lo, hi), modes, sign in ((((1, 0), (0, 1)), ("polynomial", "laurent"), 1),
                                  (((-1, 0), (0, 1)), ("laurent",), -1)):
        a, b = Q2(*lo), Q2(*hi)
        model = orc.interval_model(a, b)
        for mode in modes:
            sa, sb = api.scalar(a), api.scalar(b)
            ring = (lambda sa=sa, sb=sb, mode=mode: api.pres.interval_ring(sa, sb, mode=mode))
            for n in (2, 3, 5, 7, 12):
                m = round(n * 2 ** 0.5)
                poly = padd(pscale(var("z", n), rng.choice((1, 2, 3))),
                            pscale(var("x", sign * m), -rng.choice((1, 2))))
                qs.append(lib_member(api, "interval-witness",
                                     f"{interval_selector(lo, hi, mode)} z^{n} - x^{sign * m}",
                                     ring, model, poly, False))

    # Box rings: seeded ideal elements over a shared pool of monomials, and
    # the same elements plus one pool monomial.
    for d in (1, 2, 3):
        for signed in (False, True):
            ring = (lambda d=d, signed=signed: api.pres.box_ring(d, signed=signed))
            model = orc.box_model(d)
            names = ["x", "y"] if d == 1 else [f"{c}{i + 1}" for i in range(d) for c in "xy"]
            pool = []
            for _ in range(4):
                exps = {n: rng.randint(0, 2) for n in rng.sample(names, 2)}
                if signed:
                    exps[rng.choice(names)] = -1
                pool.append(orc.mono(**exps))
            rels = [orc.edge_relation(*(("x", "y") if d == 1 else (f"x{i + 1}", f"y{i + 1}")))
                    for i in range(d)]
            for j in range(4):
                parts = [pmul({pool[(j + t) % 4]: Fraction(rng.choice((-2, -1, 1, 2)))},
                              orc.power_map(rels[rng.randrange(d)], 1 + t))
                         for t in range(3)]
                poly = padd(*parts)
                sel = f"box:{d}" + (":signed" if signed else "")
                if j % 2:
                    qs.append(cli_member(api, "box-member", f"{sel} ideal {j}", sel, ring,
                                         model, poly, True))
                else:
                    qs.append(lib_member(api, "box-member", f"{sel} ideal {j}", ring,
                                         model, poly, True))
                bumped = padd(poly, {pool[j]: Fraction(rng.choice((-1, 1)))})
                qs.append(lib_member(api, "box-witness", f"{sel} ideal {j} + m", ring,
                                     model, bumped, False))

    qs.append(product_query(api, "d1", "d2", seed=rng.randrange(1000)))
    qs.append(product_query(api, "d2", "d2", seed=rng.randrange(1000)))

    lo, hi = rng.choice((("1", "sqrt2"), ("-1", "sqrt2"), ("0", "3/2"), ("sqrt2", "2")))
    for polytope, faces in (("triangle", TRIANGLE_FACES), ("square", SQUARE_FACES),
                            (f"interval:{lo},{hi}", INTERVAL_FACES)):
        labels = sorted(faces)
        for r in range(1, len(labels) + 1):
            for combo in itertools.combinations(labels, r):
                qs.append(identity_query(api, polytope, combo))
        qs.append(minimal_covers_query(api, polytope))
    rng.shuffle(qs)
    return qs


def line_box_product_catalog(api: Api) -> None:
    for lo, hi in INTERVALS:
        for mode in ("polynomial", "laurent"):
            api.pres.interval_ring(api.scalar(Q2(*lo)), api.scalar(Q2(*hi)), mode=mode)
    for d in (1, 2, 3):
        for signed in (False, True):
            api.pres.box_ring(d, signed=signed)
    api.pres.coxeter_ring()


WORKLOADS = {
    "grid-dilate": (grid_dilate, grid_dilate_catalog),
    "grid-many-terms": (grid_many_terms, grid_many_terms_catalog),
    "line-box-product": (line_box_product, line_box_product_catalog),
}
