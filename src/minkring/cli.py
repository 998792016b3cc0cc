"""Command-line front end.

Verbs: member, normalize, tile, identity, minimal-covers, euler, product,
classify.  Structured reports are line-delimited ``key: value`` documents
with stable field names so they diff cleanly; ``--format text`` gives a
one-line human answer instead.  Exit status is 0 when the query ran
(regardless of the boolean answer) and nonzero on errors.

Polynomial grammar: sum of terms joined by + and -; a term is an optional
rational coefficient and '*'-separated factors; a factor is a generator
name optionally followed by '^' and a signed integer exponent, or a
parenthesized subexpression, nested at most 100 deep.  Whitespace is
ignored.

Ring selectors: ``coxeter`` | ``interval:a,b[:mode[:xyz]]`` |
``box:d[:signed]`` | ``product:<left>,<right>`` (components ``d1``, ``d2``,
``point``) | ``principal:<shape>[:mode]``.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import geometry as geo
from . import identities as ids
from . import products as prod
from . import rewriting as rw
from . import simplefn as sf
from .laurent import LaurentPoly
from .presentations import (Presentation, PrincipalShape, box_ring,
                            classify_principal, coxeter_ring, interval_ring,
                            point_ring, polytope_text)
from .scalars import Scalar


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# polynomial parser

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*^()]))")


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("op"):
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, names=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.names = set(names) if names is not None else None

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> LaurentPoly:
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return poly

    def expr(self) -> LaurentPoly:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        out = sign * self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                nxt = self.term()
                out = out + nxt if val == "+" else out - nxt
            else:
                return out

    def term(self) -> LaurentPoly:
        out = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = out * self.factor()
            elif kind in ("name", "num") or (kind == "op" and val == "("):
                out = out * self.factor()
            else:
                return out

    def exponent(self) -> int:
        sign = 1
        kind, val, pos = self.next()
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val, pos = self.next()
        if kind != "num" or "/" in val:
            raise ParseError("expected an integer exponent", pos)
        return sign * int(val)

    def factor(self) -> LaurentPoly:
        kind, val, pos = self.next()
        if kind == "num":
            try:
                coeff = Fraction(val)
            except ZeroDivisionError:
                raise ParseError("zero denominator", pos) from None
            return LaurentPoly.const(coeff)
        if kind == "name":
            if self.names is not None and val not in self.names:
                raise ParseError(f"unknown name {val!r}", pos)
            exp = 1
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "^":
                self.next()
                exp = self.exponent()
            return LaurentPoly.var(val, exp) if exp else LaurentPoly.const(1)
        if kind == "op" and val == "(":
            # Each level recurses through expr, term and factor; the limit
            # keeps the stack far from Python's recursion limit.
            if self.depth == _MAX_NESTING:
                raise ParseError(f"nesting deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            kind2, val2, pos2 = self.peek()
            if kind2 == "op" and val2 == "^":
                self.next()
                exp = self.exponent()
                if exp < 0 and not inner.is_monomial():
                    raise ParseError("negative power of a non-monomial", pos2)
                return inner**exp
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_poly(text: str, names=None) -> LaurentPoly:
    """Parse the polynomial grammar; printing the result re-parses to the
    same canonical polynomial."""
    return _Parser(text, names).parse()


# ---------------------------------------------------------------------------
# scalar parser (interval endpoints)

_SCALAR_TERM = re.compile(
    r"^(?P<sign>[+-]?)(?:(?P<coef>\d+(?:/\d+)?)(?:\*?(?P<rad1>sqrt2))?|(?P<rad2>sqrt2))$")


def parse_scalar(text: str) -> Scalar:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    # split into signed terms
    terms, buf = [], ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0:
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    total = Scalar.of(0)
    for t in terms:
        m = _SCALAR_TERM.match(t)
        if not m:
            raise ValueError(f"cannot parse scalar term {t!r} in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(
                f"zero denominator in scalar term {t!r} of {text!r}") from None
        if m.group("rad1") or m.group("rad2"):
            total = total + Scalar.sqrt2(sign * coef)
        else:
            total = total + Scalar.of(sign * coef)
    return total


# ---------------------------------------------------------------------------
# ring selectors and catalog polytopes

_PRODUCT_PARTS = {
    "d1": lambda: box_ring(1, signed=True),
    "d2": coxeter_ring,
    "point": point_ring,
}


def ring_from_selector(sel: str) -> Presentation:
    if sel == "coxeter":
        return coxeter_ring()
    if sel.startswith("interval:"):
        rest = sel[len("interval:"):].split(":")
        try:
            a_text, b_text = rest[0].split(",")
        except ValueError:
            raise ValueError(f"interval selector needs two endpoints: {sel!r}")
        mode, naming = "polynomial", "auto"
        for extra in rest[1:]:
            if extra in ("polynomial", "laurent"):
                mode = extra
            elif extra == "xyz":
                naming = "xyz"
            else:
                raise ValueError(f"unknown interval option {extra!r}")
        return interval_ring(parse_scalar(a_text), parse_scalar(b_text),
                             mode=mode, naming=naming)
    if sel.startswith("box:"):
        rest = sel[len("box:"):].split(":")
        d = int(rest[0])
        signed = "signed" in rest[1:]
        return box_ring(d, signed=signed)
    if sel.startswith("product:"):
        return product_from_selector(sel).combined
    raise ValueError(f"unknown ring selector {sel!r}")


def product_from_selector(sel: str) -> prod.ProductPresentation:
    body = sel[len("product:"):]
    try:
        left, right = body.split(",")
    except ValueError:
        raise ValueError(f"product selector needs two components: {sel!r}")
    for part in (left, right):
        if part not in _PRODUCT_PARTS:
            raise ValueError(f"unknown product component {part!r} "
                             f"(choose from {sorted(_PRODUCT_PARTS)})")
    return prod.product_presentation(_PRODUCT_PARTS[left](),
                                     _PRODUCT_PARTS[right]())


_TRIANGLE_FACES = {
    "vertex:O": geo.grid_point_set(0, 0),
    "vertex:A": geo.grid_point_set(1, 0),
    "vertex:B": geo.grid_point_set(0, 1),
    "edge:OA": geo.grid_set(0, 1, 0, 0, 0, 1),
    "edge:OB": geo.grid_set(0, 0, 0, 1, 0, 1),
    "edge:AB": geo.grid_set(0, 1, 0, 1, 1, 1),
}

_SQUARE_FACES = {
    "vertex:00": geo.box_point((0, 0)),
    "vertex:10": geo.box_point((1, 0)),
    "vertex:01": geo.box_point((0, 1)),
    "vertex:11": geo.box_point((1, 1)),
    "edge:bottom": geo.box((0, 0), (1, 0)),
    "edge:top": geo.box((0, 1), (1, 1)),
    "edge:left": geo.box((0, 0), (0, 1)),
    "edge:right": geo.box((1, 0), (1, 1)),
}


def catalog_polytope(name: str):
    """(polytope, face label table) for the identity verbs."""
    if name == "triangle":
        table = dict(_TRIANGLE_FACES)
        table["self"] = geo.unit_triangle()
        return geo.unit_triangle(), table
    if name == "square":
        table = dict(_SQUARE_FACES)
        table["self"] = geo.box((0, 0), (1, 1))
        return table["self"], table
    if name.startswith("interval:"):
        a, b = (parse_scalar(t) for t in name[len("interval:"):].split(","))
        seg = geo.interval(a, b)
        table = {"vertex:lo": geo.line_point(a, seg.mode),
                 "vertex:hi": geo.line_point(b, seg.mode),
                 "self": seg}
        return seg, table
    raise ValueError(f"unknown polytope {name!r} "
                     "(choose triangle, square, or interval:a,b)")


def parse_cover(text: str, table) -> list:
    out = []
    for item in text.split(","):
        label = item.strip()
        if label not in table:
            raise ValueError(f"unknown face label {label!r} "
                             f"(choose from {sorted(table)})")
        out.append(table[label])
    return out


def face_label(face, table) -> str:
    for label, poly in table.items():
        if poly == face:
            return label
    return polytope_text(face)


def format_point(ambient, x) -> str:
    if isinstance(ambient, geo.Line):
        return str(x)
    if isinstance(ambient, geo.GridPlane):
        return f"grid({x[0]}, {x[1]})"
    if isinstance(ambient, geo.BoxSpace):
        return "box(" + ", ".join(str(c) for c in x) + ")"
    if isinstance(ambient, geo.ProductSpace):
        return "prod[" + "; ".join(format_point(a, xa)
                                   for a, xa in zip(ambient.parts, x)) + "]"
    raise TypeError(f"not an ambient: {ambient!r}")


# ---------------------------------------------------------------------------
# verbs


def _payload(args) -> str:
    if args.payload == "-":
        return sys.stdin.read().strip()
    return args.payload


def cmd_member(args, out) -> int:
    ring = ring_from_selector(args.ring)
    text = _payload(args)
    poly = parse_poly(text, ring.names())
    witness = ring.kernel_witness(poly)
    lines = [("verb", "member"), ("ring", ring.ring_id), ("input", text),
             ("canonical", poly.to_text()),
             ("result", "true" if witness is None else "false")]
    if witness is not None:
        point, value = witness
        lines.append(("witness", format_point(ring.ambient, point)))
        lines.append(("value", str(value)))
    if args.format == "text":
        verdict = "in the kernel" if witness is None else \
            f"not in the kernel (image is {witness[1]} at " \
            f"{format_point(ring.ambient, witness[0])})"
        print(f"{poly.to_text()} is {verdict} of {ring.ring_id}", file=out)
    else:
        _emit(lines, out)
    return 0


def cmd_euler(args, out) -> int:
    ring = ring_from_selector(args.ring)
    text = _payload(args)
    poly = parse_poly(text, ring.names())
    value = sf.euler_char(ring.phi(poly))
    if args.format == "text":
        print(f"euler characteristic of {poly.to_text()} in {ring.ring_id}: "
              f"{value}", file=out)
    else:
        _emit([("verb", "euler"), ("ring", ring.ring_id), ("input", text),
               ("canonical", poly.to_text()), ("euler", str(value))], out)
    return 0


_GRIDSET_SPEC = re.compile(
    r"^u:(-?\d+)\.\.(-?\d+),v:(-?\d+)\.\.(-?\d+),s:(-?\d+)\.\.(-?\d+)$")


def parse_gridset(text: str) -> geo.GridSet:
    m = _GRIDSET_SPEC.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"grid set spec must look like "
                         f"'u:0..1,v:0..1,s:0..2', got {text!r}")
    u0, u1, v0, v1, s0, s1 = (int(g) for g in m.groups())
    return geo.grid_set(u0, u1, v0, v1, s0, s1)


def cmd_normalize(args, out) -> int:
    s = parse_gridset(args.gridset)
    ring = coxeter_ring()
    params, first = rw.first_normal_form(s)
    pieces = rw.second_normal_form_pieces(s)
    second = rw.second_normal_form(s)
    target = sf.indicator(s)
    verified = ring.phi(first) == target and ring.phi(second) == target
    if args.format == "text":
        print(f"first normal form: {first.to_text()}", file=out)
        print(f"second normal form: {second.to_text()}", file=out)
        return 0
    _emit([
        ("verb", "normalize"), ("ring", ring.ring_id), ("input", args.gridset),
        ("anchor", f"({params.a}, {params.b})"),
        ("params", f"N={params.N} n1={params.n1} n2={params.n2} n3={params.n3}"
                   f" m1={params.m1} m2={params.m2} m3={params.m3}"),
        ("first", first.to_text()),
        ("second-open", " + ".join(rw.piece_text(p) for p in pieces)),
        ("second", second.to_text()),
        ("verified", "true" if verified else "false"),
    ], out)
    return 0


def cmd_tile(args, out) -> int:
    n = args.n
    if args.axis == "z":
        ring = coxeter_ring()
        tiling = rw.triangle_tiling(n)
        ok = rw.verify_triangle_tiling(n)
    else:
        ring = rw.edge_tiling_ring(args.axis)
        tiling = rw.edge_tiling(args.axis, n)
        ok = rw.verify_edge_tiling(args.axis, n)
    if args.format == "text":
        print(f"{args.axis}^{n} = {tiling.to_text()} ({'verified' if ok else 'FAILED'})",
              file=out)
    else:
        _emit([("verb", "tile"), ("ring", ring.ring_id), ("axis", args.axis),
               ("n", str(n)), ("tiling", tiling.to_text()),
               ("verified", "true" if ok else "false")], out)
    return 0


def cmd_identity(args, out) -> int:
    polytope, table = catalog_polytope(args.polytope)
    faces = parse_cover(args.cover, table)
    spec = ids.cover(polytope, faces)
    holds = ids.id_holds(spec)
    covers = ids.covers_vertices(spec)
    pres, product_poly, offset = ids.id_context(spec)
    embedding = f"anchored by offset {offset}"
    if args.format == "text":
        print(f"identity {'holds' if holds else 'fails'}; cover "
              f"{'covers' if covers else 'misses'} the vertices", file=out)
        return 0
    _emit([
        ("verb", "identity"),
        ("ring", pres.ring_id if pres is not None else "trivial"),
        ("polytope", args.polytope), ("cover", args.cover),
        ("embedding", embedding),
        ("product", product_poly.to_text()),
        ("covers", "true" if covers else "false"),
        ("holds", "true" if holds else "false"),
    ], out)
    return 0


def cmd_minimal_covers(args, out) -> int:
    polytope, table = catalog_polytope(args.polytope)
    minimal = ids.minimal_antichains(polytope)
    lines = [("verb", "minimal-covers"), ("polytope", args.polytope),
             ("count", str(len(minimal)))]
    for spec in minimal:
        labels = sorted(face_label(f, table) for f in spec.faces)
        lines.append(("cover", ", ".join(labels)))
    if args.format == "text":
        for spec in minimal:
            labels = sorted(face_label(f, table) for f in spec.faces)
            print("{" + ", ".join(labels) + "}", file=out)
        return 0
    _emit(lines, out)
    return 0


def cmd_product(args, out) -> int:
    pp = product_from_selector(f"product:{args.left},{args.right}")
    lines = [("verb", "product"), ("left", pp.left.ring_id),
             ("right", pp.right.ring_id), ("ring", pp.combined.ring_id)]
    for name in pp.left_names:
        lines.append(("mapping", f"{name} -> {name}"))
    for orig, renamed in pp.right_rename.items():
        lines.append(("mapping", f"{orig} -> {renamed}"))
    declared_ok = all(pp.combined.kernel_member(g) for g in pp.combined.declared)
    tensor_ok = prod.verify_tensor_identity(pp, bound=args.bound,
                                            samples=args.samples, seed=args.seed)
    lines.append(("declared-kernel", "true" if declared_ok else "false"))
    lines.append(("tensor-identity", "true" if tensor_ok else "false"))
    for doc_line in pp.combined.document().splitlines():
        lines.append(("doc", doc_line))
    if args.format == "text":
        print(f"{pp.combined.ring_id}: declared kernel "
              f"{'ok' if declared_ok else 'BROKEN'}, tensor identity "
              f"{'ok' if tensor_ok else 'BROKEN'}", file=out)
        return 0
    _emit(lines, out)
    return 0


def cmd_classify(args, out) -> int:
    sel = args.ring
    if not sel.startswith("principal:"):
        raise ValueError("classify needs a principal:<shape>[:mode] selector")
    rest = sel[len("principal:"):].split(":")
    shape_name = rest[0]
    mode = rest[1] if len(rest) > 1 else "polynomial"
    try:
        shape = PrincipalShape(shape_name)
    except ValueError:
        raise ValueError(f"unknown shape {shape_name!r} (choose from "
                         f"{[s.value for s in PrincipalShape]})")
    ideal = classify_principal(shape, mode)
    if args.format == "text":
        print(f"kernel for shape {shape.value} ({mode}): ({ideal.text()})", file=out)
        return 0
    _emit([("verb", "classify"), ("shape", shape.value), ("mode", mode),
           ("ideal", ideal.text()),
           ("whole-ring", "true" if ideal.whole_ring else "false")], out)
    return 0


def _emit(lines, out) -> None:
    for key, value in lines:
        print(f"{key}: {value}", file=out)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="minkring",
                                  description="exact Minkowski-ring queries")
    sub = top.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("structured", "text"),
                       default="structured")

    p = sub.add_parser("member", help="kernel membership of a polynomial")
    p.add_argument("--ring", required=True)
    p.add_argument("payload", help="polynomial text, or - for stdin")
    add_format(p)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("euler", help="Euler characteristic of the image")
    p.add_argument("--ring", required=True)
    p.add_argument("payload")
    add_format(p)
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("normalize", help="normal forms of a grid polygon")
    p.add_argument("--gridset", required=True,
                   help="bounds, e.g. 'u:0..1,v:0..1,s:0..2'")
    add_format(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("tile", help="tiling of a generator power")
    p.add_argument("--axis", choices=("z", "y1", "y2", "y3", "y"), default="z")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=cmd_tile)

    p = sub.add_parser("identity", help="face-cover identity check")
    p.add_argument("--polytope", required=True)
    p.add_argument("--cover", required=True,
                   help="comma list of face labels, e.g. 'edge:OA,vertex:B'")
    add_format(p)
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("minimal-covers", help="minimal antichain covers")
    p.add_argument("--polytope", required=True)
    add_format(p)
    p.set_defaults(fn=cmd_minimal_covers)

    p = sub.add_parser("product", help="combine two face presentations")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("classify", help="kernel of a single closed convex set")
    p.add_argument("--ring", required=True,
                   help="principal:<shape>[:mode], shapes: empty, origin, "
                        "self-similar, bounded")
    add_format(p)
    p.set_defaults(fn=cmd_classify)

    return top


@lru_cache(maxsize=1)
def _cached_parser() -> argparse.ArgumentParser:
    """One parser for every ``main`` call: building it takes milliseconds,
    parsing tens of microseconds, and ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _cached_parser().parse_args(argv)
    try:
        return args.fn(args, out)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
