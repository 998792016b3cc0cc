"""Command-line front end.

Verbs: member, normalize, tile, identity, minimal-covers, euler, product,
classify.  There is one report path: each ``cmd_*`` verb takes the parsed
arguments and returns its report, as ordered ``(key, value)`` pairs, and
the lines of its ``--format text`` answer.  ``main`` alone does the I/O: it
parses the arguments, reads a ``-`` payload from stdin, calls the verb and
prints either the report as line-delimited ``key: value`` lines (stable
field names, so they diff cleanly) or the text lines.  Exit status is 0
when the query ran (regardless of the boolean answer) and 1 on every
error, malformed arguments included, with one ``error:`` line on stderr.

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
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache

from . import geometry as geo
from . import identities as ids
from . import products as prod
from . import rewriting as rw
from . import simplefn as sf
from .laurent import LaurentPoly, fold_terms, mono_mul, monomial
from .presentations import (Presentation, PrincipalShape, box_ring,
                            classify_principal, coxeter_ring, interval_ring,
                            point_ring)
from .scalars import Scalar


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# polynomial parser

# A factor chain (numbers and names with integer powers, joined by '*' or by
# nothing) is one token: its factors end where their tokens would, and it never
# ends before a '^'.  A '^' with an integer is one pow token, so no chain
# starts at its digits.  The rest is read token by token.
_POW = r"\^\s*([+-]?)\s*(\d+)(?![\d/])"
_FACTOR = rf"(?:\d+(?:/\d+)?(?![\d/])|[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])(?:\s*{_POW})?)"
_TOKEN = re.compile(rf"(?P<chain>{_FACTOR}(?:\s*\*?\s*{_FACTOR})*(?!\s*\^))|(?P<pow>{_POW})"
                    r"|(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*^()])|(?P<bad>\S)")
_CHAIN_FACTOR = re.compile(rf"(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)(?:\s*{_POW})?")
_MAX_NESTING = 100


class _Parser:
    """Recursive descent over the token list, a factor chain one token.  Each
    term is folded once: its numbers into one coefficient (an ``int`` unless
    a number has a '/'), its names into one exponent dict, and only its
    parenthesised factors are multiplied as polynomials.  An expression folds
    the signed (monomial, coefficient) pairs of all its terms into one dict."""

    def __init__(self, text: str, names=None):
        self.text, self.tokens = text, []  # (kind, value, position)
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", m.start())
            self.tokens.append((kind, "^" if kind == "pow" else m.group(), m.start()))
        self.tokens.append(("end", "", len(text)))
        self.i = self.depth = 0
        self.names = set(names) if names is not None else None

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> LaurentPoly:
        poly = self.expr()
        kind, val, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return poly

    def expr(self) -> LaurentPoly:
        pairs, sign, tokens = [], 1, self.tokens
        kind, val, _ = tokens[self.i]
        if kind == "op" and val in "+-":
            self.i += 1
            sign = -1 if val == "-" else 1
        while True:
            self.term(sign, pairs)
            kind, val, _ = tokens[self.i]
            if not (kind == "op" and val in "+-"):
                return fold_terms(pairs)
            self.i += 1
            sign = -1 if val == "-" else 1

    def term(self, coeff: int, pairs: list) -> None:
        """Append the (monomial, coefficient) pairs of one term, times coeff."""
        exps, poly, tokens = {}, None, self.tokens
        while True:
            kind, val, pos = self.next()
            if kind == "chain" or kind == "num":
                coeff = self.chain(val, pos, coeff, exps)
            elif kind == "name":
                if self.names is not None and val not in self.names:
                    raise ParseError(f"unknown name {val!r}", pos)
                exps[val] = exps.get(val, 0) + self.power()
            elif kind == "op" and val == "(":
                inner = self.group(pos)
                poly = inner if poly is None else poly * inner
            else:
                raise ParseError(f"unexpected token {val!r}", pos)
            kind, val, _ = tokens[self.i]
            if kind == "op" and val == "*":
                self.i += 1
            elif not (kind in ("chain", "num", "name") or (kind == "op" and val == "(")):
                break
        mono = monomial(exps)
        if poly is None:
            pairs.append((mono, coeff))
        else:
            pairs.extend((mono_mul(m, mono), c * coeff) for m, c in poly.terms.items())

    def chain(self, text: str, pos: int, coeff, exps: dict):
        """coeff times the numbers of a chain (or number) at pos, its powers
        added to exps; each factor is checked in turn."""
        for m in _CHAIN_FACTOR.finditer(text):
            num, name, sign, digits = m.groups()
            if name:
                if self.names is not None and name not in self.names:
                    raise ParseError(f"unknown name {name!r}", pos + m.start())
                exps[name] = exps.get(name, 0) + (int(sign + digits) if digits else 1)
            elif "/" not in num:
                coeff *= int(num)
            else:
                try:
                    coeff *= Fraction(num)
                except ZeroDivisionError:
                    raise ParseError("zero denominator", pos + m.start()) from None
        return coeff

    def power(self) -> int:
        """The exponent after an optional '^', else 1.  A '^' that is not a
        pow token has no integer after it, so the exponent fails at the token
        after it and its optional sign."""
        kind, val, pos = self.tokens[self.i]
        if kind == "pow":
            self.i += 1
            return int("".join(re.compile(_POW).match(self.text, pos).groups()))
        if kind == "op" and val == "^":
            self.i += 2 if self.tokens[self.i + 1][:2] in (("op", "+"), ("op", "-")) else 1
            raise ParseError("expected an integer exponent", self.tokens[self.i][2])
        return 1

    def group(self, pos: int) -> LaurentPoly:
        """A parenthesised subexpression, its '(' at pos already read, with
        its optional power."""
        # Each level recurses through expr, term and group; the limit keeps
        # the stack far from Python's recursion limit.
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING}", pos)
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        kind, val, at = self.next()
        if kind != "op" or val != ")":
            raise ParseError("expected ')'", at)
        caret = self.tokens[self.i][2]
        exp = self.power()
        if exp < 0 and not inner.is_monomial():
            raise ParseError("negative power of a non-monomial", caret)
        return inner if exp == 1 else inner**exp


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
    total = Scalar.of(0)
    for t in re.split(r"(?!^)(?=[+-])", s):  # signed terms
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


def _endpoints(sel: str, body: str) -> tuple:
    """The two scalars ``a,b`` of an interval selector ``sel``."""
    ends = body.split(",")
    if len(ends) != 2:
        raise ValueError(f"interval selector needs two endpoints: {sel!r}")
    return parse_scalar(ends[0]), parse_scalar(ends[1])


def ring_from_selector(sel: str) -> Presentation:
    if sel == "coxeter":
        return coxeter_ring()
    if sel.startswith("interval:"):
        body, *options = sel[len("interval:"):].split(":")
        a, b = _endpoints(sel, body)
        mode, naming = "polynomial", "auto"
        for extra in options:
            if extra in ("polynomial", "laurent"):
                mode = extra
            elif extra == "xyz":
                naming = "xyz"
            else:
                raise ValueError(f"unknown interval option {extra!r}")
        return interval_ring(a, b, mode=mode, naming=naming)
    if sel.startswith("box:"):
        d, *options = sel[len("box:"):].split(":")
        for extra in options:
            if extra != "signed":
                raise ValueError(f"unknown box option {extra!r}")
        return box_ring(int(d), signed="signed" in options)
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


# catalog polytope -> its face label table, the polytope itself as "self"
_CATALOG = {
    "triangle": {
        "vertex:O": geo.grid_point_set(0, 0),
        "vertex:A": geo.grid_point_set(1, 0),
        "vertex:B": geo.grid_point_set(0, 1),
        "edge:OA": geo.grid_set(0, 1, 0, 0, 0, 1),
        "edge:OB": geo.grid_set(0, 0, 0, 1, 0, 1),
        "edge:AB": geo.grid_set(0, 1, 0, 1, 1, 1),
        "self": geo.unit_triangle(),
    },
    "square": {
        "vertex:00": geo.box_point((0, 0)),
        "vertex:10": geo.box_point((1, 0)),
        "vertex:01": geo.box_point((0, 1)),
        "vertex:11": geo.box_point((1, 1)),
        "edge:bottom": geo.box((0, 0), (1, 0)),
        "edge:top": geo.box((0, 1), (1, 1)),
        "edge:left": geo.box((0, 0), (0, 1)),
        "edge:right": geo.box((1, 0), (1, 1)),
        "self": geo.box((0, 0), (1, 1)),
    },
}


def catalog_polytope(name: str):
    """(polytope, face label table) for the identity verbs."""
    if name in _CATALOG:
        table = dict(_CATALOG[name])
        return table["self"], table
    if name.startswith("interval:"):
        a, b = _endpoints(name, name[len("interval:"):])
        seg = geo.interval(a, b)
        table = {"vertex:lo": geo.line_point(a), "vertex:hi": geo.line_point(b),
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
    return face.ambient.text(face)


# ---------------------------------------------------------------------------
# verbs: each returns its report, as (key, value) pairs in print order, and
# the lines of its ``--format text`` answer


def cmd_member(args):
    ring = ring_from_selector(args.ring)
    poly = parse_poly(args.payload, ring.names())
    witness = ring.kernel_witness(poly)
    canonical = poly.to_text()
    report = [("verb", "member"), ("ring", ring.ring_id), ("input", args.payload),
              ("canonical", canonical), ("result", witness is None)]
    verdict = "in the kernel"
    if witness is not None:
        point = ring.ambient.point_text(witness[0])
        report += [("witness", point), ("value", witness[1])]
        verdict = f"not in the kernel (image is {witness[1]} at {point})"
    return report, [f"{canonical} is {verdict} of {ring.ring_id}"]


def cmd_euler(args):
    ring = ring_from_selector(args.ring)
    poly = parse_poly(args.payload, ring.names())
    value = sf.euler_char(ring.phi(poly))
    canonical = poly.to_text()
    return ([("verb", "euler"), ("ring", ring.ring_id), ("input", args.payload),
             ("canonical", canonical), ("euler", value)],
            [f"euler characteristic of {canonical} in {ring.ring_id}: {value}"])


_GRIDSET_SPEC = re.compile(
    r"^u:(-?\d+)\.\.(-?\d+),v:(-?\d+)\.\.(-?\d+),s:(-?\d+)\.\.(-?\d+)$")


def parse_gridset(text: str) -> geo.GridSet:
    m = _GRIDSET_SPEC.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"grid set spec must look like "
                         f"'u:0..1,v:0..1,s:0..2', got {text!r}")
    u0, u1, v0, v1, s0, s1 = (int(g) for g in m.groups())
    return geo.grid_set(u0, u1, v0, v1, s0, s1)


def cmd_normalize(args):
    s = parse_gridset(args.gridset)
    ring = coxeter_ring()
    params, first = rw.first_normal_form(s)
    pieces = rw.second_normal_form_pieces(s)
    second = rw.second_normal_form(s, pieces)
    target = sf.indicator(s)
    verified = ring.phi(first) == target and ring.phi(second) == target
    first, second = first.to_text(), second.to_text()
    return ([
        ("verb", "normalize"), ("ring", ring.ring_id), ("input", args.gridset),
        ("anchor", f"({params.a}, {params.b})"),
        ("params", f"N={params.N} n1={params.n1} n2={params.n2} n3={params.n3}"
                   f" m1={params.m1} m2={params.m2} m3={params.m3}"),
        ("first", first),
        ("second-open", " + ".join(rw.piece_text(p) for p in pieces)),
        ("second", second), ("verified", verified),
    ], [f"first normal form: {first}", f"second normal form: {second}"])


def cmd_tile(args):
    n = args.n
    ring, tiling = ((coxeter_ring(), rw.triangle_tiling(n)) if args.axis == "z" else
                    (rw.edge_tiling_ring(args.axis), rw.edge_tiling(args.axis, n)))
    ok = ring.kernel_member(LaurentPoly.var(args.axis, n) - tiling)  # the printed tiling
    tiling = tiling.to_text()
    return ([("verb", "tile"), ("ring", ring.ring_id), ("axis", args.axis),
             ("n", n), ("tiling", tiling), ("verified", ok)],
            [f"{args.axis}^{n} = {tiling} ({'verified' if ok else 'FAILED'})"])


def cmd_identity(args):
    polytope, table = catalog_polytope(args.polytope)
    faces = parse_cover(args.cover, table)
    spec = ids.cover(polytope, faces)
    holds = ids.id_holds(spec)
    covers = ids.covers_vertices(spec)
    pres, product_poly, offset = ids.id_context(spec)
    return ([
        ("verb", "identity"),
        ("ring", pres.ring_id if pres is not None else "trivial"),
        ("polytope", args.polytope), ("cover", args.cover),
        ("embedding", f"anchored by offset {offset}"),
        ("product", product_poly.to_text()),
        ("covers", covers), ("holds", holds),
    ], [f"identity {'holds' if holds else 'fails'}; cover "
        f"{'covers' if covers else 'misses'} the vertices"])


def cmd_minimal_covers(args):
    polytope, table = catalog_polytope(args.polytope)
    minimal = ids.minimal_antichains(polytope)
    covers = [", ".join(sorted(face_label(f, table) for f in spec.faces))
              for spec in minimal]
    return ([("verb", "minimal-covers"), ("polytope", args.polytope),
             ("count", len(minimal))] + [("cover", c) for c in covers],
            ["{" + c + "}" for c in covers])


def cmd_product(args):
    pp = product_from_selector(f"product:{args.left},{args.right}")
    declared_ok = all(pp.combined.kernel_member(g) for g in pp.combined.declared)
    tensor_ok = prod.verify_tensor_identity(pp, bound=args.bound,
                                            samples=args.samples, seed=args.seed)
    renames = [(name, name) for name in pp.left_names] + list(pp.right_rename.items())
    return ([("verb", "product"), ("left", pp.left.ring_id),
             ("right", pp.right.ring_id), ("ring", pp.combined.ring_id),
             *[("mapping", f"{orig} -> {renamed}") for orig, renamed in renames],
             ("declared-kernel", declared_ok), ("tensor-identity", tensor_ok),
             *[("doc", line) for line in pp.combined.document().splitlines()]],
            [f"{pp.combined.ring_id}: declared kernel "
             f"{'ok' if declared_ok else 'BROKEN'}, tensor identity "
             f"{'ok' if tensor_ok else 'BROKEN'}"])


def cmd_classify(args):
    sel = args.ring
    if not sel.startswith("principal:"):
        raise ValueError("classify needs a principal:<shape>[:mode] selector")
    shape_name, *rest = sel[len("principal:"):].split(":")
    if len(rest) > 1:
        raise ValueError(f"unknown principal option {rest[1]!r}")
    mode = rest[0] if rest else "polynomial"
    try:
        shape = PrincipalShape(shape_name)
    except ValueError:
        raise ValueError(f"unknown shape {shape_name!r} (choose from "
                         f"{[s.value for s in PrincipalShape]})")
    ideal = classify_principal(shape, mode)
    return ([("verb", "classify"), ("shape", shape.value), ("mode", mode),
             ("ideal", ideal.text()), ("whole-ring", ideal.whole_ring)],
            [f"kernel for shape {shape.value} ({mode}): ({ideal.text()})"])


# ---------------------------------------------------------------------------
# argument parsing and I/O

# verb -> (help, its arguments as (name, add_argument keywords)); every verb
# also takes --format
_REQUIRED = {"required": True}
_VERBS = {
    "member": ("kernel membership of a polynomial", [
        ("--ring", _REQUIRED),
        ("payload", {"help": "polynomial text, or - for stdin"})]),
    "euler": ("Euler characteristic of the image", [
        ("--ring", _REQUIRED), ("payload", {})]),
    "normalize": ("normal forms of a grid polygon", [
        ("--gridset", {"required": True,
                       "help": "bounds, e.g. 'u:0..1,v:0..1,s:0..2'"})]),
    "tile": ("tiling of a generator power", [
        ("--axis", {"choices": ("z", "y1", "y2", "y3", "y"), "default": "z"}),
        ("--n", {"type": int, "required": True})]),
    "identity": ("face-cover identity check", [
        ("--polytope", _REQUIRED),
        ("--cover", {"required": True,
                     "help": "comma list of face labels, e.g. 'edge:OA,vertex:B'"})]),
    "minimal-covers": ("minimal antichain covers", [("--polytope", _REQUIRED)]),
    "product": ("combine two face presentations", [
        ("--left", _REQUIRED), ("--right", _REQUIRED),
        ("--bound", {"type": int, "default": 2}),
        ("--samples", {"type": int, "default": 20}),
        ("--seed", {"type": int, "default": 0})]),
    "classify": ("kernel of a single closed convex set", [
        ("--ring", {"required": True,
                    "help": "principal:<shape>[:mode], shapes: empty, origin, "
                            "self-similar, bounded"})]),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error instead of printing usage and exiting with 2,
    so ``main`` reports it like every other error."""

    def error(self, message):
        raise ValueError(message)


@lru_cache(maxsize=1)
def _parser() -> tuple:
    """The top parser and its parser per verb, for every ``main`` call: building
    them takes milliseconds, parsing tens of microseconds, and none changes."""
    top = _ArgumentParser(prog="minkring", description="exact Minkowski-ring queries")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (help_text, arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.add_argument("--format", choices=("structured", "text"), default="structured")
    return top, sub.choices


def main(argv=None, out=None) -> int:
    """Run one verb, or ``-h``, printing to ``out`` (stdout by default): 0
    when the query ran, 1 with one ``error:`` line on stderr otherwise.  An
    argv that starts with a verb is parsed by that verb's parser alone."""
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    try:
        top, verbs = _parser()
        with redirect_stdout(out):  # -h prints its help to stdout, then exits 0
            if argv and argv[0] in verbs:
                args = verbs[argv[0]].parse_args(argv[1:], argparse.Namespace(verb=argv[0]))
            else:
                args = top.parse_args(argv)
        if getattr(args, "payload", None) == "-":
            args.payload = sys.stdin.read().strip()
        # Looked up at call time, so a wrapper rebound to the module
        # attribute (as perfbench/spans.py does) is the one that runs.
        report, text = globals()["cmd_" + args.verb.replace("-", "_")](args)
    except SystemExit:  # after -h: its help went to out
        return 0
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format != "text":
        text = [f"{key}: {str(value).lower() if isinstance(value, bool) else value}"
                for key, value in report]
    for line in text:
        print(line, file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
