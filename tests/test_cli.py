import io
import random
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkring import cli
from minkring.cli import (ParseError, main, parse_gridset, parse_poly,
                          parse_scalar)
from minkring.laurent import LaurentPoly, poly_sum
from minkring.scalars import Scalar

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


# -- parser --------------------------------------------------------------------


def test_parse_worked_examples():
    f = parse_poly("y1^2*y2^2 - z^2 + x1*(z - y2) + x2*(z - y1)")
    assert len(f.terms) == 6
    assert f == parse_poly("y1^2*y2^2") - parse_poly("z^2") + \
        parse_poly("x1*z") - parse_poly("x1*y2") + parse_poly("x2*z") - \
        parse_poly("x2*y1")
    assert parse_poly("1") == LaurentPoly.const(1)
    g = parse_poly("x1*x2*z^-1 + x2*y1 + x1*y2 + y3 - x1 - x2 - x1*x2")
    assert len(g.terms) == 7


def test_parse_coefficients_and_implicit_multiplication():
    assert parse_poly("3/2*x") == LaurentPoly.term({"x": 1}, Fraction(3, 2))
    assert parse_poly("2 x y") == LaurentPoly.term({"x": 1, "y": 1}, 2)
    assert parse_poly("(x - 1)(x + 1)") == parse_poly("x^2 - 1")
    assert parse_poly("(x*y)^-2") == LaurentPoly.term({"x": -2, "y": -2})
    assert parse_poly("x^0") == LaurentPoly.const(1)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x + ")
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_poly("x^y")
    with pytest.raises(ParseError):
        parse_poly("(x + 1")
    with pytest.raises(ParseError):
        parse_poly("x $ y")
    with pytest.raises(ParseError):
        parse_poly("(x + 1)^-1")
    with pytest.raises(ParseError):
        parse_poly("q + 1", names={"x", "y"})


def test_roundtrip_randomized():
    rng = random.Random(7)
    names = ["x1", "x2", "y1", "y2", "y3", "z"]
    for _ in range(300):
        poly = LaurentPoly.zero()
        for _ in range(rng.randint(0, 5)):
            exps = {rng.choice(names): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 3))}
            poly = poly + LaurentPoly.term(
                exps, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        assert parse_poly(poly.to_text()) == poly


def test_parse_scalar():
    assert parse_scalar("2") == Scalar.of(2)
    assert parse_scalar("-1/2") == Scalar.of(Fraction(-1, 2))
    assert parse_scalar("sqrt2") == Scalar.sqrt2()
    assert parse_scalar("1+sqrt2") == Scalar.of(1) + Scalar.sqrt2()
    assert parse_scalar("3/2*sqrt2") == Scalar.sqrt2(Fraction(3, 2))
    assert parse_scalar("1-2sqrt2") == Scalar.of(1) - Scalar.sqrt2(2)
    with pytest.raises(ValueError):
        parse_scalar("sqrt3")


def test_parse_gridset():
    g = parse_gridset("u:0..1,v:0..1,s:0..2")
    assert g.bounds() == (0, 1, 0, 1, 0, 2)
    with pytest.raises(ValueError):
        parse_gridset("u:0..1")


# -- the one-fold parser against a token-by-token oracle -------------------------


_ORACLE_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                           r"|(?P<op>[-+*^()]))")


class OracleParser:
    """The same grammar, parsed factor by factor: every number, name and
    group becomes a polynomial, a term is their running product and an
    expression the sum of its terms.  Tokens are matched one at a time."""

    def __init__(self, text, names=None):
        self.tokens, pos = [], 0
        while pos < len(text):
            m = _ORACLE_TOKEN.match(text, pos)
            if not m:
                rest = text[pos:].lstrip()
                if rest:
                    raise ParseError(f"unexpected character {rest[0]!r}",
                                     len(text) - len(rest))
                break
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i, self.depth = 0, 0
        self.names = set(names) if names is not None else None

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def parse(self):
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return poly

    def expr(self):
        terms, sign = [], "+"
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = val
        while True:
            term = self.term()
            terms.append(-term if sign == "-" else term)
            kind, sign, _ = self.peek()
            if not (kind == "op" and sign in "+-"):
                return poly_sum(terms)
            self.next()

    def term(self):
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

    def exponent(self):
        sign = 1
        kind, val, pos = self.next()
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val, pos = self.next()
        if kind != "num" or "/" in val:
            raise ParseError("expected an integer exponent", pos)
        return sign * int(val)

    def factor(self):
        kind, val, pos = self.next()
        if kind == "num":
            try:
                return LaurentPoly.const(Fraction(val))
            except ZeroDivisionError:
                raise ParseError("zero denominator", pos) from None
        if kind == "name":
            if self.names is not None and val not in self.names:
                raise ParseError(f"unknown name {val!r}", pos)
            exp = 1
            if self.peek()[:2] == ("op", "^"):
                self.next()
                exp = self.exponent()
            return LaurentPoly.var(val, exp) if exp else LaurentPoly.const(1)
        if kind == "op" and val == "(":
            if self.depth == 100:
                raise ParseError("nesting deeper than 100", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind2, val2, pos2 = self.next()
            if kind2 != "op" or val2 != ")":
                raise ParseError("expected ')'", pos2)
            kind2, val2, pos2 = self.peek()
            if kind2 == "op" and val2 == "^":
                self.next()
                exp = self.exponent()
                if exp < 0 and not inner.is_monomial():
                    raise ParseError("negative power of a non-monomial", pos2)
                return inner**exp
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def _outcome(parse):
    """Canonical text and coefficient types of a parse, or its exception's
    type and message."""
    try:
        poly = parse()
    except Exception as exc:  # the two parsers must fail alike, whatever the error
        return type(exc), str(exc)
    return poly.to_text(), [type(c) for _, c in poly.sorted_terms()]


# Exponents come only from "0", "^2 " and "^-1 ", so no run of digits can
# raise a group to a large power.
PARSER_ALPHABET = ["x", "y", "z1", "0", "1/2", "3/0", "^", "^-", "^2 ", "^-1 ",
                   "+", "-", "*", "(", ")", " ", "  ", "$"]




def _expressions(factors):
    """Signed sums of terms of the factors, separated in every way the
    grammar allows."""
    term = st.lists(st.tuples(st.sampled_from(["*", " ", " * ", ""]), factors),
                    min_size=1, max_size=3).map(
        lambda fs: "".join(sep + f for sep, f in fs)[len(fs[0][0]):])
    return st.lists(st.tuples(st.sampled_from(["+", "-", " - ", ""]), term),
                    min_size=1, max_size=3).map(
        lambda ts: "".join(sign + t for sign, t in ts))


# Mostly well-formed polynomials, some with one token of the alphabet put in.
WELL_FORMED = _expressions(st.recursive(
    st.sampled_from(["x", "y", "z1", "x^2", "y^-1", "z1^0", "0", "2", "1/2", "3/0"]),
    lambda inner: st.tuples(_expressions(inner), st.sampled_from(["", "^2", "^-1", "^0"]))
    .map(lambda g: f"({g[0]}){g[1]}"), max_leaves=6))


@st.composite
def parser_inputs(draw):
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(PARSER_ALPHABET), max_size=24)))
    text = draw(WELL_FORMED)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(PARSER_ALPHABET)) + text[i:]
    return text


@settings(max_examples=400, deadline=None)
@given(parser_inputs(), st.sampled_from([None, {"x", "y"}]))
def test_parser_matches_token_by_token_oracle(text, names):
    assert _outcome(lambda: parse_poly(text, names)) == \
        _outcome(lambda: OracleParser(text, names).parse())


# A factor chain is read as one token; each case is a chain with spaces or a
# malformed power, which must parse, or fail, as its tokens one by one do.
CHAIN_CASES = [
    ("2 x y", "2*x*y"),
    ("x ^ - 2", "x^-2"),
    ("2x*y^3 - 1/2 y", "2*x*y^3 - 1/2*y"),
    ("x ^+2 y\t^ 3 3", "3*x^2*y^3"),
    ("(x)^2 y", "x^2*y"),
    ("x^1/2", (ParseError, "expected an integer exponent (at position 2)")),
    ("x^2^3", (ParseError, "trailing input '^' (at position 3)")),
    ("x ^ y", (ParseError, "expected an integer exponent (at position 4)")),
    ("x^(2)", (ParseError, "expected an integer exponent (at position 2)")),
    ("x^-2/3 + y", (ParseError, "expected an integer exponent (at position 3)")),
    ("2^3", (ParseError, "trailing input '^' (at position 1)")),
    ("x*^2", (ParseError, "unexpected token '^' (at position 2)")),
    ("x^2/", (ParseError, "unexpected character '/' (at position 3)")),
    ("x y 3/0 q", (ParseError, "zero denominator (at position 4)")),
    ("y x^2 q^3", (ParseError, "unknown name 'q' (at position 6)")),
]


@pytest.mark.parametrize("text,expected", CHAIN_CASES)
def test_factor_chains_parse_as_their_tokens(text, expected):
    outcome = _outcome(lambda: parse_poly(text, {"x", "y"}))
    assert outcome == _outcome(lambda: OracleParser(text, {"x", "y"}).parse())
    assert (outcome[0] if isinstance(expected, str) else outcome) == expected


# -- golden reports --------------------------------------------------------------


GOLDEN_CASES = [
    ("member_g1.txt", ["member", "--ring", "coxeter", "(y1-1)*(y1-x1)"]),
    ("member_x1.txt", ["member", "--ring", "coxeter", "x1"]),
    ("identity_triangle.txt",
     ["identity", "--polytope", "triangle", "--cover", "edge:OA,vertex:B"]),
    ("member_x1_text.txt", ["member", "--ring", "coxeter", "x1", "--format", "text"]),
    ("euler_coxeter.txt", ["euler", "--ring", "coxeter", "z + y1"]),
    ("euler_coxeter_text.txt",
     ["euler", "--ring", "coxeter", "z + y1", "--format", "text"]),
    ("normalize_rhombus.txt", ["normalize", "--gridset", "u:0..1,v:0..1,s:0..2"]),
    ("normalize_rhombus_text.txt",
     ["normalize", "--gridset", "u:0..1,v:0..1,s:0..2", "--format", "text"]),
    ("tile_y3.txt", ["tile", "--axis", "y", "--n", "3"]),
    ("tile_y3_text.txt", ["tile", "--axis", "y", "--n", "3", "--format", "text"]),
    ("identity_triangle_text.txt",
     ["identity", "--polytope", "triangle", "--cover", "edge:OA,vertex:B",
      "--format", "text"]),
    ("minimal_covers_triangle.txt", ["minimal-covers", "--polytope", "triangle"]),
    ("minimal_covers_triangle_text.txt",
     ["minimal-covers", "--polytope", "triangle", "--format", "text"]),
    ("product_d1_d2.txt",
     ["product", "--left", "d1", "--right", "d2", "--samples", "5"]),
    ("product_d1_d2_text.txt",
     ["product", "--left", "d1", "--right", "d2", "--samples", "5",
      "--format", "text"]),
    ("classify_self_similar.txt",
     ["classify", "--ring", "principal:self-similar:laurent"]),
    ("classify_self_similar_text.txt",
     ["classify", "--ring", "principal:self-similar:laurent", "--format", "text"]),
    ("member_product_open_prism.txt",
     ["member", "--ring", "product:d1,d2",
      "(y - 1 - x)*(z_r - y1_r - y2_r - y3_r + 1 + x1_r + x2_r)"]),
    # the line orders points by (p, q), not by value: sqrt2 comes before 1,
    # as the least vertex and as the witness where z is 1 at both
    ("identity_interval_sqrt2.txt",
     ["identity", "--polytope", "interval:1,sqrt2", "--cover", "vertex:lo,vertex:hi"]),
    ("member_interval_sqrt2.txt",
     ["member", "--ring", "interval:1,sqrt2:laurent", "z - x"]),
    ("member_interval_sqrt2_z.txt",
     ["member", "--ring", "interval:1,sqrt2:laurent", "z"]),
]


@pytest.mark.parametrize("fname,argv", GOLDEN_CASES)
def test_golden_reports(fname, argv):
    code, text = run(argv)
    assert code == 0
    assert text.encode() == (GOLDEN / fname).read_bytes()


# -- verbs -------------------------------------------------------------------------


def test_member_exit_status_is_zero_for_false():
    code, text = run(["member", "--ring", "coxeter", "x1"])
    assert code == 0
    assert "result: false" in text


def test_member_interval_ring():
    code, text = run(["member", "--ring", "interval:1,sqrt2:laurent",
                      "(z-x)*(z-y)"])
    assert code == 0 and "result: true" in text
    code, text = run(["member", "--ring", "interval:1,2", "y - x^2"])
    assert code == 0 and "result: true" in text


def test_member_errors_exit_nonzero(capsys):
    assert main(["member", "--ring", "coxeter", "q + 1"], io.StringIO()) == 1
    assert main(["member", "--ring", "nope", "x"], io.StringIO()) == 1
    assert main(["member", "--ring", "box:1", "y^-1"], io.StringIO()) == 1
    capsys.readouterr()


def test_deep_nesting_is_a_one_line_error(capsys):
    text = "(" * 400 + "(z-1)*(z-y3)" + ")" * 400
    code, report = run(["member", "--ring", "coxeter", text])
    err = capsys.readouterr().err
    assert code == 1 and report == ""
    assert err.splitlines() == ["error: nesting deeper than 100 (at position 100)"]
    shallow = "(" * 99 + "(z-1)*(z-y3)" + ")" * 99
    code, report = run(["member", "--ring", "coxeter", shallow])
    assert code == 0 and "result: true" in report.splitlines()


def test_consecutive_calls_match_golden_reports():
    for fname, argv in GOLDEN_CASES + GOLDEN_CASES[::-1]:
        code, text = run(argv)
        assert code == 0
        assert text.encode() == (GOLDEN / fname).read_bytes()


def test_euler_verb():
    code, text = run(["euler", "--ring", "coxeter", "z + y1"])
    assert code == 0
    assert "euler: 2" in text


def test_normalize_verb():
    code, text = run(["normalize", "--gridset", "u:0..1,v:0..1,s:0..2"])
    assert code == 0
    assert "params: N=2 n1=1 n2=1 n3=0 m1=1 m2=1 m3=0" in text
    assert "verified: true" in text
    assert ("second-open: 1 + x2 + x1 + x1*x2 + y1o + x2*y1o + y2o + x1*y2o"
            " + y3o + zo + x1*x2*z^-1") in text


def test_tile_verb():
    code, text = run(["tile", "--axis", "z", "--n", "2"])
    assert code == 0 and "verified: true" in text
    code, text = run(["tile", "--axis", "y", "--n", "3"])
    assert code == 0 and "verified: true" in text


def test_minimal_covers_verb():
    code, text = run(["minimal-covers", "--polytope", "triangle"])
    assert code == 0
    assert "count: 6" in text
    assert "cover: edge:OA, vertex:B" in text
    code, text = run(["minimal-covers", "--polytope", "interval:0,1"])
    assert code == 0 and "count: 1" in text


def test_product_verb():
    code, text = run(["product", "--left", "d1", "--right", "d2",
                      "--samples", "5"])
    assert code == 0
    assert "declared-kernel: true" in text
    assert "tensor-identity: true" in text
    assert "mapping: z -> z_r" in text
    assert "doc: minkring-presentation v1" in text


def test_classify_verb():
    code, text = run(["classify", "--ring", "principal:empty"])
    assert code == 0 and "ideal: x" in text
    code, text = run(["classify", "--ring", "principal:self-similar:laurent"])
    assert code == 0 and "ideal: x - 1" in text
    code, text = run(["classify", "--ring", "principal:bounded"])
    assert code == 0 and "ideal: 0" in text


def test_text_format():
    code, text = run(["member", "--ring", "coxeter", "x1", "--format", "text"])
    assert code == 0
    assert "not in the kernel" in text


def test_member_reads_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("(z-1)*(z-y3)\n"))
    code, text = run(["member", "--ring", "coxeter", "-"])
    assert code == 0
    assert "result: true" in text


def test_member_product_ring_selector():
    code, text = run(["member", "--ring", "product:d1,d1", "(y_r-1)*(y_r-x_r)"])
    assert code == 0
    assert "result: true" in text


def test_zero_denominator_is_a_one_line_error(capsys):
    with pytest.raises(ParseError) as err:
        parse_poly("z + 3/00")
    assert err.value.pos == 4
    with pytest.raises(ValueError, match=r"zero denominator in scalar term '\+1/0'"):
        parse_scalar("sqrt2 + 1/0")
    for argv in (["member", "--ring", "coxeter", "1/0"],
                 ["member", "--ring", "interval:1/0,2", "x"]):
        code, report = run(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and report == ""
        assert len(err) == 1 and "zero denominator" in err[0]


def test_usage_errors_are_one_line_errors(capsys):
    for argv, message in (
            (["tile", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["member"], "the following arguments are required: --ring, payload"),
            (["frobnicate"], "argument verb: invalid choice: 'frobnicate'"),
            ([], "the following arguments are required: verb")):
        code, report = run(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and report == ""
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
    for argv in (["--help"], ["member", "-h"], ["identity", "--polytope", "square", "--help"]):
        out = io.StringIO()
        assert main(argv, out) == 0
        assert out.getvalue().startswith("usage: minkring")
        assert capsys.readouterr() == ("", "")  # nothing on stdout or stderr


@pytest.mark.parametrize("argv,message", [
    (["member", "--ring", "box:2:foo", "x1"], "unknown box option 'foo'"),
    (["member", "--ring", "box:1:signed:bar", "x"], "unknown box option 'bar'"),
    (["member", "--ring", "interval:1,2,3", "x"],
     "interval selector needs two endpoints: 'interval:1,2,3'"),
    (["identity", "--polytope", "interval:1,2,3", "--cover", "self"],
     "interval selector needs two endpoints: 'interval:1,2,3'"),
    (["minimal-covers", "--polytope", "interval:1"],
     "interval selector needs two endpoints: 'interval:1'"),
    (["product", "--left", "d1", "--right", "d2", "--samples", "-3"],
     "sample count must be nonnegative, got -3"),
])
def test_malformed_selectors_are_one_line_errors(argv, message, capsys):
    code, report = run(argv)
    assert code == 1 and report == ""
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_bad_character_is_reported_where_it_stands(capsys):
    for text, pos in (("x1 $ y1", 3), ("x1$y1", 2), ("x1 + \t #", 7), ("  !x", 2)):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.pos == pos
        assert str(err.value) == f"unexpected character {text[pos]!r} (at position {pos})"
    code, report = run(["member", "--ring", "coxeter", "x1 $ y1"])
    assert code == 1 and report == ""
    assert capsys.readouterr().err.splitlines() == [
        "error: unexpected character '$' (at position 3)"]
    assert parse_poly(" x1 +  x2  ") == parse_poly("x1+x2")


def test_classify_rejects_trailing_selector_parts(capsys):
    for sel, extra in (("principal:empty:laurent:junk", "junk"),
                       ("principal:origin:polynomial:xyz:1", "xyz")):
        code, report = run(["classify", "--ring", sel])
        assert code == 1 and report == ""
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown principal option {extra!r}"]


def _top_parser_outcome(argv):
    """What the top parser alone makes of argv: its arguments, its help
    text, or main's one-line error."""
    top, _ = cli._parser()
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return "args", vars(top.parse_args(argv))
    except SystemExit:
        return "help", out.getvalue()
    except ValueError as exc:
        return "error", f"error: {exc}\n"


def _main_outcome(argv, monkeypatch, capsys):
    """What main makes of argv, each verb replaced by one that keeps its
    arguments."""
    seen = []
    for verb in cli._VERBS:
        monkeypatch.setattr(cli, "cmd_" + verb.replace("-", "_"),
                            lambda args: seen.append(vars(args)) or ([], []))
    out = io.StringIO()
    code = main(argv, out)
    err = capsys.readouterr().err
    if seen:
        return "args", seen[0]
    return ("help", out.getvalue()) if code == 0 else ("error", err)


_FULL_ARGV = {
    "member": ["--ring", "coxeter", "z - 1"],
    "euler": ["--ring", "box:1", "x*y"],
    "normalize": ["--gridset", "u:0..1,v:0..1,s:0..2"],
    "tile": ["--axis", "y2", "--n", "3"],
    "identity": ["--polytope", "square", "--cover", "edge:top,vertex:00"],
    "minimal-covers": ["--polytope", "triangle"],
    "product": ["--left", "d1", "--right", "d2", "--bound", "1", "--samples", "2",
                "--seed", "5"],
    "classify": ["--ring", "principal:origin"],
}


def test_one_level_parse_matches_the_top_parser(monkeypatch, capsys):
    argvs = [[], ["-h"], ["--help"], ["frobnicate"], ["ident"], ["--format", "text"],
             ["--format", "text", "tile", "--n", "2"], ["tile", "--n", "x"],
             ["tile", "--n", "2", "--axis", "w"], ["tile", "--n"], ["tile", "--n", "-2"],
             ["member", "--ring", "coxeter", "--", "-z"]]
    for verb, rest in _FULL_ARGV.items():
        argvs += [[verb, *rest], [verb, *rest, "--format", "text"], [verb, "-h"],
                  [verb, *rest, "--help"], [verb], [verb, *rest, "extra"],
                  [verb, *rest, "--format", "xml"], [verb, *rest, "--frob"],
                  [verb, *rest[:1]], [verb, *rest[::-1]]]
    kinds = set()
    for argv in argvs:
        expected = _top_parser_outcome(argv)
        assert _main_outcome(argv, monkeypatch, capsys) == expected, argv
        assert expected[0] != "error" or expected[1].count("\n") == 1
        kinds.add(expected[0])
    assert kinds == {"args", "help", "error"}
