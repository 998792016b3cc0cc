"""Random command lines against the CLI's contract: every argv exits with 0,
or with 1 and exactly one ``error:`` line on stderr, and no exception
escapes ``main``.  The argv mix every verb with the catalog's selectors,
malformed selectors, face labels and payloads of at most four terms with
exponents in -2..3, mostly over the ring's own generator names, now and then
with ``-h`` or ``--help``, which prints the help to ``out`` and exits 0."""

import io
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from minkring.cli import main

GRID = ("x1", "x2", "y1", "y2", "y3", "z")
# ring selector -> its generator names
RINGS = {
    "coxeter": GRID,
    "interval:1,2": ("x", "y", "z"),
    "interval:0,1": ("x", "y"),
    "interval:-1,sqrt2:laurent": ("x", "y", "z"),
    "interval:1,sqrt2:laurent:xyz": ("x", "y", "z"),
    "interval:0,1+sqrt2:polynomial:xyz": ("x", "y", "z"),
    "interval:-1/2,0:laurent": ("x", "y"),
    "box:1": ("x", "y"),
    "box:2:signed": ("x1", "y1", "x2", "y2"),
    "box:4": ("x1", "y1", "x4", "y4"),
    "product:d1,d2": ("x", "y", "x1_r", "y3_r", "z_r"),
    "product:d2,point": GRID + ("u_r",),
    "product:point,d1": ("u", "x_r", "y_r"),
}
BAD_RINGS = ("", "coxeter:x", "grid", "interval:1", "interval:2,1", "interval:1,1",
             "interval:a,b", "interval:1/0,2", "interval:1,2:bogus", "box:0", "box:5",
             "box:x", "box:2:bogus", "product:d1", "product:d1,d9", "principal:empty")
PRINCIPAL = ("principal:empty", "principal:origin:laurent",
             "principal:self-similar:polynomial", "principal:bounded:laurent",
             "principal:bogus", "principal:empty:bogus", "principal:origin:laurent:x",
             "coxeter")
# catalog polytope -> its face labels
POLYTOPES = {
    "triangle": ("vertex:O", "vertex:A", "vertex:B", "edge:OA", "edge:OB", "edge:AB", "self"),
    "square": ("vertex:00", "vertex:10", "vertex:01", "vertex:11", "edge:bottom",
               "edge:top", "edge:left", "edge:right", "self"),
    "interval:-1,sqrt2": ("vertex:lo", "vertex:hi", "self"),
    "interval:0,1": ("vertex:lo", "vertex:hi", "self"),
}
BAD_POLYTOPES = ("interval:2,1", "interval:1", "hexagon", "")
COMPONENTS = ("d1", "d2", "point") * 3 + ("d3", "")


def payloads(names):
    """Mostly up to four signed terms over names, else junk: an unknown
    name, a zero denominator, a parse error or random characters."""
    factor = st.builds(lambda name, exp: name if exp == 1 else f"{name}^{exp}",
                       st.sampled_from(names), st.integers(-2, 3))
    term = st.builds(lambda coeff, factors: "*".join(([coeff] if coeff else []) + factors) or "1",
                     st.sampled_from(("", "2", "3/2", "0")), st.lists(factor, max_size=3))
    terms = st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=4).map(
        lambda ts: " ".join(f"{sign} {t}" for sign, t in ts))
    junk = st.sampled_from(("q", "x + 1/0", "(x", "x^y", "(x+1)^-1", "")) | st.text(
        alphabet="xyz12^-+*()/ $", max_size=12)
    return st.one_of(terms, terms, terms, junk)


ring_queries = st.sampled_from(sorted(RINGS) * 3 + list(BAD_RINGS)).flatmap(
    lambda ring: payloads(RINGS.get(ring, ("x", "y"))).map(
        lambda payload: [("--ring", ring), (None, payload)]))
gridsets = st.builds("u:{}..{},v:{}..{},s:{}..{}".format, *[st.integers(-2, 3)] * 6) | \
    st.sampled_from(("", "u:0..1", "u:0..1,v:0..1,s:0..x"))
RARELY = st.sampled_from((False,) * 19 + (True,))
small = st.sampled_from([str(n) for n in range(-1, 7)] * 2 + ["x", ""])


def options(*pairs):
    """The (flag, value) pairs of one verb, each value drawn from its strategy."""
    return st.tuples(*(st.tuples(st.just(flag), values) for flag, values in pairs)).map(list)


# verb -> its (flag, value) pairs, the flag None for the positional payload
VERBS = {
    "member": ring_queries,
    "euler": ring_queries,
    "normalize": options(("--gridset", gridsets)),
    "tile": options(("--axis", st.sampled_from(("z", "y1", "y2", "y3", "y", "w"))),
                    ("--n", small)),
    "identity": st.sampled_from(sorted(POLYTOPES) * 3 + list(BAD_POLYTOPES)).flatmap(
        lambda name: st.lists(st.sampled_from(POLYTOPES.get(name, ("self",)) + ("edge:XY", "")),
                              min_size=1, max_size=4).map(
            lambda labels: [("--polytope", name), ("--cover", ",".join(labels))])),
    "minimal-covers": options(("--polytope",
                               st.sampled_from(sorted(POLYTOPES) + list(BAD_POLYTOPES)))),
    "product": options(("--left", st.sampled_from(COMPONENTS)),
                       ("--right", st.sampled_from(COMPONENTS)),
                       ("--bound", st.integers(-1, 2).map(str)),
                       ("--samples", st.integers(0, 4).map(str)), ("--seed", small)),
    "classify": options(("--ring", st.sampled_from(PRINCIPAL + BAD_RINGS))),
    "bogus": st.just([]),
}


@st.composite
def command_lines(draw):
    """(argv, stdin): a verb and most of its options, now and then a
    ``--format``, a stray argument, or the payload on stdin."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    argv, stdin = [verb], ""
    for flag, value in draw(VERBS[verb]):
        if draw(RARELY):  # left out, required or not
            continue
        if flag is None and draw(st.booleans()):
            value, stdin = "-", value
        argv += [value] if flag is None else [flag, value]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("text", "structured", "text", "yaml")))]
    if draw(RARELY):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("--bogus", "extra", "-h", "--help"))))
    return argv, stdin


@settings(max_examples=500, deadline=None)
@given(command=command_lines())
def test_every_command_line_answers_or_fails_with_one_error_line(command):
    argv, stdin = command
    out, err, stdout = io.StringIO(), io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(stdout), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        code = main(argv, out)
    lines = err.getvalue().splitlines()
    event(f"{argv[0]} exit {code}")
    assert not stdout.getvalue(), argv  # every answer goes to out
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    else:
        assert code == 0 and not lines, (argv, code, lines)
        if "-h" in argv or "--help" in argv:
            event("help")
            assert out.getvalue().startswith("usage: minkring"), argv
