"""The step form of simple functions against the cell-dict fold it replaced
(tests/cellfold.py): terms, equality, hash, combine, multiply, evaluation,
the Euler characteristic and the zero test, on lattice ambients whose
operands carry different key widths and on the line, with rational
scalars only and with rational and sqrt2 scalars mixed."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellfold
import minkring.geometry as geo
import minkring.simplefn as sf
from minkring.scalars import Scalar

AMBIENTS = {
    "grid": geo.GRID,
    "box:2": geo.box_arrangement(2),
    "box:3": geo.box_arrangement(3),
    "box:1 x grid": geo.product_arrangement((geo.box_arrangement(1), geo.GRID)),
    "line:rational": geo.LINE,
    "line:sqrt2": geo.LINE,
}
# line ids whose draws mix in scalars with a sqrt2 part
IRRATIONAL = {"line:sqrt2"}

# anchors near 0, +-2^31 and +-2^63: keys packed 32, 64 and 96 bits wide
BASES = (0, (1 << 31) - 3, -(1 << 31) + 3, (1 << 63) - 3, -(1 << 63) + 3)
WEIGHTS = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def lattice_cells(arr, base):
    return st.builds(lambda kind, anchor: kind(*(base + a for a in anchor)),
                     st.sampled_from(arr.kinds),
                     st.tuples(*[st.integers(-2, 2)] * arr.d))


def line_scalars(base, irrational):
    """Scalars around base; with irrational, the sqrt2 part draws from -2..2."""
    sqrt2_part = st.integers(-2, 2) if irrational else st.just(0)
    return st.builds(lambda p, q: Scalar(Fraction(base + p), Fraction(q)),
                     st.integers(-3, 3), sqrt2_part)


def line_cells(base, irrational):
    point = st.builds(geo.Point1D, line_scalars(base, irrational))
    pair = st.lists(line_scalars(base, irrational), min_size=2, max_size=2, unique=True)
    return st.one_of(point, pair.map(lambda ab: geo.OpenInterval1D(*sorted(ab))))


@st.composite
def raw_maps(draw, ambient, irrational=False, max_cells=5):
    """A cell map drawn around one base, with repeated cells whose weights
    may cancel."""
    base = draw(st.sampled_from(BASES))
    cells = (line_cells(base, irrational) if isinstance(ambient, geo.Line)
             else lattice_cells(ambient, base))
    pool = draw(st.lists(cells, min_size=1, max_size=max_cells))
    raw: dict = {}
    for cell, w in draw(st.lists(st.tuples(st.sampled_from(pool), WEIGHTS), max_size=8)):
        raw[cell] = raw.get(cell, 0) + w
    if raw and draw(st.booleans()):  # cancel one cell outright
        cell = draw(st.sampled_from(sorted(raw, key=lambda c: c.sort_key())))
        raw[cell] = 0
    return raw


def points(ambient, maps, width):
    """Points to evaluate at: every cell's representative and a few others,
    among them points whose cell's key at width, unguarded, would overflow
    into the key of a cell of the maps."""
    cells = [c for terms in maps for c in terms]
    xs = [c.representative() for c in cells]
    if isinstance(ambient, geo.Line):
        xs += [c.at + Fraction(1, 2) if isinstance(c, geo.Point1D) else c.hi for c in cells]
    else:
        xs += [c[1:] for c in cells]
        xs += [tuple(a + (1 << 70) for a in c[1:]) for c in cells[:1]]  # beyond every width
        for x in xs[:len(cells)]:  # (..., a - 1, b + 2^width) packs like (..., a, b)
            xs.append(x[:-2] + (x[-2] - 1, x[-1] + (1 << width)))
    return xs


@pytest.mark.parametrize("ambient_id", sorted(AMBIENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_step_form_matches_the_cell_fold(ambient_id, data):
    ambient, irrational = AMBIENTS[ambient_id], ambient_id in IRRATIONAL
    raw_f = data.draw(raw_maps(ambient, irrational))
    raw_g = data.draw(raw_maps(ambient, irrational))
    f, g = sf.SimpleFunction(ambient, raw_f), sf.SimpleFunction(ambient, raw_g)
    ref_f, ref_g = cellfold.canonical(ambient, raw_f), cellfold.canonical(ambient, raw_g)
    assert f.terms == ref_f and g.terms == ref_g
    assert all(type(q) is Fraction for q in f.terms.values())
    assert sf.is_zero(f) == (not ref_f)
    assert (f == g) == (ref_f == ref_g)
    assert hash(f) == hash((ambient, frozenset(ref_f.items())))
    assert sf.euler_char(f) == cellfold.euler_char(ref_f)
    a, b = data.draw(WEIGHTS), data.draw(WEIGHTS)
    assert sf.combine([a, b], [f, g]).terms == cellfold.combine(ambient, [a, b], [ref_f, ref_g])
    assert (f - g).terms == cellfold.combine(ambient, [1, -1], [ref_f, ref_g])
    product = sf.multiply(f, g)
    assert product.terms == cellfold.multiply(ambient, ref_f, ref_g)
    for fn, ref in ((f, ref_f), (g, ref_g)):
        for x in points(ambient, (ref_f, ref_g), fn.width):
            value = sf.evaluate_at(fn, x)
            assert type(value) is Fraction and value == cellfold.evaluate_at(ambient, ref, x)
    if isinstance(ambient, geo.Line):
        assert sf._canonical_line_terms(raw_f) == cellfold.sweep(raw_f)


@pytest.mark.parametrize("ambient_id", sorted(AMBIENTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equality_hash_and_combine_ignore_the_key_width(ambient_id, data):
    ambient, irrational = AMBIENTS[ambient_id], ambient_id in IRRATIONAL
    f = sf.SimpleFunction(ambient, data.draw(raw_maps(ambient, irrational)))
    far = sf.SimpleFunction(ambient, data.draw(raw_maps(ambient, irrational)))
    # f + far - far is f, held at the wider of the two widths
    wide = sf.combine([1, 1, -1], [f, far, far])
    assert wide.width == max(f.width, far.width)
    assert wide == f and f == wide and hash(wide) == hash(f)
    assert wide.terms == f.terms
    assert sf.combine([1, -1], [wide, f]) == sf.zero(ambient)
    assert sf.is_zero(wide - f) and sf.is_zero(f - wide)
    assert (wide + far).terms == (f + far).terms


@pytest.mark.parametrize("ambient_id", ["grid", "box:2", "box:3", "line:sqrt2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_product_over_runs_matches_the_closed_basis_round_trip(ambient_id, data):
    """multiply and multiply_by_indicator, which fold cached shape images
    along f's runs, against the round trip they replace: f's cells in the
    closed basis, times the other factor's, folded back into deltas."""
    ambient, irrational = AMBIENTS[ambient_id], ambient_id in IRRATIONAL

    def polytope():
        """The Minkowski sum of two drawn cells' closures, or of the origin."""
        cells = list(data.draw(raw_maps(ambient, irrational))) or [ambient.origin()]
        pair = data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2))
        return geo.minkowski_sum(*(c if isinstance(c, geo.Polytope) else c.closure()
                                   for c in pair))

    # f gets runs of several cells, one kind and one value, from a polytope's
    # indicator; g may be any function
    f = sf.SimpleFunction(ambient, data.draw(raw_maps(ambient, irrational))) + \
        data.draw(WEIGHTS) * sf.indicator(polytope(), data.draw(
            st.sampled_from(("closed", "interior"))))
    g = sf.SimpleFunction(ambient, data.draw(raw_maps(ambient, irrational)))

    def round_trip(basis):
        return sf.from_closed(ambient, sf.closed_product(sf._closed_basis(f), basis))

    product = sf.multiply(f, g)
    assert product == round_trip(sf._closed_basis(g))
    assert all(type(q) is Fraction for q in product.deltas.values())
    p = polytope()
    assert sf.multiply_by_indicator(f, p) == round_trip({p: 1})
