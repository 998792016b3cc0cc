import dataclasses
import itertools
import random

import pytest

import minkring.geometry as geo
from minkring.cli import parse_poly
from minkring.laurent import LaurentPoly
from minkring.presentations import box_ring, coxeter_ring, point_ring
from minkring.products import (_monomials_up_to, product_presentation, psi_split,
                               random_ideal_element, rename_poly,
                               verify_tensor_identity)
from conftest import well_formed


def d1():
    return box_ring(1, signed=True)


def test_segment_times_segment_is_the_2_box():
    pp = product_presentation(d1(), d1())
    assert pp.combined.names() == ("x", "y", "x_r", "y_r")
    assert [g.to_text() for g in pp.combined.declared] == [
        "y^2 - x*y - y + x", "y_r^2 - x_r*y_r - y_r + x_r"]
    for g in pp.combined.declared:
        assert pp.combined.kernel_member(g)
    # the pair monomial x*y_r is the face {1} x [0,1] of the square
    img = pp.combined.phi(parse_poly("x*y_r", pp.combined.names()))
    expected = geo.product(geo.box_point((1,)), geo.box((0,), (1,)))
    import minkring.simplefn as sf
    assert img == sf.indicator(expected)


def test_product_with_point_keeps_the_ring():
    pp = product_presentation(coxeter_ring(), point_ring())
    assert pp.right_rename == {"u": "u_r"}
    assert pp.combined.kernel_member(parse_poly("u_r - 1"))
    for g in coxeter_ring().declared:
        assert pp.combined.kernel_member(g)


def test_face_count_multiplies():
    prism = geo.product(geo.unit_triangle(), geo.box((0,), (1,)))
    assert len(geo.faces(prism)) == len(geo.faces(geo.unit_triangle())) * \
        len(geo.faces(geo.box((0,), (1,))))


def test_segment_times_triangle_ten_generators():
    pp = product_presentation(d1(), coxeter_ring())
    texts = {g.to_text() for g in pp.combined.declared}
    expected = {
        "y^2 - x*y - y + x",
        "y1_r^2 - x1_r*y1_r - y1_r + x1_r",
        "y2_r^2 - x2_r*y2_r - y2_r + x2_r",
        "y3_r^2 - x2_r*y3_r - x1_r*y3_r + x1_r*x2_r",
        "z_r^2 - y3_r*z_r - z_r + y3_r",
        "z_r^2 - y2_r*z_r - x1_r*z_r + x1_r*y2_r",
        "z_r^2 - y1_r*z_r - x2_r*z_r + x2_r*y1_r",
        "z_r^2 - y2_r*z_r - y1_r*z_r + y1_r*y2_r",
        "z_r^2 - y3_r*z_r - y1_r*z_r + y1_r*y3_r",
        "z_r^2 - y3_r*z_r - y2_r*z_r + y2_r*y3_r",
    }
    assert texts == expected
    assert len(pp.combined.declared) == 10
    for g in pp.combined.declared:
        assert pp.combined.kernel_member(g)


def test_prism_declared_ideal_is_base_plus_one_relation():
    pp = product_presentation(coxeter_ring(), d1())
    base = list(coxeter_ring().declared)
    extra = rename_poly(d1().declared[0], {"x": "x_r", "y": "y_r"})
    assert list(pp.combined.declared) == base + [extra]
    for g in pp.combined.declared:
        assert pp.combined.kernel_member(g)


def test_psi_split_examples():
    f = parse_poly("x^2*y_r^3")
    l, r = psi_split(f, ["x", "y"], ["x_r", "y_r"])
    assert l == parse_poly("x^2") and r == parse_poly("y_r^3")
    pp = product_presentation(d1(), d1())
    sample = parse_poly("(y - 1)*(y - x)*y_r^2 + 3*(y_r - 1)*(y_r - x_r)")
    fl, fr = pp.split(sample)
    assert pp.left.kernel_member(fl)
    assert pp.right.kernel_member(fr)
    ones = {n: 1 for n in pp.combined.names()}
    assert sample.substitute(ones).is_zero()


def test_psi_split_matches_substituting_ones(rng):
    pp = product_presentation(coxeter_ring(), coxeter_ring())
    ones_l = {n: 1 for n in pp.left_names}
    ones_r = {n: 1 for n in pp.right_names}
    for _ in range(30):
        f = random_ideal_element(pp, rng) + LaurentPoly.term(
            {n: rng.randint(-2, 2) for n in rng.sample(pp.combined.names(), 3)},
            rng.randint(-3, 3))
        fl, fr = psi_split(f, pp.left_names, pp.right_names)
        assert fl == f.substitute(ones_r) and fr == f.substitute(ones_l)
        assert well_formed(fl) and well_formed(fr)


def test_tensor_identity():
    pp = product_presentation(d1(), d1())
    assert verify_tensor_identity(pp, bound=0, samples=4)
    assert verify_tensor_identity(pp, bound=2, samples=10)


def _split_check_on_polynomials(pp, bound):
    """The structural check on polynomials: each monomial pair's product
    split by psi_split, both sides compared as polynomials."""
    def monomials(names):
        return [LaurentPoly.term(dict(zip(names, exps)))
                for exps in itertools.product(range(bound + 1), repeat=len(names))
                if sum(exps) <= bound]
    rights = monomials(pp.right_names)
    return all(psi_split(ml * mr, pp.left_names, pp.right_names) == (ml, mr)
               for ml in monomials(pp.left_names) for mr in rights)


def test_tensor_identity_matches_the_polynomial_level_loop():
    d2, point = coxeter_ring(), point_ring()
    pps = [product_presentation(*pair) for pair in (
        (d1(), d1()), (d1(), d2), (d2, d2), (d2, point), (point, d1()))]
    assert len(_monomials_up_to(pps[2].left_names, 2)) ** 2 == 784
    broken = []
    for pp in pps:
        broken += [dataclasses.replace(pp, right_names=pp.left_names),
                   dataclasses.replace(pp, right_names=pp.right_names[1:] + pp.left_names[:1]),
                   dataclasses.replace(pp, left_names=pp.left_names[1:])]
    outcomes = set()
    for pp in pps + broken:
        for bound in range(4):
            expected = _split_check_on_polynomials(pp, bound)
            assert verify_tensor_identity(pp, bound=bound, samples=0) == expected
            outcomes.add((pp in pps, expected))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_random_ideal_elements_are_kernel_members(rng):
    pp = product_presentation(d1(), d1())
    for _ in range(10):
        f = random_ideal_element(pp, rng)
        assert pp.combined.kernel_member(f)


def test_mixed_mode_rejected():
    with pytest.raises(ValueError):
        product_presentation(box_ring(1), d1())
