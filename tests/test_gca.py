"""Monomial arithmetic, Koszul signs, and basis enumeration."""

import operator
from fractions import Fraction

import pytest

from conftest import built
from minmod.dsl import parse_algebra
from minmod.gca import Element, FreeGCA, Generator, StructureError
from minmod.sullivan import check_minimality


def lemma_free():
    return built("lemma", i=0)[0].algebra.free


def test_generator_validation():
    with pytest.raises(StructureError):
        Generator("x", 1)
    with pytest.raises(StructureError):
        FreeGCA([Generator("x", 2), Generator("x", 4)])


def test_odd_square_vanishes():
    free = lemma_free()
    y1 = free.gen("y1")
    assert not y1 * y1


def test_odd_anticommutation():
    free = lemma_free()
    y1, y2 = free.gen("y1"), free.gen("y2")
    assert y1 * y2 == -(y2 * y1)
    assert (y1 + y2) * (y1 + y2) == free.zero()


def test_even_commutation():
    free = lemma_free()
    x1, x2 = free.gen("x1"), free.gen("x2")
    assert x1 * x2 == x2 * x1


def test_mixed_sign_matches_koszul():
    free = lemma_free()
    for a in ("x1", "y1", "z"):
        for b in ("x2", "y2", "z'"):
            ga = free.generators[free.index[a]]
            gb = free.generators[free.index[b]]
            sign = -1 if (ga.degree % 2) and (gb.degree % 2) else 1
            assert free.gen(a) * free.gen(b) == (free.gen(b) * free.gen(a)).scale(sign)


def test_element_arithmetic():
    free = lemma_free()
    x1, x2 = free.gen("x1"), free.gen("x2")
    assert (x1 + x2) + (-x1) == x2
    e = free.gen("x1") * free.gen("y1") - free.gen("x2") * free.gen("y2")
    assert e * free.one() == e
    assert e.scale(Fraction(1, 3)).scale(3) == e
    assert e - e == free.zero()


def test_power():
    free = lemma_free()
    x1 = free.gen("x1")
    assert x1 ** 3 == x1 * x1 * x1
    assert x1 ** 0 == free.one()
    assert not free.gen("y1") ** 2


def test_basis_degree_31():
    free = lemma_free()
    basis = free.basis_of_degree(31)
    strs = {free.monomial_str(m) for m in basis}
    assert strs == {"y3", "x1*y1"}


def test_basis_degree_0_and_3():
    free = lemma_free()
    assert free.basis_of_degree(0) == (free.monomial(),)
    assert free.basis_of_degree(3) == ()


def test_basis_deterministic_and_duplicate_free():
    free = lemma_free()
    for n in (27, 31, 60, 77):
        basis = free.basis_of_degree(n)
        assert len(set(basis)) == len(basis)
        assert basis == free.basis_of_degree(n)
        for m in basis:
            assert free.monomial_degree(m) == n


def test_homogeneity_and_degree():
    free = lemma_free()
    e = free.gen("x1") ** 3
    assert e.is_homogeneous() and e.degree() == 12
    mixed = free.gen("x1") + free.gen("x2")
    assert not mixed.is_homogeneous()
    assert mixed.degrees_present() == [4, 6]


def test_min_word_length():
    # check_minimality takes the shortest word of a mixed-length image, not
    # the first term's: w (length 1) sorts after x^3 (length 3)
    mixed = parse_algebra("gen w : 6\ngen x : 2\ngen z : 5\nd z = x^3 + w\n").algebra
    assert [str(w) for _, w in check_minimality(mixed).failures] == ["x^3 + w"]


def test_no_zero_coefficients_stored():
    free = lemma_free()
    e = free.gen("x1") - free.gen("x1")
    assert e.terms == {}
    e = free.element({free.monomial(x1=1): Fraction(0)})
    assert not e


def test_cross_algebra_mismatch():
    free = lemma_free()
    other = FreeGCA([Generator("x1", 4)])
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(StructureError):
            op(free.gen("x1"), other.gen("x1"))
