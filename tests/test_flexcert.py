"""Lower gradings, scaling morphisms, and k-th multiple verification."""

from fractions import Fraction

import pytest

from conftest import built, certified
from minmod import flexcert
from minmod.endo import verify_morphism
from minmod.flexcert import (LowerGrading, bigraded_cohomology_basis,
                             check_prop4_condition, class_count, construct_lower_grading,
                             monomial_differential_check,
                             multiple_family_verify, scaling_certificate,
                             scaling_images, two_stage_decomposition)
from minmod.gca import StructureError
from minmod.sullivan import dimension_formula, extend_derivation
from test_kernels import reference_bigraded_cohomology_basis


def test_monomial_differential_check():
    ok, offender = monomial_differential_check(built("lower-grading")[0].algebra)
    assert ok and offender is None
    # d z has five terms
    ok, offender = monomial_differential_check(built("lemma", i=0)[0].algebra)
    assert not ok and offender == "z"


def test_construct_lower_grading():
    alg = built("lower-grading")[0].algebra
    grading = construct_lower_grading(alg)
    assert grading.degrees == (0, 0, 1, 2)
    assert grading.degrees[alg.free.index["m"]] == 2
    # additive on monomials: level(n*m) = 3
    e = alg.gen("n") * alg.gen("m")
    assert grading.levels_of(e) == {3}


def test_construct_lower_grading_iterates_past_one_level():
    alg = built("chiral1", l1=4, l2=2)[0].algebra
    grading = construct_lower_grading(alg)
    by_name = {g.name: l for g, l in zip(alg.generators, grading.degrees)}
    assert by_name["x1"] == by_name["x2"] == 0
    assert all(by_name[f"n{i}"] == 1 for i in range(1, 5))


def test_prop4_condition():
    alg = built("lower-grading")[0].algebra
    assert check_prop4_condition(alg, construct_lower_grading(alg)) == (True, None)
    alg = built("lemma", i=0)[0].algebra
    # d z mixes levels 0 and 2, so the drop-by-one condition fails there
    ok, offender = check_prop4_condition(alg, construct_lower_grading(alg))
    assert not ok and offender == "z"


def test_two_stage_decomposition():
    alg = built("chiral1", l1=4, l2=2)[0].algebra
    q, p = two_stage_decomposition(alg)
    assert q == ("x1", "x2") and p == ("n1", "n2", "n3", "n4")
    # d z involves the odd generators y1..y3, so no two-stage splitting
    assert two_stage_decomposition(built("lemma", i=0)[0].algebra) is None


def test_scaling_images_exponents():
    alg = built("lower-grading")[0].algebra
    grading = construct_lower_grading(alg)
    images = scaling_images(alg, grading, 2)
    # a has bidegree (0, 3): factor 2^3
    assert images["a"] == alg.gen("a").scale(Fraction(8))
    # m has bidegree (2, 7): factor 2^9
    assert images["m"] == alg.gen("m").scale(Fraction(512))


def test_scaling_certificate_lower_grading():
    af, cert, vol = certified("lower-grading")
    alg = af.algebra
    grading = construct_lower_grading(alg)
    sc = scaling_certificate(alg, grading, vol)
    assert sc.base == 2 and sc.degree == Fraction(2) ** 21
    assert sc.degree_exponent() == 21
    assert "(2k)^21" in sc.family_description()


def test_scaling_certificate_rejects_bad_grading():
    af, cert, vol = certified("lemma", i=0)
    alg = af.algebra
    with pytest.raises(StructureError):
        scaling_certificate(alg, construct_lower_grading(alg), vol)


def test_bigraded_basis_invariants():
    alg = built("lower-grading")[0].algebra
    grading = construct_lower_grading(alg)
    basis = reference_bigraded_cohomology_basis(alg, grading, 18)
    assert len(basis) == 7
    for n, lev, e in basis:
        assert e.is_homogeneous() and e.degree() == n
        assert grading.levels_of(e) == {lev}
        assert not extend_derivation(alg, e)
    # fundamental class present at the formal dimension
    assert any(n == 18 for n, _, _ in basis)
    assert bigraded_cohomology_basis(alg, grading, 18) == [(n, lev) for n, lev, _ in basis]


@pytest.mark.parametrize("key,params,top,middle", [
    ("chiral2", {"l": 4}, 73, 0),           # odd formal dimension
    ("cp", {"n": 4}, 16, 1),                # b_8 = 1 counts once
    ("chiral1", {"l1": 4, "l2": 2}, 54, 6),
    ("sphere", {"k": 6}, 6, 0),
    ("lower-grading", {}, 18, 0),
    ("chiral1", {"l1": 2, "l2": 5}, 70, 0),
], ids=["chiral2", "cp", "chiral1-4-2", "sphere", "lower-grading", "chiral1-2-5"])
def test_class_count_by_duality_matches_the_full_ranking(key, params, top, middle):
    alg = built(key, **params)[0].algebra
    grading = construct_lower_grading(alg)
    full = bigraded_cohomology_basis(alg, grading, top)
    assert dimension_formula(alg) == top
    assert sum(2 * n == top for n, _ in full) == middle
    assert class_count(alg, grading) == len(full)


def test_multiple_family_ranks_d_only_up_to_half_the_dimension(monkeypatch):
    af, cert, vol = certified("chiral2", l=4)
    alg = af.algebra
    grading = construct_lower_grading(alg)
    asked = []

    def recording(alg, grading, up_to):
        asked.append(up_to)
        return bigraded_cohomology_basis(alg, grading, up_to)

    monkeypatch.setattr(flexcert, "bigraded_cohomology_basis", recording)
    checks = multiple_family_verify(alg, grading, vol, ks=(2, 3))
    assert all(c.ok for c in checks) and asked == [73 // 2]


def test_multiple_family_lower_grading():
    af, cert, vol = certified("lower-grading")
    alg = af.algebra
    grading = construct_lower_grading(alg)
    checks = multiple_family_verify(alg, grading, vol, ks=(1, 2, 3))
    assert all(c.ok for c in checks) and len(checks) == 3
    for c in checks:
        assert c.degree == Fraction(2 * c.k) ** 21
        assert c.classes_checked == 7


def test_multiple_family_chiral1():
    af, cert, vol = certified("chiral1", l1=4, l2=2)
    alg = af.algebra
    grading = construct_lower_grading(alg)
    assert check_prop4_condition(alg, grading) == (True, None)
    (c,) = multiple_family_verify(alg, grading, vol, ks=(2,))
    assert c.ok
    assert c.degree == Fraction(4) ** 56 and c.classes_checked == 67


def test_nonexact_scaled_difference_detected():
    # hand a grading that satisfies the structural hypotheses but scales a
    # closed class with the wrong exponent: the exactness replay must fail
    alg = built("sphere", k=6)[0].algebra
    grading = construct_lower_grading(alg)
    bad = LowerGrading(tuple(l + 2 if l else l for l in grading.degrees))
    af, cert, vol = certified("sphere", k=6)
    (c,) = multiple_family_verify(alg, bad, vol, ks=(1,))
    assert not c.ok
    assert c.failing == "y" and c.degree is None


def test_generator_check_rejects_a_morphism_off_the_grading(monkeypatch):
    # x -> base^7 x, y -> base^14 y commutes with d y = x^2, but the grading
    # asks for base^6 on x (level 0, degree 6)
    af, cert, vol = certified("sphere", k=6)
    alg = af.algebra
    grading = construct_lower_grading(alg)
    monkeypatch.setattr(flexcert, "scaling_images", lambda alg, grading, base: {
        "x": alg.gen("x").scale(Fraction(base) ** 7),
        "y": alg.gen("y").scale(Fraction(base) ** 14)})
    assert verify_morphism(alg, flexcert.scaling_images(alg, grading, 2), vol).valid
    (c,) = multiple_family_verify(alg, grading, vol, ks=(1,))
    assert not c.ok and c.failing == "x" and c.degree == Fraction(2) ** 7
