"""Derivation extension, structural checks, ellipticity, tensor products."""

from fractions import Fraction

import pytest

from conftest import built, certified
from minmod.dsl import parse_algebra, parse_element
from minmod.gca import StructureError
from minmod.sullivan import (ContractionError, EllipticityCertificate, SullivanAlgebra,
                             Undecided, check_d_squared, check_minimality, dimension_formula,
                             eliminate_contractible_pair,
                             ellipticity_certificate, extend_derivation,
                             formal_dimension, tensor_product)


def test_extend_derivation_on_product_pair():
    # d(n1 n2) for the 3-generator chirality family
    af, _ = built("chiral3", l=5)
    alg = af.algebra
    e = parse_element(alg, "n1*n2")
    expect = parse_element(alg, "(x1^2*x2^2 + x2^3)*n2 - x2^5*n1")
    assert extend_derivation(alg, e) == expect


def test_extend_derivation_odd_sign():
    af, _ = built("lemma", i=0)
    alg = af.algebra
    e = parse_element(alg, "y1*y2")
    expect = parse_element(alg, "x1^4*x2^2*y2 - x1^3*x2^3*y1")
    assert extend_derivation(alg, e) == expect


def test_closed_generator_powers():
    af, _ = built("lemma", i=0)
    alg = af.algebra
    assert not extend_derivation(alg, parse_element(alg, "x1^7"))


def test_d_squared_passes_on_catalog():
    for key, params in (("lemma", {"i": 0}), ("chiral1", {"l1": 4, "l2": 2}),
                        ("lower-grading", {})):
        af, _ = built(key, **params)
        assert check_d_squared(af.algebra)


def test_d_squared_detects_perturbation():
    af, _ = built("lemma", i=0)
    alg = af.algebra
    diff = {g.name: alg.d_gen(g.name) for g in alg.generators}
    diff["y1"] = parse_element(alg, "x1^4*x2")
    with pytest.raises(StructureError):
        # homogeneity check already rejects the wrong degree
        SullivanAlgebra(alg.free, diff)
    # a degree-correct perturbation breaks d^2 on z instead
    diff["y1"] = parse_element(alg, "x1^7")
    bad = SullivanAlgebra(alg.free, diff)
    report = check_d_squared(bad)
    assert not report and "z" in {name for name, _ in report.failures}


def test_minimality():
    from minmod import catalog
    assert check_minimality(built("lemma", i=0)[0].algebra)
    af = catalog.build("chain-fibered")
    assert not check_minimality(af.algebra)  # d x2' = xb2^2 - x2 has a linear term


def test_ellipticity_witnesses():
    af, cert = built("lemma", i=0)
    alg = af.algebra
    n1, w1 = cert.powers["x1"]
    assert n1 == 19
    assert extend_derivation(alg, w1) == alg.gen("x1") ** 19
    n2, w2 = cert.powers["x2"]
    # the minimal exponent; the 26th power is exact as well
    assert n2 == 25
    assert cert.replay()
    from minmod.cohomology import is_exact
    assert is_exact(alg, alg.gen("x2") ** 26) is not None


def test_ellipticity_chiral_families():
    af, cert = built("chiral1", l1=4, l2=2)
    assert cert.powers["x1"][0] == 2 * 4 + 1  # witness n3, minimal
    # x2^5 = d(n4), but the minimal exact power is 4: x2*n2 - x1^2*n2 + x2*n1
    assert cert.powers["x2"][0] == 4
    assert cert.replay()


def test_formal_dimension_values():
    assert dimension_formula(built("lemma", i=0)[0].algebra) == 231
    assert dimension_formula(built("lemma", i=1)[0].algebra) == 235
    assert dimension_formula(built("lower-grading", )[0].algebra) == 18
    assert dimension_formula(built("chiral2", l=4)[0].algebra) == 73


def test_formal_dimension_requires_certificate():
    af, cert = built("lemma", i=0)
    assert formal_dimension(af.algebra, cert) == 231
    with pytest.raises(StructureError):
        formal_dimension(af.algebra, None)


@pytest.mark.parametrize("source,generator,reason", [
    ("gen x : 2\ngen y : 3\n", "x", "bound 3"),
    # d w = x*a: no power of w is a cocycle, so the search for an exact one cannot apply
    ("gen x : 2\ngen y : 3\ngen a : 3\ngen w : 4\nd y = x^2\nd w = x*a\n", "w", "not closed"),
], ids=["no-exact-power", "not-closed"])
def test_undecided_ellipticity_names_its_generator_and_reason(source, generator, reason):
    with pytest.raises(Undecided) as info:
        ellipticity_certificate(parse_algebra(source).algebra)
    assert (info.value.generator, info.value.reason) == (generator, reason)
    assert str(info.value) == f"ellipticity inconclusive at {generator}"


def test_tensor_product_dimension_additive():
    a, ca = built("lemma", i=0)
    b, cb = built("sphere", k=6)
    prod = tensor_product(a.algebra, b.algebra, ca, cb, a.volume, b.volume)
    assert dimension_formula(prod) == 231 + 6
    pcert = ellipticity_certificate(prod)
    assert pcert.replay()


def test_product_without_factor_certificates_is_certified():
    a, _ = built("chiral3", l=5)
    b, _ = built("sphere", k=6)
    cert = ellipticity_certificate(tensor_product(a.algebra, b.algebra))
    assert isinstance(cert, EllipticityCertificate) and cert.replay()


def test_tensor_volume_product_closed():
    a, ca, va = certified("lemma", i=0)
    prod = tensor_product(a.algebra, a.algebra, ca, ca, a.volume, a.volume)
    vol = prod.embed_left(a.volume) * prod.embed_right(a.volume)
    assert not extend_derivation(prod, vol)


def test_eliminate_contractible_pair():
    from minmod import catalog
    af = catalog.build("chain-fibered")
    reduced = eliminate_contractible_pair(af.algebra, "x2'", "x2")
    names = [g.name for g in reduced.generators]
    assert "x2" not in names and "x2'" not in names
    assert reduced.d_gen("y1") == parse_element(reduced, "x1^3*xb2^2")
    dz = reduced.d_gen("z")
    xb18 = parse_element(reduced, "xb2^18")
    (m,) = xb18.terms
    assert dz.terms.get(m) == Fraction(1)
    assert dimension_formula(reduced) == 66
    assert check_d_squared(reduced) and check_minimality(reduced)


def test_eliminate_matches_catalog_reduced():
    from minmod import catalog
    af = catalog.build("chain-fibered")
    reduced = eliminate_contractible_pair(af.algebra, "x2'", "x2")
    target = catalog.build("chain-reduced").algebra
    assert [(g.name, g.degree) for g in reduced.generators] == \
           [(g.name, g.degree) for g in target.generators]
    for g in target.generators:
        assert str(reduced.d_gen(g.name)) == str(target.d_gen(g.name))


def test_eliminate_precondition_errors():
    from minmod import catalog
    af = catalog.build("chain-fibered")
    with pytest.raises(ContractionError):
        eliminate_contractible_pair(af.algebra, "y1", "x2")
    with pytest.raises(ContractionError):
        eliminate_contractible_pair(af.algebra, "x2'", "x1")
