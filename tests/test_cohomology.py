"""Closed/exact tests, Betti numbers, volume forms, top-class coefficients."""

from fractions import Fraction

import pytest

from conftest import built, certified
from minmod.cohomology import (VolumeRejection, betti, betti_table, d_matrix,
                               is_closed, is_exact, top_class_coefficient,
                               verify_volume_form)
from minmod.dsl import parse_algebra, parse_element
from minmod.gca import StructureError
from minmod.sullivan import (EllipticityCertificate, apply_algebra_map, check_d_squared,
                             dimension_formula, ellipticity_certificate, extend_derivation,
                             tensor_product)


def test_d_matrix_shapes():
    af, _ = built("lemma", i=0)
    alg = af.algebra
    mat = d_matrix(alg, 0)
    assert len(mat.domain) == 1 and mat.columns == [{}]
    mat = d_matrix(alg, 27)
    j = mat.domain.index(alg.free.monomial(y1=1))
    target = alg.free.monomial(x1=4, x2=2)
    assert mat.columns[j] == {mat.codomain.index(target): Fraction(1)}


def test_is_closed():
    af, _, vol = certified("lemma", i=0)
    alg = af.algebra
    assert is_closed(alg, af.volume)
    assert not is_closed(alg, alg.gen("y1"))
    ex02, _ = built("lower-grading")
    assert is_closed(ex02.algebra, parse_element(ex02.algebra, "b*n"))
    with pytest.raises(StructureError):
        is_closed(alg, alg.gen("x1") + alg.gen("x2"))


def test_is_exact_witness_and_refusals():
    af, _ = built("lemma", i=0)
    alg = af.algebra
    w = is_exact(alg, alg.gen("x1") ** 19)
    assert w is not None and w.replay(alg)
    assert is_exact(alg, af.volume) is None
    ex02, _ = built("lower-grading")
    assert is_exact(ex02.algebra, parse_element(ex02.algebra, "b*n")) is None
    with pytest.raises(StructureError):
        is_exact(alg, alg.gen("y1"))


def test_betti_basics():
    ex02, _ = built("lower-grading")
    alg = ex02.algebra
    assert betti(alg, 0) == 1
    assert betti(alg, 1) == 0
    assert betti(alg, 18) == 1


def test_betti_poincare_duality_ex02():
    alg = built("lower-grading")[0].algebra
    table = betti_table(alg, 18)
    assert table == table[::-1]
    assert sum((-1) ** n * b for n, b in enumerate(table)) == 0


def test_verify_volume_form_accepts_catalog():
    for key, params in (("lemma", {"i": 0}), ("chain-reduced", {}),
                        ("chiral3", {"l": 5}), ("lower-grading", {})):
        af, cert, vol = certified(key, **params)
        assert vol.degree == af.volume.degree()
        assert vol.functional.replay_annihilates_d()
        assert vol.functional.apply(af.volume) == 1


def test_verify_volume_form_rejections():
    af, cert = built("lower-grading")
    alg = af.algebra
    with pytest.raises(VolumeRejection) as exc:
        verify_volume_form(alg, parse_element(alg, "b*n"), cert)
    assert "degree" in exc.value.reason
    with pytest.raises(VolumeRejection):
        verify_volume_form(alg, alg.free.zero(), cert)
    with pytest.raises(VolumeRejection):
        verify_volume_form(alg, parse_element(alg, "a*n*m"), cert)  # not closed
    with pytest.raises(VolumeRejection):
        verify_volume_form(alg, af.volume, None)  # no certificate


def test_verify_volume_form_rejects_d_squared_nonzero():
    # d(a*b) = x^2*b, so d^2 c != 0; the certificate itself replays
    af = parse_algebra("gen x : 2\ngen a : 3\ngen b : 3\ngen c : 5\n"
                       "d a = x^2\nd c = a*b\n")
    alg = af.algebra
    cert = EllipticityCertificate(alg, {"x": (2, alg.gen("a"))})
    assert cert.replay() and not check_d_squared(alg)
    with pytest.raises(VolumeRejection) as exc:
        verify_volume_form(alg, parse_element(alg, "x*a*c"), cert)
    assert exc.value.reason == "d^2 != 0"


def test_product_volume_needs_both_factor_volumes():
    a, cert = built("chiral3", l=5)
    prod = tensor_product(a.algebra, a.algebra, cert, cert, a.volume, None)
    pv = prod.embed_left(a.volume) * prod.embed_right(a.volume)
    with pytest.raises(StructureError,
                       match="^tensor factor carries no volume representative$"):
        verify_volume_form(prod, pv, ellipticity_certificate(prod))


def test_product_functional_is_normalized_and_rejects_what_it_misses():
    a, cert = built("chiral3", l=5)
    prod = tensor_product(a.algebra, a.algebra, cert, cert, a.volume, a.volume)
    pcert = ellipticity_certificate(prod)
    pv = prod.embed_left(a.volume) * prod.embed_right(a.volume)
    functional = verify_volume_form(prod, pv.scale(Fraction(-2, 3)), pcert).functional
    assert functional.apply(pv) == Fraction(-3, 2)
    boundary = extend_derivation(prod, parse_element(prod, "x2_2^18*n3_2"))
    assert boundary and boundary.degree() == dimension_formula(prod)
    with pytest.raises(VolumeRejection) as exc:
        verify_volume_form(prod, boundary, pcert)
    assert exc.value.reason == "not separated by the product functional"


def test_top_class_coefficient():
    af, cert, vol = certified("lemma", i=0)
    alg = af.algebra
    assert top_class_coefficient(alg, af.volume, vol) == 1
    assert top_class_coefficient(alg, alg.free.zero(), vol) == 0
    identity = {g.name: alg.gen(g.name) for g in alg.generators}
    img = apply_algebra_map(alg, identity, af.volume)
    assert top_class_coefficient(alg, img, vol) == 1
    with pytest.raises(StructureError):
        top_class_coefficient(alg, alg.gen("x1"), vol)


def test_rank_nullity_spot_degrees():
    from minmod.linalg import LinearSolver
    alg = built("lower-grading")[0].algebra
    for n in range(0, 19):
        mat = d_matrix(alg, n)
        rows: dict = {}
        for j, col in enumerate(mat.columns):
            for r, c in col.items():
                rows.setdefault(r, {})[j] = c
        solver = LinearSolver()
        for row in rows.values():
            solver.add_equation(row, Fraction(0))
        nullity = len(solver.kernel_basis(range(len(mat.domain))))
        assert len(mat.domain) == solver.rank + nullity
