"""Ansatz construction, constraint extraction, solving, and classification."""

from fractions import Fraction

import pytest

from conftest import ALL_KEYS, built, certified
from minmod import endo
from minmod.cohomology import verify_volume_form
from minmod.dsl import parse_morphism
from minmod.endo import (CaseContext, Contradiction, EnumerationCap,
                         MonomialEquation, SolverConfig, _Explorer,
                         degree_spectrum, extract_constraints, generic_ansatz,
                         morphism_from_assignment, simplify,
                         solve_monomial_system, to_monomial_equation,
                         verify_morphism, volume_degree_polynomial)
from minmod.linalg import LinearSolver
from minmod.poly import MPoly
from minmod.sullivan import apply_algebra_map, ellipticity_certificate, tensor_product

ONE = Fraction(1)


def test_ansatz_shape_lemma():
    alg = built("lemma", i=0)[0].algebra
    ansatz = generic_ansatz(alg)
    rows = dict(zip((g.name for g in alg.generators), ansatz.rows))
    assert len(rows["x1"]) == 1 and len(rows["x2"]) == 1
    # degree 31: y3 and x1*y1, diagonal first
    names = [alg.free.monomial_str(m) for _, m in rows["y3"]]
    assert names[0] == "y3" and set(names) == {"y3", "x1*y1"}
    assert len(ansatz.unknowns()) == sum(len(r) for r in ansatz.rows)


def test_extracted_constraints_contain_paper_relations():
    alg = built("lemma", i=0)[0].algebra
    ansatz = generic_ansatz(alg)
    cons = extract_constraints(alg, ansatz)
    k = {i: MPoly.var(f"k{i}") for i in range(1, 9)}
    for t in [
        k[3] - k[1] ** 4 * k[2] ** 2,
        k[4] - k[1] ** 3 * k[2] ** 3,
        k[5] - k[1] ** 2 * k[2] ** 4,
        k[6],
    ]:
        assert _in_span(cons, t), t
    # the degree-binomials only surface once the diagonal unknowns k3..k5
    # are substituted into the top-generator rows
    work, ctx = simplify(cons, CaseContext())
    closure = list(cons) + list(work) + [
        MPoly.var(v) - val for v, val in ctx.subs]
    for t in [
        k[1] ** 8 * k[2] ** 8 - k[1] ** 18 * k[2],
        k[1] ** 18 * k[2] - k[2] ** 13,
    ]:
        assert _in_span(closure, t), t


def _in_span(polys, target):
    monos = sorted({m for p in list(polys) + [target] for m in p.terms})
    index = {m: j for j, m in enumerate(monos)}
    solver = LinearSolver()
    for p in polys:
        solver.add_equation({index[m]: c for m, c in p.terms.items()}, Fraction(0))
    row, rhs = solver.residual({index[m]: c for m, c in target.terms.items()}, Fraction(0))
    return not row and not rhs


def test_chiral3_constraint_eq6():
    alg = built("chiral3", l=5)[0].algebra
    ansatz = generic_ansatz(alg)
    cons = extract_constraints(alg, ansatz)
    k1, k2, k3, k4 = (MPoly.var(f"k{i}") for i in range(1, 5))
    assert _in_span(cons, k4 - k1 ** 2 * k2 ** 2 - 3 * k2 ** 2 * k3)


def test_simplify_eliminates_and_contradicts():
    k1, k2, k3 = MPoly.var("k1"), MPoly.var("k2"), MPoly.var("k3")
    work, ctx = simplify([k3 - k1 ** 4 * k2 ** 2], CaseContext())
    assert work == [] and dict(ctx.subs)["k3"] == k1 ** 4 * k2 ** 2
    # known-nonzero content division
    ctx0 = CaseContext(nonzeros=frozenset({"k1", "k2"}))
    work, ctx = simplify([k1 ** 4 * k2 * k3], ctx0)
    assert work == [] and "k3" in ctx.zeros
    with pytest.raises(Contradiction):
        simplify([k1 ** 2], CaseContext(nonzeros=frozenset({"k1"})))


def test_monomial_system_signs():
    k1 = {"k1": 1}

    def eq(lhs, rhs):
        p = _mono_poly(lhs) - _mono_poly(rhs)
        return to_monomial_equation(p)

    sols = solve_monomial_system([
        eq({"k1": 8, "k2": 8}, {"k1": 18, "k2": 1}),
        eq({"k1": 18, "k2": 1}, {"k2": 13}),
    ])
    assert sols.finite
    got = {(s["k1"], s["k2"]) for s in sols.solutions}
    assert got == {(1, 1), (-1, 1)}


def test_monomial_system_other_sign_pattern():
    def eq(lhs, rhs):
        return to_monomial_equation(_mono_poly(lhs) - _mono_poly(rhs))

    sols = solve_monomial_system([
        eq({"k1": 5, "k2": 14}, {"k1": 18}),
        eq({"k1": 18}, {"k2": 18}),
    ])
    assert sols.finite
    got = {(s["k1"], s["k2"]) for s in sols.solutions}
    assert got == {(1, 1), (1, -1)}


def test_monomial_system_free_kernel():
    eq = to_monomial_equation(_mono_poly({"k1": 2}) - _mono_poly({"k2": 2}))
    sols = solve_monomial_system([eq])
    assert not sols.finite and sols.free_directions


def _unit_squares(n):
    """The polynomials s_i^2 - 1: every sign of every s_i solves them."""
    return [MPoly.var(f"s{i}") ** 2 - 1 for i in range(1, n + 1)]


def test_monomial_system_sign_cap_is_not_an_empty_set():
    eqs = [to_monomial_equation(p) for p in _unit_squares(12)]
    sols = solve_monomial_system(eqs)
    assert sols.finite and len(sols.solutions) == 4096
    eqs = [to_monomial_equation(p) for p in _unit_squares(13)]
    with pytest.raises(EnumerationCap):
        solve_monomial_system(eqs)


def test_sign_cap_leaves_the_case_unresolved():
    af, cert, vol = certified("sphere", k=6)
    explorer = _Explorer(af.algebra, generic_ansatz(af.algebra), vol, SolverConfig())
    work = _unit_squares(13)
    ctx = CaseContext(nonzeros=frozenset(f"s{i}" for i in range(1, 14)))
    leaf = explorer._leaf(work, ctx)
    assert not leaf.resolved and not leaf.degrees
    assert leaf.residual[-1] == "sign-enumeration cap"


def _mono_poly(exps):
    p = MPoly.const(Fraction(1))
    for v, e in exps.items():
        p = p * MPoly.var(v) ** e
    return p


def test_spectrum_lemma_inflexible():
    af, cert, vol = certified("lemma", i=0)
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Inflexible"
    assert v.complete and set(v.spectrum) == {-1, 0, 1}
    af, cert, vol = certified("lemma", i=1)
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Inflexible" and set(v.spectrum) == {0, 1}


def test_spectrum_chain_reduced():
    af, cert, vol = certified("chain-reduced")
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Inflexible" and set(v.spectrum) == {-1, 0, 1}


def test_spectrum_chiral3():
    af, cert, vol = certified("chiral3", l=5)
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "NoOrientationReversal"
    assert v.complete and v.flexible
    assert [f.describe() for f in v.families] == ["t^24"]


def test_spectrum_cp4():
    af, cert, vol = certified("cp", n=4)
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "NoOrientationReversal" and v.flexible
    assert [f.describe() for f in v.families] == ["t^8"]


def test_spectrum_flexible_cases():
    af, cert, vol = certified("lower-grading")
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Flexible" and v.complete
    assert [f.describe() for f in v.families] == ["t1^4*t2^3"]
    af, cert, vol = certified("sphere", k=6)
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Flexible"


def test_spectrum_chiral2_polynomial_family():
    # the achievable degrees form the family p(t) = t^38 - t^29 + t^28 - t^19,
    # which takes negative values, plus the constant map
    af, cert, vol = certified("chiral2", l=4)
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Flexible" and v.complete
    assert set(v.spectrum) == {0}
    assert [f.describe() for f in v.families] == ["t^38 - t^29 + t^28 - t^19"]


def test_spectrum_chiral1_flexible_with_negative_witness():
    # the two-stage family admits non-diagonal images on the top odd
    # generator, so every rational is a mapping degree
    af, cert, vol = certified("chiral1", l1=4, l2=2)
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Flexible" and v.complete
    degrees = [d for leaf in v.leaves for _, d in leaf.witnesses]
    assert any(d < 0 for d in degrees)
    for leaf in v.leaves:
        for morphism, degree in leaf.witnesses:
            rep = verify_morphism(af.algebra, morphism, vol)
            assert rep.valid and rep.degree == degree


def test_spectrum_deterministic():
    af, cert, vol = certified("chiral3", l=5)
    v1 = degree_spectrum(af.algebra, vol)
    v2 = degree_spectrum(af.algebra, vol)
    assert v1.classification == v2.classification
    assert v1.spectrum == v2.spectrum
    assert [f.describe() for f in v1.families] == [f.describe() for f in v2.families]


def test_verify_morphism_identity_all_catalog():
    for key, params in ALL_KEYS:
        af, cert, vol = certified(key, **params)
        identity = {g.name: af.algebra.gen(g.name) for g in af.algebra.generators}
        rep = verify_morphism(af.algebra, identity, vol)
        assert rep.valid and rep.degree == 1, key


def test_verify_morphism_rejects_non_morphism():
    af, cert, vol = certified("lower-grading")
    images = parse_morphism(af.algebra, "f a = 2*a\nf b = b\nf n = n\nf m = m\n")
    rep = verify_morphism(af.algebra, images, vol)
    assert not rep.valid and rep.failing == "n"


def test_budget_cap_degrades_to_inconclusive():
    af, cert, vol = certified("lemma", i=0)
    v = degree_spectrum(af.algebra, vol, SolverConfig(case_depth=1, node_budget=3))
    assert v.classification == "Inconclusive"
    assert not v.complete


def _full_expansion_degree(alg, ansatz, vol, ctx):
    """phi(f(vol)) with every image term normalized and f(vol) expanded in full."""
    images = {n: img.map_coefficients(ctx.normalize) for n, img in ansatz.images.items()}
    lam = vol.functional.apply(apply_algebra_map(alg, images, vol.representative))
    return lam if isinstance(lam, MPoly) else MPoly.const(lam)


def test_pruned_degree_matches_full_expansion_at_catalog_roots():
    for key, params in ALL_KEYS:
        af, cert, vol = certified(key, **params)
        ansatz = generic_ansatz(af.algebra)
        ctx = CaseContext()
        assert volume_degree_polynomial(af.algebra, ansatz, vol, ctx) == \
            _full_expansion_degree(af.algebra, ansatz, vol, ctx), key


@pytest.mark.parametrize("left,right", [
    (("chiral3", {"l": 5}), ("chiral3", {"l": 5})),
    (("chiral2", {"l": 4}), ("lower-grading", {})),
    (("lower-grading", {}), ("lower-grading", {})),
], ids=["chiral3xchiral3", "chiral2xlower-grading", "lower-gradingxlower-grading"])
def test_pruned_degree_matches_full_expansion_on_product_case_trees(monkeypatch, left, right):
    a, cert_a, _ = certified(left[0], **left[1])
    b, cert_b, _ = certified(right[0], **right[1])
    prod = tensor_product(a.algebra, b.algebra, cert_a, cert_b, a.volume, b.volume)
    pv = prod.embed_left(a.volume) * prod.embed_right(b.volume)
    pvol = verify_volume_form(prod, pv, ellipticity_certificate(prod))
    reached = []

    def recording_simplify(constraints, ctx):
        work, ctx = simplify(constraints, ctx)
        reached.append(ctx)
        return work, ctx

    monkeypatch.setattr(endo, "simplify", recording_simplify)
    degree_spectrum(prod, pvol, SolverConfig(node_budget=400))
    assert len(reached) > 1
    ansatz = generic_ansatz(prod)
    for ctx in reached:
        assert volume_degree_polynomial(prod, ansatz, pvol, ctx) == \
            _full_expansion_degree(prod, ansatz, pvol, ctx), ctx.assumptions


def test_constant_factors_leave_the_case_unresolved(monkeypatch):
    # lower-grading reaches the factor step; with only constant factors the
    # case must stay open instead of dropping out as "no solutions"
    af, cert, vol = certified("lower-grading")
    monkeypatch.setattr(endo, "factor_constraint", lambda p: [MPoly.const(2)])
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Inconclusive" and not v.complete
    assert any(leaf.residual[-1:] == ("no nonconstant factor",)
               for leaf in v.leaves if not leaf.resolved)
