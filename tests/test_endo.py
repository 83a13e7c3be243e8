"""Ansatz construction, constraint extraction, solving, and classification."""

from fractions import Fraction
from math import gcd

import pytest
from sympy import integer_nthroot

from conftest import ALL_KEYS, PRODUCT_PAIRS, built, canonical_rational, certified, product
from minmod import endo
from minmod.cli import main
from minmod.cohomology import betti, top_class_coefficient
from minmod.dsl import parse_morphism
from minmod.endo import (CaseContext, CaseLeaf, Contradiction, DegreeFamily, EnumerationCap,
                         MonomialEquation, SolverConfig, _Explorer,
                         degree_spectrum, extract_constraints, factor_constraint,
                         generic_ansatz, morphism_from_assignment, simplify,
                         solve_monomial_system, to_monomial_equation,
                         verify_morphism, volume_degree_polynomial)
from minmod.linalg import LinearSolver
from minmod.poly import MPoly, Terms
from minmod.sullivan import apply_algebra_map

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
        MPoly.var(v) - val for v, val in ctx.values.items()
        if f"{v} = 0" not in ctx.assumptions]
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
    rank = solver.rank
    solver.add_equation({index[m]: c for m, c in target.terms.items()}, Fraction(0))
    return solver.rank == rank


def test_chiral3_constraint_eq6():
    alg = built("chiral3", l=5)[0].algebra
    ansatz = generic_ansatz(alg)
    cons = extract_constraints(alg, ansatz)
    k1, k2, k3, k4 = (MPoly.var(f"k{i}") for i in range(1, 5))
    assert _in_span(cons, k4 - k1 ** 2 * k2 ** 2 - 3 * k2 ** 2 * k3)


def test_simplify_eliminates_and_contradicts():
    k1, k2, k3 = MPoly.var("k1"), MPoly.var("k2"), MPoly.var("k3")
    work, ctx = simplify([k3 - k1 ** 4 * k2 ** 2], CaseContext())
    assert work == [] and ctx.values == {"k3": k1 ** 4 * k2 ** 2}
    assert ctx.assumptions == ()
    # known-nonzero content division
    ctx0 = CaseContext(nonzeros=frozenset({"k1", "k2"}))
    work, ctx = simplify([k1 ** 4 * k2 * k3], ctx0)
    assert work == [] and ctx.values == {"k3": MPoly()} and ctx.assumptions == ("k3 = 0",)
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
    got = {(s["k1"], s["k2"]) for s in sols}
    assert got == {(1, 1), (-1, 1)}


def test_monomial_system_other_sign_pattern():
    def eq(lhs, rhs):
        return to_monomial_equation(_mono_poly(lhs) - _mono_poly(rhs))

    sols = solve_monomial_system([
        eq({"k1": 5, "k2": 14}, {"k1": 18}),
        eq({"k1": 18}, {"k2": 18}),
    ])
    got = {(s["k1"], s["k2"]) for s in sols}
    assert got == {(1, 1), (1, -1)}


def test_monomial_system_free_kernel():
    eq = to_monomial_equation(_mono_poly({"k1": 2}) - _mono_poly({"k2": 2}))
    with pytest.raises(EnumerationCap, match="free multiplicative kernel"):
        solve_monomial_system([eq])


@pytest.mark.parametrize("exponent,const,want", [
    (1, -2, ({"a": Fraction(-2)},)),
    (2, -1, ()),
    (3, -8, ({"a": Fraction(-2)},)),
], ids=["a=-2", "a^2=-1", "a^3=-8"])
def test_monomial_system_negative_constant(exponent, const, want):
    # factorint(-n) lists -1 as a prime, which has no valuation: only |c| is factored
    eq = MonomialEquation((("a", exponent),), Fraction(const))
    assert solve_monomial_system([eq]) == want


def test_monomial_equation_holds_exactly_for_int_values_and_negative_exponents():
    # a/b = 1/3 at a = 1, b = 3; 3 ** -1 is a float, and 1 * 0.333... != 1/3
    eq = MonomialEquation((("a", 1), ("b", -1)), Fraction(1, 3))
    assert eq.holds({"a": 1, "b": 3})
    assert not eq.holds({"a": 1, "b": 2})
    assert MonomialEquation((("a", -2),), Fraction(1, 4)).holds({"a": -2})


def _unit_squares(n):
    """The polynomials s_i^2 - 1: every sign of every s_i solves them."""
    return [MPoly.var(f"s{i}") ** 2 - 1 for i in range(1, n + 1)]


def test_monomial_system_sign_cap_is_not_an_empty_set():
    eqs = [to_monomial_equation(p) for p in _unit_squares(12)]
    assert len(solve_monomial_system(eqs)) == 4096
    eqs = [to_monomial_equation(p) for p in _unit_squares(13)]
    with pytest.raises(EnumerationCap):
        solve_monomial_system(eqs)


def test_sign_cap_leaves_the_case_unresolved():
    af, cert, vol = certified("sphere", k=6)
    explorer = _Explorer(af.algebra, generic_ansatz(af.algebra), vol, SolverConfig())
    work = _unit_squares(13)
    ctx = CaseContext(nonzeros=frozenset(f"s{i}" for i in range(1, 14)))
    leaf = explorer._leaf(work, [to_monomial_equation(p) for p in work], ctx)
    assert not leaf.resolved and not leaf.degrees
    assert leaf.residual[-1] == "sign-enumeration cap"


def test_open_leaves_name_why_the_degree_was_not_read_off():
    # at the unconstrained root of lower-grading the degree
    # k1*k3*k5*k6 - k2*k4*k5*k6 is not constant, and no point of it verifies
    af, cert, vol = certified("lower-grading")
    explorer = _Explorer(af.algebra, generic_ansatz(af.algebra), vol, SolverConfig())
    leaf = explorer._residual_leaf([], CaseContext())
    assert not leaf.resolved and leaf.residual == ("degree not constant on the case",)
    leaf = explorer._leaf([], [], CaseContext())
    assert not leaf.resolved
    assert leaf.residual == ("k1*k3*k5*k6 - k2*k4*k5*k6", "witness did not verify")


def test_residual_leaf_resolves_only_a_degree_some_map_attains():
    # on cp(n=1) the degree is k1^2: k1^2 = 2 leaves the constant 2, which no
    # rational k1 attains, so the case stays open
    af, cert, vol = certified("cp", n=1)
    explorer = _Explorer(af.algebra, generic_ansatz(af.algebra), vol, SolverConfig())
    k1 = MPoly.var("k1")
    leaf = explorer._residual_leaf([k1 ** 2 - 2], CaseContext())
    assert not leaf.resolved and leaf.residual == ("-2 + k1^2", "witness did not verify")
    # the zero map attains degree 0 with no witness; degree 1 needs a verified one
    leaf = explorer._residual_leaf([k1 ** 2], CaseContext())
    assert leaf.resolved and leaf.degrees == (0,) and not leaf.witnesses
    leaf = explorer._residual_leaf([k1 ** 2 - 1], CaseContext(nonzeros=frozenset({"k1", "k2"})))
    assert leaf.resolved and leaf.degrees == (1,)
    identity = {g.name: af.algebra.gen(g.name) for g in af.algebra.generators}
    assert [(m.images, d) for m, d in leaf.witnesses] == [(identity, 1)]


def test_leaf_reason_tells_a_failed_witness_from_an_unsupported_degree(monkeypatch):
    af, cert, vol = certified("lower-grading")
    explorer = _Explorer(af.algebra, generic_ansatz(af.algebra), vol, SolverConfig())
    witnesses = []

    def recording_witness(ctx, fixed, family_values, label):
        w = _Explorer._witness(explorer, ctx, fixed, family_values, label)
        witnesses.append((family_values, w))
        return w

    monkeypatch.setattr(explorer, "_witness", recording_witness)
    leaf = explorer._leaf([], [], CaseContext())
    assert leaf.residual[-1] == "witness did not verify"
    # the probe k1 - 1 was found; its sample k1 = 2 is not a morphism
    k = {f"k{i}": ONE for i in range(2, 7)}
    assert witnesses == [({"k1": Fraction(2), **k}, None)]
    # (k1 - k4)*(k2 - k3): pinning all but one unknown to 1 leaves a constant
    k1, k2, k3, k4 = (MPoly.var(f"k{i}") for i in range(1, 5))
    lam = (k1 - k4) * (k2 - k3)
    assert explorer._close_out(CaseContext(), lam, {}) == "degree outside the supported fragment"
    assert len(witnesses) == 1


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
            rep = verify_morphism(af.algebra, morphism.images, vol)
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
    """phi(f(vol)) with every image term normalized and f(vol) expanded in full,
    one Element product per generator factor, without ``apply_algebra_map``."""
    images = [alg.free.element({m: ctx.normalize(c) for m, c in img.terms.items()})
              for img in map(ansatz.images.get, (g.name for g in alg.generators))]
    f_vol = alg.free.zero()
    for mono, c in vol.representative.terms.items():
        term = alg.free.one().scale(c)
        for img, exp in zip(images, mono):
            for _ in range(exp):
                term = term * img
        f_vol = f_vol + term
    lam = vol.functional.apply(f_vol)
    return lam if isinstance(lam, MPoly) else MPoly.const(lam)


def test_pruned_degree_matches_full_expansion_at_catalog_roots():
    for key, params in ALL_KEYS:
        af, cert, vol = certified(key, **params)
        ansatz = generic_ansatz(af.algebra)
        ctx = CaseContext()
        assert volume_degree_polynomial(af.algebra, ansatz, vol, ctx) == \
            _full_expansion_degree(af.algebra, ansatz, vol, ctx), key


PRODUCT_IDS = ["chiral3xchiral3", "chiral2xlower-grading", "lower-gradingxlower-grading"]


@pytest.mark.parametrize("left,right", PRODUCT_PAIRS, ids=PRODUCT_IDS)
def test_pruned_degree_matches_full_expansion_on_product_case_trees(monkeypatch, left, right):
    prod, pvol = product(left, right)
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


def test_every_coefficient_is_an_int_or_a_fraction_that_is_not_integral(monkeypatch, capsys):
    # one representation in every stored coefficient: a float from a plain int
    # division, or a bool, anywhere in the pipeline would reach some sum or
    # product of these runs
    bad = []
    init = Terms.__init__

    def checked(self, terms=None):
        init(self, terms)
        bad.extend((type(self).__name__, c) for c in self.terms.values()
                   if not isinstance(c, Terms) and not canonical_rational(c))

    monkeypatch.setattr(Terms, "__init__", checked)
    for key, params in ALL_KEYS:
        spec = f"{key}({','.join(f'{k}={v}' for k, v in params.items())})" if params else key
        for command in ("check", "volume", "spectrum", "flex"):
            main([command, spec])
    for left, right in PRODUCT_PAIRS:
        degree_spectrum(*product(left, right), SolverConfig(node_budget=400))
    capsys.readouterr()
    assert not bad, bad[:5]


def _certified_volume_cases():
    for key, params in ALL_KEYS:
        af, _, vol = certified(key, **params)
        yield key, af.algebra, vol, SolverConfig()
    for (left, right), name in zip(PRODUCT_PAIRS, PRODUCT_IDS):
        yield (name, *product(left, right), SolverConfig(node_budget=400))


def _witnesses(alg, vol, cfg=SolverConfig()):
    return [w for leaf in degree_spectrum(alg, vol, cfg).leaves for w in leaf.witnesses]


def test_mapping_degree_matches_top_class_coefficient_on_every_witness():
    # verify_morphism reads phi(f(vol)) inside phi's box and relies on Poincare
    # duality for a one-dimensional top cohomology; the reference checks that
    # line by rank and reads the degree off the full f(vol)
    for name, alg, vol, cfg in _certified_volume_cases():
        assert betti(alg, vol.degree) == 1, name
        witnesses = _witnesses(alg, vol, cfg)
        assert witnesses, name
        for morphism, degree in witnesses:
            rep = verify_morphism(alg, morphism.images, vol)
            fvol = apply_algebra_map(alg, morphism.images, vol.representative)
            assert rep.valid and rep.degree == degree == top_class_coefficient(alg, fvol, vol), \
                (name, morphism.label)


def test_constant_factors_leave_the_case_unresolved(monkeypatch):
    # lower-grading reaches the factor step; with only constant factors the
    # case must stay open instead of dropping out as "no solutions"
    af, cert, vol = certified("lower-grading")
    monkeypatch.setattr(endo, "factor_constraint", lambda p: [MPoly.const(2)])
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Inconclusive" and not v.complete
    assert any(leaf.residual[-1:] == ("no nonconstant factor",)
               for leaf in v.leaves if not leaf.resolved)


OPEN_REASONS = {"node budget exceeded", "case depth exceeded", "no nonconstant factor",
                "degree not constant on the case", "sign-enumeration cap",
                "free multiplicative kernel", "degree outside the supported fragment",
                "witness did not verify"}


def test_every_unresolved_leaf_names_its_reason():
    af, cert, vol = certified("lemma", i=0)
    shallow = degree_spectrum(af.algebra, vol, SolverConfig(case_depth=1))
    prod, pvol = product(("lower-grading", {}), ("lower-grading", {}))
    budgeted = degree_spectrum(prod, pvol, SolverConfig(node_budget=400))
    for v in (shallow, budgeted):
        open_leaves = [leaf for leaf in v.leaves if not leaf.resolved]
        assert open_leaves
        for leaf in open_leaves:
            assert leaf.residual[-1] in OPEN_REASONS, leaf
    assert [leaf.residual for leaf in shallow.leaves if not leaf.resolved] == [
        ("-k1^8*k2^8 + k2^13", "-k1^18*k2 + k2^13", "case depth exceeded")]


def test_each_blocking_polynomial_is_factored_once_per_spectrum(monkeypatch):
    prod, pvol = product(("lower-grading", {}), ("lower-grading", {}))
    calls = []

    def counting_factor_constraint(p):
        calls.append(p)
        return factor_constraint(p)

    monkeypatch.setattr(endo, "factor_constraint", counting_factor_constraint)
    v = degree_spectrum(prod, pvol, SolverConfig(node_budget=400))
    assert len(calls) == len(set(calls)) == 23
    # the verdict recorded before the factors were cached
    assert v.classification == "Flexible" and not v.complete
    assert set(v.spectrum) == {0}
    assert [f.describe() for f in v.families] == ["t1^4*t2^3*t3^4*t4^3"]
    assert (len(v.leaves), sum(leaf.resolved for leaf in v.leaves)) == (176, 163)
    # the cache belongs to one exploration: a second spectrum factors again
    degree_spectrum(prod, pvol, SolverConfig(node_budget=400))
    assert len(calls) == 46


def test_witnesses_compose_to_morphisms_of_the_product_degree():
    # deg(f o g) = deg f * deg g; the composites are maps the solver never
    # emitted, so they exercise the Koszul product and the degree read-off
    # on new input
    composed = []
    for name, alg, vol, cfg in _certified_volume_cases():
        witnesses = _witnesses(alg, vol, cfg)
        for f, deg_f in witnesses:
            for g, deg_g in witnesses:
                images = {x: apply_algebra_map(alg, f.images, img) for x, img in g.images.items()}
                rep = verify_morphism(alg, images, vol)
                assert rep.valid and rep.degree == deg_f * deg_g, (name, f.label, g.label)
        composed.append(len(witnesses) ** 2)
    # the ten catalog entries, then the three products
    assert sum(composed[:len(ALL_KEYS)]) == 166 and sum(composed) == 2379


def _attained(verdict, q) -> bool:
    """Whether ``q`` is a constant of the spectrum or a value of one of its
    families: coeff * prod t_v^e_v over nonzero rational t is coeff * u^g for
    g = gcd(e_v), by Bezout."""
    if q in verdict.spectrum:
        return True
    for f in verdict.families:
        g = gcd(*(e for _, e in f.exps))
        r = Fraction(q) / f.coeff
        if r and (r > 0 or g % 2) and all(integer_nthroot(abs(n), g)[1]
                                          for n in (r.numerator, r.denominator)):
            return True
    return False


def test_factor_witnesses_tensor_to_morphisms_of_the_product_degree():
    # f (x) g is a morphism of A (x) B of degree deg f * deg g; where the
    # product's spectrum is complete and each family is a monomial one, that
    # set of constants and families is every degree, so it must hold deg f * deg g
    decided = []
    for (left, right), name in zip(PRODUCT_PAIRS, PRODUCT_IDS):
        a, _, vol_a = certified(left[0], **left[1])
        b, _, vol_b = certified(right[0], **right[1])
        prod, pvol = product(left, right)
        verdict = degree_spectrum(prod, pvol, SolverConfig(node_budget=400))
        if verdict.complete and all(isinstance(f, DegreeFamily) for f in verdict.families):
            decided.append(name)
        gens_a, gens_b = a.algebra.generators, b.algebra.generators
        names_a = [x.name for x in prod.generators[:len(gens_a)]]
        names_b = [x.name for x in prod.generators[len(gens_a):]]
        witnesses_b = _witnesses(b.algebra, vol_b)
        assert witnesses_b, name
        for f, deg_f in _witnesses(a.algebra, vol_a):
            left_images = {n: prod.embed_left(f.images[x.name]) for n, x in zip(names_a, gens_a)}
            for g, deg_g in witnesses_b:
                images = dict(left_images, **{n: prod.embed_right(g.images[x.name])
                                              for n, x in zip(names_b, gens_b)})
                rep = verify_morphism(prod, images, pvol)
                assert rep.valid and rep.degree == deg_f * deg_g, (name, f.label, g.label)
                assert name not in decided or _attained(verdict, rep.degree), \
                    (name, f.label, g.label)
    # lower-grading^2 is incomplete at this budget; chiral2 (x) lower-grading
    # has a polynomial family, which is a probe and not every degree
    assert decided == ["chiral3xchiral3"]


def test_complete_spectrum_without_a_family_outside_the_units_stays_open(monkeypatch, capsys):
    # a map of degree 2 has powers of degree 4, 8, ...: a complete spectrum
    # {0, 1, 2} with no family can only come from a defect
    leaves = [CaseLeaf(("k1 = 0",), True, degrees=(0,)),
              CaseLeaf(("k1 != 0",), True, degrees=(1, 2))]
    monkeypatch.setattr(_Explorer, "run", lambda self, constraints: list(leaves))
    af, _, vol = certified("lemma", i=0)
    v = degree_spectrum(af.algebra, vol)
    assert (v.classification, v.complete, v.spectrum) == ("Inconclusive", False, (0, 1, 2))
    assert [leaf.residual for leaf in v.leaves if not leaf.resolved] == [
        ("spectrum not closed under composition",)]
    assert main(["spectrum", "lemma(i=0)"]) == 2
    assert ("first unresolved case: no assumptions -- spectrum not closed under composition"
            in capsys.readouterr().out)
    # inside {-1, 0, 1}, with a family, or already incomplete: classified as before
    leaves[1] = CaseLeaf(("k1 != 0",), True, degrees=(-1, 1))
    assert degree_spectrum(af.algebra, vol).classification == "Inflexible"
    family = DegreeFamily(1, (("k1", 2),))
    leaves[1] = CaseLeaf(("k1 != 0",), True, degrees=(1, 2), families=(family,))
    v = degree_spectrum(af.algebra, vol)
    assert (v.classification, v.complete) == ("NoOrientationReversal", True)
    leaves[1] = CaseLeaf(("k1 != 0",), False, degrees=(2,), residual=("case depth exceeded",))
    v = degree_spectrum(af.algebra, vol)
    assert [leaf.residual for leaf in v.leaves if not leaf.resolved] == [("case depth exceeded",)]
