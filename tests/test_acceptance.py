"""End-to-end acceptance: one test per headline claim.

Each test re-derives its numbers from scratch through the public API; no
cached results.  A failing test here means the implementation and the claimed
value disagree; see the project notes for the two claims the implementation
refutes (the x2 nilpotency exponent in criterion 1, and the chirality
classification of the two-parameter families in criterion 4).
"""

import random
from fractions import Fraction

from conftest import ALL_KEYS, built, certified
from minmod import catalog
from minmod.cohomology import betti_table, is_closed, is_exact, verify_volume_form
from minmod.dsl import parse_element
from minmod.endo import (CaseContext, SolverConfig, degree_spectrum,
                         extract_constraints, generic_ansatz, simplify,
                         verify_morphism)
from minmod.flexcert import (check_prop4_condition, construct_lower_grading,
                             monomial_differential_check,
                             multiple_family_verify, scaling_certificate,
                             two_stage_decomposition)
from minmod.gca import Element
from minmod.linalg import LinearSolver
from minmod.poly import MPoly
from minmod.sullivan import (check_d_squared, check_minimality,
                             dimension_formula, eliminate_contractible_pair,
                             ellipticity_certificate, extend_derivation,
                             tensor_product)
from test_properties import _hilbert_coefficients

SEED = 20260824


def test_criterion_1_base_family_check_dim_volume():
    for i in (0, 1, 2):
        af, cert, vol = certified("lemma", i=i)
        alg = af.algebra
        assert check_d_squared(alg) and check_minimality(alg), i
        assert cert.powers["x1"][0] == 19 + i, i
        assert cert.powers["x2"][0] == 26, i
        assert dimension_formula(alg) == 231 + 4 * i, i
        assert vol.degree == 231 + 4 * i
        assert not extend_derivation(alg, af.volume)
        assert is_exact(alg, af.volume) is None


def test_criterion_2_base_family_spectrum_and_constraints():
    af, cert, vol = certified("lemma", i=0)
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "Inflexible" and set(v.spectrum) == {0, 1, -1}
    af1, cert1, vol1 = certified("lemma", i=1)
    v1 = degree_spectrum(af1.algebra, vol1)
    assert v1.classification == "Inflexible" and set(v1.spectrum) == {0, 1}
    cons = extract_constraints(af.algebra, generic_ansatz(af.algebra))
    work, ctx = simplify(cons, CaseContext())
    # the eliminations: every value but the zeroings
    closure = list(cons) + list(work) + [MPoly.var(n) - val for n, val in ctx.values.items()
                                         if f"{n} = 0" not in ctx.assumptions]
    k = {i: MPoly.var(f"k{i}") for i in range(1, 9)}
    for t in (k[3] - k[1] ** 4 * k[2] ** 2, k[4] - k[1] ** 3 * k[2] ** 3,
              k[5] - k[1] ** 2 * k[2] ** 4, k[6],
              k[1] ** 8 * k[2] ** 8 - k[1] ** 18 * k[2],
              k[1] ** 18 * k[2] - k[2] ** 13):
        assert _in_span(closure, t), t


def test_criterion_3_fibered_chain():
    af = catalog.build("chain-fibered")
    reduced = eliminate_contractible_pair(af.algebra, "x2'", "x2")
    assert dimension_formula(reduced) == 66
    cert = ellipticity_certificate(reduced)
    vol = verify_volume_form(reduced, parse_element(reduced, "xb2^33"), cert)
    v = degree_spectrum(reduced, vol)
    assert v.classification == "Inflexible" and set(v.spectrum) == {0, 1, -1}


def test_criterion_4_chirality_families():
    af, cert, vol = certified("chiral1", l1=4, l2=2)
    assert dimension_formula(af.algebra) == 54
    v = degree_spectrum(af.algebra, vol)
    assert [f.describe() for f in v.families] == ["t^28"]
    assert v.classification == "NoOrientationReversal"
    af, cert, vol = certified("chiral2", l=4)
    assert dimension_formula(af.algebra) == 73
    v = degree_spectrum(af.algebra, vol)
    assert [f.describe() for f in v.families] == ["t^38"]
    assert v.classification == "NoOrientationReversal"
    af, cert, vol = certified("chiral3", l=5)
    assert dimension_formula(af.algebra) == 47
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "NoOrientationReversal" and v.complete
    assert [f.describe() for f in v.families] == ["t^24"]


def test_criterion_5_flexibility_suite():
    af, cert, vol = certified("lower-grading")
    alg = af.algebra
    assert monomial_differential_check(alg) == (True, None)
    grading = construct_lower_grading(alg)
    assert grading.degrees == (0, 0, 1, 2)
    assert check_prop4_condition(alg, grading) == (True, None)
    sc = scaling_certificate(alg, grading, vol)
    assert sc.degree == Fraction(2) ** 21
    checks = multiple_family_verify(alg, grading, vol, ks=(1, 2, 3))
    assert all(c.ok for c in checks)
    assert [c.degree for c in checks] == [Fraction(2 * k) ** 21 for k in (1, 2, 3)]
    bn = parse_element(alg, "b*n")
    assert is_closed(alg, bn) and is_exact(alg, bn) is None
    assert two_stage_decomposition(alg) is None
    af, cert, vol = certified("cp", n=4)
    v = degree_spectrum(af.algebra, vol)
    assert v.classification == "NoOrientationReversal" and v.flexible
    assert [f.describe() for f in v.families] == ["t^8"]


def test_criterion_6_tensor_square():
    a, cert, vol = certified("lemma", i=0)
    prod = tensor_product(a.algebra, a.algebra, cert, cert, a.volume, a.volume)
    assert dimension_formula(prod) == 462
    pcert = ellipticity_certificate(prod)
    pv = prod.embed_left(a.volume) * prod.embed_right(a.volume)
    pvol = verify_volume_form(prod, pv, pcert)
    swap = {}
    for g in a.algebra.generators:
        swap[f"{g.name}_1"] = prod.gen(f"{g.name}_2")
        swap[f"{g.name}_2"] = prod.gen(f"{g.name}_1")
    rep = verify_morphism(prod, swap, pvol)
    # swapping two odd-degree volume factors picks up the Koszul sign
    assert rep.valid and rep.degree == -1
    v = degree_spectrum(prod, pvol, SolverConfig(node_budget=400))
    assert v.classification == "Inconclusive"


def test_criterion_7_property_suites():
    rng = random.Random(SEED)
    alg = built("lemma", i=0)[0].algebra
    degrees = [n for n in range(2, 41) if alg.basis_of_degree(n)]

    def pick(max_terms=2):
        n = rng.choice(degrees)
        basis = alg.basis_of_degree(n)
        terms = {rng.choice(basis): Fraction(rng.randint(1, 9), rng.randint(1, 4))
                 for _ in range(rng.randint(1, max_terms))}
        return Element(alg.free, terms)

    for _ in range(1000):  # Koszul sign rule
        a, b = pick(), pick()
        sign = -1 if (a.degree() % 2) and (b.degree() % 2) else 1
        assert a * b == (b * a).scale(sign)
    for _ in range(1000):  # Leibniz rule
        a, b = pick(), pick()
        sign = -1 if a.degree() % 2 else 1
        assert extend_derivation(alg, a * b) == \
            extend_derivation(alg, a) * b + (a * extend_derivation(alg, b)).scale(sign)
    for _ in range(1000):  # rank-nullity on random sparse systems
        nvars = rng.randint(2, 6)
        rows = [{j: c for j in range(nvars) if rng.random() < 0.6
                 and (c := Fraction(rng.randint(-4, 4)))}
                for _ in range(rng.randint(1, 7))]
        solver = LinearSolver()
        for row in rows:
            solver.add_equation(row, Fraction(0))
        assert solver.rank + len(solver.kernel_basis(range(nvars))) == nvars
    small = built("chiral3", l=5)[0].algebra
    small_degrees = [n for n in range(2, 41) if small.basis_of_degree(n)]
    for _ in range(1000):  # exactness witnesses replay
        n = rng.choice(small_degrees)
        w = Element(small.free, {rng.choice(small.basis_of_degree(n)): Fraction(1)})
        e = extend_derivation(small, w)
        if not e:
            continue
        witness = is_exact(small, e)
        assert witness is not None and witness.replay(small)

    top = dimension_formula(built("lower-grading")[0].algebra)
    table = betti_table(built("lower-grading")[0].algebra, top)
    assert len(table) == 19
    assert all(table[n] == table[top - n] for n in range(top + 1))

    for key, params in ALL_KEYS:
        cat = built(key, **params)[0].algebra
        coeff = _hilbert_coefficients(cat.generators, 41)
        for n in range(1, 41):
            assert len(cat.basis_of_degree(n)) == coeff.get(n, 0), (key, n)


def _in_span(polys, target):
    monos = sorted({m for p in list(polys) + [target] for m in p.terms})
    index = {m: j for j, m in enumerate(monos)}
    solver = LinearSolver()
    for p in polys:
        solver.add_equation({index[m]: c for m, c in p.terms.items()}, Fraction(0))
    rank = solver.rank
    solver.add_equation({index[m]: c for m, c in target.terms.items()}, Fraction(0))
    return solver.rank == rank
