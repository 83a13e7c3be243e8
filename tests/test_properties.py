"""Property-based invariants: signs, Leibniz, linear algebra, duality.

All suites run derandomized so the corpus is reproducible run to run.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import built
from minmod import cli
from minmod.cohomology import betti_table, is_exact
from minmod.endo import (CaseContext, Contradiction, extract_constraints,
                         generic_ansatz, simplify)
from minmod.gca import Element, within
from minmod.linalg import LinearSolver
from minmod.poly import MPoly
from minmod.sullivan import (dimension_formula, ellipticity_certificate,
                             extend_derivation, tensor_product)

SETTINGS = dict(derandomize=True, deadline=None, max_examples=60)

COEFFS = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4).filter(bool)


def _algebra():
    return built("lemma", i=0)[0].algebra


@st.composite
def homogeneous(draw, max_degree=40):
    """A nonzero homogeneous element drawn from the degree-n basis."""
    alg = _algebra()
    degrees = [n for n in range(2, max_degree + 1) if alg.basis_of_degree(n)]
    n = draw(st.sampled_from(degrees))
    basis = list(alg.basis_of_degree(n))
    picks = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(COEFFS, min_size=len(picks), max_size=len(picks)))
    return Element(alg.free, dict(zip(picks, coeffs)))


@st.composite
def element(draw, max_degree=40):
    parts = draw(st.lists(homogeneous(max_degree), min_size=1, max_size=3))
    e = parts[0]
    for p in parts[1:]:
        e = e + p
    return e


@settings(**SETTINGS)
@given(homogeneous(20), homogeneous(20))
def test_sign_rule(a, b):
    sign = -1 if (a.degree() % 2) and (b.degree() % 2) else 1
    assert a * b == (b * a).scale(sign)


@settings(**SETTINGS)
@given(homogeneous(20), homogeneous(20), homogeneous(20))
def test_multiplication_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(**SETTINGS)
@given(homogeneous(40), homogeneous(40))
def test_leibniz_rule(a, b):
    alg = _algebra()
    sign = -1 if a.degree() % 2 else 1
    lhs = extend_derivation(alg, a * b)
    rhs = extend_derivation(alg, a) * b + (a * extend_derivation(alg, b)).scale(sign)
    assert lhs == rhs


@settings(**SETTINGS)
@given(element(60))
def test_d_squared_vanishes(e):
    alg = _algebra()
    assert not extend_derivation(alg, extend_derivation(alg, e))


@settings(**SETTINGS)
@given(homogeneous(80))
def test_exactness_witness_replay(w):
    # d(w) is closed; the solver must find a preimage and the witness replays
    alg = _algebra()
    e = extend_derivation(alg, w)
    if not e:
        return
    witness = is_exact(alg, e)
    assert witness is not None
    assert witness.replay(alg)
    assert extend_derivation(alg, witness.preimage) == e


def _truncate(e, box):
    return Element(e.alg, {m: c for m, c in e.terms.items() if within(m, box)})


@settings(**SETTINGS)
@given(element(40), element(40), st.tuples(*[st.integers(0, 10)] * 7))
def test_product_truncates_factorwise(a, b, box):
    # exponents only grow under multiplication, so terms outside the box
    # (one bound per generator of lemma(i=0)) never contribute to the
    # product's terms inside it
    expected = _truncate(a * b, box)
    assert _truncate(_truncate(a, box) * _truncate(b, box), box) == expected
    assert a.mul(b, box) == expected


@st.composite
def linear_system(draw):
    nvars = draw(st.integers(2, 6))
    nrows = draw(st.integers(1, 8))
    rows = []
    for _ in range(nrows):
        row = {j: draw(COEFFS)
               for j in range(nvars) if draw(st.booleans())}
        rows.append(row)
    return nvars, rows


@settings(**SETTINGS)
@given(linear_system())
def test_rank_nullity(sys):
    nvars, rows = sys
    solver = LinearSolver()
    for row in rows:
        solver.add_equation(row, Fraction(0))
    kernel = solver.kernel_basis(range(nvars))
    assert solver.rank + len(kernel) == nvars
    for vec in kernel:
        for row in rows:
            assert sum(c * vec.get(j, Fraction(0)) for j, c in row.items()) == 0


@settings(**SETTINGS)
@given(linear_system(), st.lists(COEFFS, min_size=6, max_size=6))
def test_consistent_system_solves(sys, point):
    # rhs built from a known point is always consistent and residual-free
    nvars, rows = sys
    solver = LinearSolver()
    for row in rows:
        rhs = sum(c * point[j] for j, c in row.items())
        solver.add_equation(row, rhs)
    sol = solver.particular_solution()
    for row in rows:
        rhs = sum(c * point[j] for j, c in row.items())
        assert sum(c * sol.get(j, Fraction(0)) for j, c in row.items()) == rhs


def test_poincare_duality_lower_grading():
    alg = built("lower-grading")[0].algebra
    top = dimension_formula(alg)
    table = betti_table(alg, top)
    assert table[0] == 1 and table[top] == 1
    for n in range(top + 1):
        assert table[n] == table[top - n], n


def _hilbert_coefficients(generators, bound):
    """Series of the free algebra: (1+q^a) per odd a, 1/(1-q^b) per even b."""
    coeff = {0: 1}
    for g in generators:
        if g.degree % 2:
            exps = (0, g.degree)
        else:
            exps = range(0, bound, g.degree)
        nxt: dict = {}
        for e, c in coeff.items():
            for k in exps:
                if e + k < bound:
                    nxt[e + k] = nxt.get(e + k, 0) + c
        coeff = nxt
    return coeff


def test_basis_counts_match_series_oracle():
    for key, params in (("lemma", {"i": 0}), ("chiral3", {"l": 5}),
                        ("lower-grading", {}), ("cp", {"n": 4})):
        alg = built(key, **params)[0].algebra
        bound = 41
        coeff = _hilbert_coefficients(alg.generators, bound)
        for n in range(1, bound):
            assert len(alg.basis_of_degree(n)) == coeff.get(n, 0), (key, n)


def _restart_simplify(constraints, ctx):
    """Reference: the simplify that re-scanned every constraint after each move."""
    work = [ctx.normalize(p) for p in constraints]
    pending: dict = {}
    changed = True
    while changed:
        changed = False
        cleaned, seen = [], set()
        for p in work:
            p = p.substitute(pending)
            if not p:
                continue
            c = p.constant_value()
            if c is not None:
                raise Contradiction(f"0 = {c}")
            content = {v: e for v, e in p.monomial_content().items() if v in ctx.nonzeros}
            if content:
                p = p.divide_monomial(content)
            key = frozenset((p * (Fraction(1) / p.terms[min(p.terms)])).terms.items())
            if key not in seen:
                seen.add(key)
                cleaned.append(p)
        work, pending = cleaned, {}
        for p in work:
            sm = p.as_single_monomial()
            if sm is None:
                continue
            free = [v for v in sm[1] if v not in ctx.nonzeros]
            if not free:
                raise Contradiction(str(p))
            if len(free) == 1:
                ctx = ctx.with_zero(free[0])
                pending[free[0]] = MPoly()
                changed = True
                break
        if changed:
            continue
        for p in work:
            bl = p.bare_linear_var()
            if bl is not None:
                value = p.eliminate(*bl)
                ctx = ctx.with_sub(bl[0], value)
                pending[bl[0]] = value
                work.remove(p)
                changed = True
                break
    return work, ctx


UNKNOWNS = [f"k{i}" for i in range(1, 9)]


@st.composite
def small_poly(draw):
    terms = draw(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(UNKNOWNS), st.integers(1, 2), max_size=3),
        st.integers(-3, 3).filter(bool)), min_size=1, max_size=4))
    p = MPoly()
    for exps, c in terms:
        p = p + MPoly.monomial(exps, c)
    return p


@st.composite
def constraint_system(draw):
    polys = draw(st.lists(small_poly(), max_size=10))
    if len(polys) >= 2 and draw(st.booleans()):
        # a scaled copy exercises the rule for colliding dedup keys
        i, j = draw(st.lists(st.integers(0, len(polys) - 1), min_size=2, max_size=2,
                             unique=True))
        polys[j] = polys[i] * draw(st.sampled_from([Fraction(-1), Fraction(2, 3)]))
    nonzeros = draw(st.frozensets(st.sampled_from(UNKNOWNS), max_size=4))
    return polys, CaseContext(nonzeros=nonzeros)


def _outcome(fn, polys, ctx):
    try:
        return fn(list(polys), ctx)
    except Contradiction:
        return "contradiction"


@settings(**dict(SETTINGS, max_examples=400))
@given(constraint_system())
def test_worklist_simplify_matches_restart_loop(system):
    # the same work list in the same order and an equal CaseContext
    # (zeros, nonzeros, substitutions in order, assumptions), or both refuse
    polys, ctx = system
    assert _outcome(simplify, polys, ctx) == _outcome(_restart_simplify, polys, ctx)


def test_root_simplify_of_chiral3_square_is_pinned():
    a = cli.load_algebra("chiral3(l=5)")
    cert = ellipticity_certificate(a.algebra)
    prod = tensor_product(a.algebra, a.algebra, cert, cert, a.volume, a.volume)
    cons = extract_constraints(prod, generic_ansatz(prod))
    work, ctx = simplify(cons, CaseContext())
    assert (len(cons), len(work), len(ctx.zeros), len(ctx.subs)) == (370, 50, 150, 12)
    assert [v for v, _ in ctx.subs] == ["k9", "k8", "k11", "k10", "k41", "k40",
                                        "k93", "k94", "k95", "k99", "k125", "k130"]
