"""Differential tests: the arithmetic kernels against the code they replaced.

Each reference below is the earlier implementation, kept verbatim in
behaviour: ``extend_derivation`` as a three-Element product per Leibniz
term, ``_even_fills`` as a recursive generator, the bigraded cohomology
basis as representatives (kernel vectors kept when independent of the image
from one level up) against its count from ranks, ``LinearSolver``
as Gauss-Jordan on Fraction rows and as Gauss-Jordan on primitive integer
rows with an index of the rows each variable occurs in,
``apply_algebra_map`` as a sum of
Element products, and ``is_exact``, ``top_functional_from_volume`` and
``TopFunctional.replay_annihilates_d`` on the full matrix of d in one
degree; ``solve_monomial_system`` is a rank check, one ``LinearSolver``
solve per prime of the constants and a GF(2) eliminator for the signs;
``MPoly.substitute`` builds a one-term ``MPoly`` per term and multiplies it
by each value one power at a time, and ``mul_terms`` finds the sign of each
pair of monomials from scratch; ``factor_constraint`` and ``reduce_modulo``
go through sympy expressions (``factor_list`` and ``groebner(...).reduce``).
"""

import random
from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys import groebnertools
from sympy.polys.polyerrors import CoercionFailed

from conftest import ALL_KEYS, PRODUCT_PAIRS, built, canonical_rational, certified, product
from minmod import endo, sullivan
from minmod.cohomology import (ExactnessWitness, TopFunctional, d_matrix, is_closed,
                               is_exact, top_functional_from_volume)
from minmod.endo import (SIGN_BITS_CAP, EnumerationCap, MonomialEquation,
                         SolverConfig, degree_spectrum, factor_constraint, generic_ansatz,
                         reduce_modulo, simplify, solve_monomial_system)
from minmod.flexcert import bigraded_cohomology_basis, construct_lower_grading, scaling_images
from minmod.gca import (Element, FreeGCA, Generator, StructureError, _even_fills,
                        mul_terms, within)
from minmod.linalg import Inconsistent, LinearSolver, _integer_row
from minmod.poly import MPoly, add_terms, quotient
from minmod.sullivan import (SullivanAlgebra, apply_algebra_map, dimension_formula,
                             ellipticity_certificate, extend_derivation, tensor_product)

ZERO = Fraction(0)
ONE = Fraction(1)


def reference_extend_derivation(alg, e):
    free = alg.free
    degs = free.degrees
    out = free.zero()
    for mono, c in e.terms.items():
        prefix_parity = 0
        for i, exp in enumerate(mono):
            if exp:
                di = alg.diff[i]
                if di:
                    left = list(mono[: i + 1]) + [0] * (len(mono) - i - 1)
                    left[i] = exp - 1
                    right = [0] * (i + 1) + list(mono[i + 1:])
                    sign = -1 if prefix_parity % 2 else 1
                    coeff = c * Fraction(sign * exp)
                    term = Element(free, {tuple(left): coeff}) * di * Element(free, {tuple(right): ONE})
                    out = out + term
                prefix_parity += exp * degs[i]
    return out


class ReferenceLinearSolver:
    """Incremental Gauss-Jordan elimination over Q.

    Rows are kept mutually reduced: every pivot row has coefficient 1 on its
    pivot variable and 0 on every other pivot variable.
    """

    def __init__(self):
        self.pivrows = {}  # pivot var -> (row dict, rhs)

    @property
    def rank(self) -> int:
        return len(self.pivrows)

    def _reduce(self, row, rhs):
        # pivot rows reference no other pivots, so one pass eliminates all
        row = dict(row)
        for v in [v for v in row if v in self.pivrows]:
            c = row.pop(v, ZERO)
            if not c:
                continue
            prow, prhs = self.pivrows[v]
            for k, val in prow.items():
                if k == v:
                    continue
                nv = row.get(k, ZERO) - c * val
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            rhs = rhs - c * prhs
        return row, rhs

    def add_equation(self, row, rhs=ZERO) -> None:
        row, rhs = self._reduce(row, rhs)
        if not row:
            if rhs:
                raise Inconsistent(f"0 == {rhs}")
            return
        v = min(row)
        c = row[v]
        norm = {k: val / c for k, val in row.items()}
        nrhs = rhs / c
        # clear the new pivot variable from existing rows
        for pv, (prow, prhs) in list(self.pivrows.items()):
            if v in prow:
                f = prow.pop(v)
                for k, val in norm.items():
                    if k == v:
                        continue
                    nv = prow.get(k, ZERO) - f * val
                    if nv:
                        prow[k] = nv
                    else:
                        prow.pop(k, None)
                self.pivrows[pv] = (prow, prhs - f * nrhs)
        self.pivrows[v] = (norm, nrhs)

    def particular_solution(self) -> dict:
        return {v: rhs for v, (_, rhs) in self.pivrows.items() if rhs}

    def kernel_basis(self, variables) -> list:
        pivots = set(self.pivrows)
        basis = []
        for f in sorted(v for v in variables if v not in pivots):
            vec = {f: ONE}
            for pv, (prow, _) in self.pivrows.items():
                c = prow.get(f)
                if c:
                    vec[pv] = -c
            basis.append(vec)
        return basis


class ReferenceIntegerGaussJordan:
    """Incremental Gauss-Jordan elimination over Q on primitive integer rows.

    Rows are kept mutually reduced: each new pivot is cleared out of every
    older row that holds it, found through ``_mentions``.
    """

    def __init__(self):
        self.pivrows = {}  # pivot var -> (integer row dict, integer rhs)
        self._mentions = {}  # var -> pivot vars whose rows hold it off the pivot

    @property
    def rank(self) -> int:
        return len(self.pivrows)

    def _reduce(self, row, rhs):
        row, rhs, s = _integer_row(row, rhs)
        # pivot rows reference no other pivots, so one pass eliminates all
        for v in [v for v in row if v in self.pivrows]:
            f = row.pop(v)
            prow, prhs = self.pivrows[v]
            a = prow[v]
            g = gcd(a, f)
            a //= g
            f //= g
            if a != 1:
                row = {k: a * c for k, c in row.items()}
                rhs *= a
                s *= a
            for k, c in prow.items():
                if k == v:
                    continue
                nv = row.get(k, 0) - f * c
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            rhs -= f * prhs
        return row, rhs, s

    def add_equation(self, row, rhs=ZERO) -> None:
        row, rhs, s = self._reduce(row, rhs)
        if not row:
            if rhs:
                raise Inconsistent(f"0 == {Fraction(rhs, s)}")
            return
        v = min(row)
        g = gcd(rhs, *row.values())
        if row[v] < 0:
            g = -g
        if g != 1:
            row = {k: c // g for k, c in row.items()}
            rhs //= g
        b = row[v]
        # clear the new pivot variable from the rows that hold it
        for pv in self._mentions.pop(v, ()):
            prow, prhs = self.pivrows[pv]
            f = prow.pop(v)
            h = gcd(b, f)
            a, f = b // h, f // h
            if a != 1:
                prow = {k: a * c for k, c in prow.items()}
                prhs *= a
            for k, c in row.items():
                if k == v:
                    continue
                nv = prow.get(k, 0) - f * c
                if nv:
                    prow[k] = nv
                    self._mentions.setdefault(k, set()).add(pv)
                else:
                    prow.pop(k, None)
                    self._mentions[k].discard(pv)
            prhs -= f * rhs
            h = gcd(prhs, *prow.values())
            if h != 1:
                prow = {k: c // h for k, c in prow.items()}
                prhs //= h
            self.pivrows[pv] = (prow, prhs)
        for k in row:
            if k != v:
                self._mentions.setdefault(k, set()).add(v)
        self.pivrows[v] = (row, rhs)

    def particular_solution(self) -> dict:
        return {v: Fraction(rhs, prow[v]) for v, (prow, rhs) in self.pivrows.items() if rhs}

    def kernel_basis(self, variables) -> list:
        pivots = set(self.pivrows)
        basis = []
        for f in sorted(v for v in variables if v not in pivots):
            vec = {f: ONE}
            for pv, (prow, _) in self.pivrows.items():
                c = prow.get(f)
                if c:
                    vec[pv] = Fraction(-c, prow[pv])
            basis.append(vec)
        return basis


def _reference_gf2_enumerate(rows, rhs, variables):
    """All sign vectors (dicts var -> +-1) solving the GF(2) system.

    None when the system is inconsistent; EnumerationCap when more than
    SIGN_BITS_CAP sign bits are free.
    """
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    masks = []
    bits = []
    for row, b in zip(rows, rhs):
        mask = 0
        for v, e in row.items():
            if e % 2:
                mask |= 1 << index[v]
        masks.append(mask)
        bits.append(b)
    # Gaussian elimination on bitmasks
    pivots = {}
    for mask, b in zip(masks, bits):
        for pc in sorted(pivots, reverse=True):
            if mask >> pc & 1:
                pmask, pb = pivots[pc]
                mask ^= pmask
                b ^= pb
        if mask == 0:
            if b:
                return None
            continue
        pivots[mask.bit_length() - 1] = (mask, b)
    free = [j for j in range(n) if j not in pivots]
    if len(free) > SIGN_BITS_CAP:
        raise EnumerationCap("sign-enumeration cap")
    out = []
    for sel in range(1 << len(free)):
        vec = 0
        for t, j in enumerate(free):
            if sel >> t & 1:
                vec |= 1 << j
        # pivot rows only involve strictly lower columns besides their pivot,
        # so ascending order finalizes dependencies first
        for pc in sorted(pivots):
            pmask, pb = pivots[pc]
            acc = pb
            rest = pmask & ~(1 << pc)
            acc ^= bin(rest & vec).count("1") % 2
            if acc:
                vec |= 1 << pc
        out.append({v: (-1 if vec >> index[v] & 1 else 1) for v in variables})
    return out


def _reference_vp(q: Fraction, p: int) -> int:
    """The p-adic valuation of q, by repeated division."""
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def reference_solve_monomial_system(eqs) -> tuple:
    """Magnitudes by one LinearSolver solve per prime after a rank check,
    signs by Gaussian elimination over GF(2)."""
    from sympy import factorint

    variables = sorted({v for eq in eqs for v, _ in eq.exps})
    rows = []
    consts = []
    for eq in eqs:
        if not eq.exps:
            if eq.const != 1:
                return ()
            continue
        rows.append(dict(eq.exps))
        consts.append(eq.const)
    if not rows:  # then no equation has a variable
        return ({},)
    solver = LinearSolver()
    for row in rows:
        solver.add_equation(row)
    if solver.rank < len(variables):
        raise EnumerationCap("free multiplicative kernel")
    primes = set()
    for c in consts:  # signs are the GF(2) step's: factor magnitudes only
        primes |= set(factorint(abs(c.numerator)))
        primes |= set(factorint(c.denominator))
    magnitudes = {v: ONE for v in variables}
    for p in primes:
        psolver = LinearSolver()
        try:
            for row, c in zip(rows, consts):
                psolver.add_equation(row, _reference_vp(c, p))
        except Inconsistent:
            return ()
        sol = psolver.particular_solution()
        for v, e in sol.items():
            if e.denominator != 1:
                return ()
            magnitudes[v] *= Fraction(p) ** int(e)
    signs = _reference_gf2_enumerate(rows, [1 if c < 0 else 0 for c in consts], variables)
    if signs is None:
        return ()
    sols = []
    for sv in signs:
        cand = {v: sv[v] * magnitudes[v] for v in variables}
        if all(eq.holds(cand) for eq in eqs if eq.exps):
            sols.append(cand)
    return tuple(sols)


def reference_apply_algebra_map(target, images, e, box=None):
    src = e.alg
    out = target.free.zero()
    for mono, c in e.terms.items():
        term = target.free.one().scale(c)
        for i, exp in enumerate(mono):
            if exp:
                name = src.generators[i].name
                for _ in range(exp):
                    term = Element(target.free, mul_terms(target.free, term.terms,
                                                          images[name].terms, box))
        out = out + term
    return out


def reference_is_exact(alg, e):
    if not e:
        return ExactnessWitness(e, alg.free.zero())
    assert is_closed(alg, e)
    n = e.degree()
    if n == 0:
        return None
    mat = d_matrix(alg, n - 1)
    row_index = {m: r for r, m in enumerate(mat.codomain)}
    rows: dict = {}
    for j, col in enumerate(mat.columns):
        for r, c in col.items():
            rows.setdefault(r, {})[j] = c
    rhs = {}
    for m, c in e.terms.items():
        rhs[row_index[m]] = c
    solver = LinearSolver()
    try:
        for r in sorted(set(rows) | set(rhs)):
            solver.add_equation(rows.get(r, {}), rhs.get(r, ZERO))
    except Inconsistent:
        return None
    sol = solver.particular_solution()
    pre = alg.free.element({mat.domain[j]: c for j, c in sol.items()})
    return ExactnessWitness(e, pre)


def reference_top_functional_from_volume(alg, vol):
    n = vol.degree()
    mat = d_matrix(alg, n - 1)
    basis = mat.codomain
    row_index = {m: r for r, m in enumerate(basis)}
    solver = LinearSolver()
    try:
        for col in mat.columns:
            if col:
                solver.add_equation(dict(col), ZERO)
        solver.add_equation({row_index[m]: c for m, c in vol.terms.items()}, ONE)
    except Inconsistent:
        return None
    sol = solver.particular_solution()
    phi = {basis[r]: c for r, c in sol.items()}
    return TopFunctional(alg, phi)


def reference_replay_annihilates_d(functional, degree):
    mat = d_matrix(functional.alg, degree - 1)
    for col in mat.columns:
        s = ZERO
        for r, c in col.items():
            v = functional.phi.get(mat.codomain[r])
            if v:
                s += c * v
        if s:
            return False
    return True


def reference_even_fills(degrees, target):
    if not degrees:
        if target == 0:
            yield ()
        return
    d = degrees[0]
    rest = degrees[1:]
    for e in range(target // d + 1):
        for tail in reference_even_fills(rest, target - e * d):
            yield (e,) + tail


def reference_bigraded_cohomology_basis(alg, grading, up_to):
    out = []
    for n in range(1, up_to + 1):
        by_level = {}
        for m in alg.basis_of_degree(n):
            by_level.setdefault(grading.of_monomial(m), []).append(m)
        for lev in sorted(by_level):
            kernel = _reference_kernel_elements(alg, by_level[lev])
            if not kernel:
                continue
            image = _reference_image_elements(alg, n, lev + 1, grading)
            out += [(n, lev, e) for e in _independent_modulo(kernel, image)]
    return out


def _kernel_elements(free, monos, diffs) -> list:
    solver = LinearSolver()
    rows: dict = {}
    for j, dm in enumerate(diffs):
        for mm, c in dm.terms.items():
            rows.setdefault(mm, {})[j] = c
    for row in rows.values():
        solver.add_equation(row, ZERO)
    basis = solver.kernel_basis(range(len(monos)))
    return [Element(free, {monos[j]: c for j, c in vec.items() if c})
            for vec in basis]


def _independent_modulo(kernel, image) -> list:
    monos = sorted({m for e in kernel + image for m in e.terms})
    index = {m: j for j, m in enumerate(monos)}
    solver = LinearSolver()
    for e in image:
        solver.add_equation({index[m]: c for m, c in e.terms.items()}, ZERO)
    kept = []
    for e in kernel:
        before = solver.rank
        solver.add_equation({index[m]: c for m, c in e.terms.items()}, ZERO)
        if solver.rank > before:
            kept.append(e)
    return kept


def _reference_kernel_elements(alg, monos):
    solver = LinearSolver()
    rows = {}
    for j, m in enumerate(monos):
        img = reference_extend_derivation(alg, Element(alg.free, {m: ONE}))
        for mm, c in img.terms.items():
            rows.setdefault(mm, {})[j] = c
    for row in rows.values():
        solver.add_equation(row, ZERO)
    return [Element(alg.free, {monos[j]: c for j, c in vec.items() if c})
            for vec in solver.kernel_basis(range(len(monos)))]


def _reference_image_elements(alg, n, lev, grading):
    out = []
    for m in alg.basis_of_degree(n - 1):
        if grading.of_monomial(m) != lev:
            continue
        img = reference_extend_derivation(alg, Element(alg.free, {m: ONE}))
        if img:
            out.append(img)
    return out


def _same(new, ref):
    # equal terms in the same order, so everything downstream iterates alike
    assert new.alg is ref.alg
    assert list(new.terms.items()) == list(ref.terms.items())


def _random_element(rng, alg, n):
    basis = alg.basis_of_degree(n)
    picked = rng.sample(basis, min(len(basis), rng.randint(1, 6)))
    return Element(alg.free, {m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
                              for m in picked})


def _id(key, params):
    return key + "".join(f"-{k}{v}" for k, v in params.items())


@pytest.mark.parametrize("key,params", ALL_KEYS, ids=[_id(*kp) for kp in ALL_KEYS])
def test_extend_derivation_matches_three_product_reference(key, params):
    alg = built(key, **params)[0].algebra
    rng = random.Random(f"{key}{sorted(params.items())}")
    degrees = [n for n in range(1, dimension_formula(alg) + 1) if alg.basis_of_degree(n)]
    for _ in range(40):
        e = _random_element(rng, alg, rng.choice(degrees))
        _same(extend_derivation(alg, e), reference_extend_derivation(alg, e))
    for dg in alg.diff:
        _same(extend_derivation(alg, dg), reference_extend_derivation(alg, dg))


def test_extend_derivation_matches_reference_when_d_uses_later_generators():
    # catalog differentials only use earlier generators, so there the
    # Koszul sign of (left * d(x_i)) * right is always +1; here it is not
    # and d(u) has odd factors on both sides of u, each with odd generators
    # (b, a) in between to cross
    free = FreeGCA([Generator("x", 4), Generator("w", 3), Generator("b", 3),
                    Generator("u", 7), Generator("a", 3), Generator("y", 2),
                    Generator("v", 5)])
    g = {n: free.gen(n) for n in free.index}
    alg = SullivanAlgebra(free, {"x": g["a"] * g["y"], "w": g["y"] ** 2, "b": g["y"] ** 2,
                                 "u": g["w"] * g["v"] + g["b"] * g["a"] * g["y"],
                                 "a": g["y"] ** 2, "v": g["w"] * g["a"]})
    rng = random.Random(7)
    for _ in range(60):
        e = _random_element(rng, alg, rng.randint(2, 16))
        _same(extend_derivation(alg, e), reference_extend_derivation(alg, e))


@pytest.mark.parametrize("key,params", [("chiral3", {"l": 5}), ("lower-grading", {})],
                         ids=["chiral3-l5", "lower-grading"])
def test_extend_derivation_matches_reference_on_symbolic_ansatz(key, params):
    alg = built(key, **params)[0].algebra
    ansatz = generic_ansatz(alg)
    for fv in ansatz.images.values():
        _same(extend_derivation(alg, fv), reference_extend_derivation(alg, fv))


def test_even_fills_match_the_recursive_enumeration_in_order():
    rng = random.Random(6)
    for _ in range(400):
        degrees = tuple(rng.choice((2, 4, 6, 8, 10, 12)) for _ in range(rng.randint(0, 5)))
        target = rng.randint(-3, 40)
        assert _even_fills(degrees, target) == list(reference_even_fills(degrees, target))


FLEX_KEYS = (("lower-grading", {}), ("chiral3", {"l": 5}), ("cp", {"n": 4}),
             ("sphere", {"k": 6}), ("chiral1", {"l1": 4, "l2": 2}))


@pytest.mark.parametrize("key,params", FLEX_KEYS, ids=[_id(*kp) for kp in FLEX_KEYS])
def test_bigraded_basis_matches_per_level_reference(key, params):
    alg = built(key, **params)[0].algebra
    grading = construct_lower_grading(alg)
    top = dimension_formula(alg)
    ref = reference_bigraded_cohomology_basis(alg, grading, top)
    assert bigraded_cohomology_basis(alg, grading, top) == [(n, lev) for n, lev, _ in ref]


def _insert(new, ref, row, rhs):
    """Insert one equation into both solvers; both accept it or both raise alike."""
    outcome = []
    for solver in (new, ref):
        try:
            solver.add_equation(row, rhs)
            outcome.append(None)
        except Inconsistent as exc:
            outcome.append(str(exc))
    assert outcome[0] == outcome[1], (row, rhs)
    return outcome[1] is not None


def _solver_outputs_agree(new, ref, variables):
    assert new.rank == ref.rank
    for a, b in ((new.particular_solution(), ref.particular_solution()),
                 *zip(new.kernel_basis(variables), ref.kernel_basis(variables))):
        assert list(a.items()) == list(b.items())
        assert all(map(canonical_rational, a.values()))
    assert len(new.kernel_basis(variables)) == len(ref.kernel_basis(variables))


def _coefficient(rng, kind):
    if kind in ("integer", "monomial"):
        return Fraction(rng.choice((-3, -2, -1, 1, 1, 2, 4, 6)))
    return Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.randint(1, 9))


def _combination(rng, eqs):
    # an implied equation, or with a shifted rhs an inconsistent one
    row, rhs = {}, ZERO
    for r, b in rng.sample(eqs, min(len(eqs), rng.randint(2, 3))):
        f = _coefficient(rng, "rational")
        for k, c in r.items():
            row[k] = row.get(k, ZERO) + f * c
        rhs += f * b
    return {k: c for k, c in row.items() if c}, rhs + rng.choice((0, 0, 1))


def _random_system(rng, kind, homogeneous):
    if kind == "monomial":
        # string keys and exponent rows, as solve_monomial_system builds them
        keys = [f"k{i}" for i in range(1, rng.randint(3, 14))]
    else:
        keys = list(range(rng.randint(2, 10)))
    eqs = []
    if kind == "hilbert":
        n = min(len(keys), rng.randint(2, 6))
        shift = rng.randint(0, 3)
        eqs = [({keys[j]: Fraction(1, i + j + 1 + shift) for j in range(n)},
                ZERO if homogeneous else Fraction(rng.randint(-3, 3))) for i in range(n)]
    for _ in range(rng.randint(1, 12)):
        if len(eqs) >= 2 and rng.random() < 0.3:
            row, rhs = _combination(rng, eqs)
            if not row:
                continue
        else:
            support = rng.sample(keys, rng.randint(1, min(len(keys), 5)))
            row = {k: _coefficient(rng, kind) for k in support}
            rhs = ZERO if homogeneous else Fraction(rng.randint(-5, 5), rng.choice((1, 1, 3)))
        eqs.append((row, ZERO if homogeneous else rhs))
    return keys, eqs


def _matches_reference(reference, kind, homogeneous):
    rng = random.Random(f"{kind}-{homogeneous}")
    raised = 0
    for _ in range(150):
        keys, eqs = _random_system(rng, kind, homogeneous)
        new, ref = LinearSolver(), reference()
        for row, rhs in eqs:
            raised += _insert(new, ref, row, rhs)
        _solver_outputs_agree(new, ref, keys)
        # implied or inconsistent combinations, then arbitrary rows, inserted late
        probes = [_combination(rng, eqs) for _ in range(3) if len(eqs) >= 2]
        probes += [({k: _coefficient(rng, kind) for k in rng.sample(keys, 2)}, ONE)
                   for _ in range(2) if len(keys) >= 2]
        for row, rhs in probes:
            _insert(new, ref, row, rhs)
            _solver_outputs_agree(new, ref, keys)
    # the inhomogeneous systems do reach the inconsistent case
    assert raised > 5 or homogeneous


KINDS = ["integer", "rational", "hilbert", "monomial"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
def test_linear_solver_matches_fraction_reference(kind, homogeneous):
    _matches_reference(ReferenceLinearSolver, kind, homogeneous)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
def test_linear_solver_matches_integer_gauss_jordan_reference(kind, homogeneous):
    _matches_reference(ReferenceIntegerGaussJordan, kind, homogeneous)


def _monomial_outcome(solve, eqs):
    """The solution set, or the EnumerationCap reason."""
    try:
        sols = solve(eqs)
    except EnumerationCap as cap:
        return str(cap)
    keys = [tuple(sorted(s.items())) for s in sols]
    assert len(set(keys)) == len(keys)
    return set(keys)


def _random_monomial_system(rng):
    """Equations true at a random nonzero rational point, some of them then
    broken: exponents mostly even, so that signs are often free."""
    variables = [f"k{i}" for i in range(rng.randint(1, 5))]
    point = {v: rng.choice((-1, 1)) * Fraction(rng.choice((1, 1, 2, 3, 4, 6, 9)),
                                                rng.choice((1, 1, 2, 3)))
             for v in variables}
    eqs = []
    for _ in range(rng.randint(1, len(variables) + 2)):
        exps = {v: rng.choice((-4, -2, -1, 0, 0, 2, 2, 3, 4, 6)) for v in variables}
        exps = tuple(sorted((v, e) for v, e in exps.items() if e))
        const = prod((point[v] ** e for v, e in exps), start=ONE)
        if rng.random() < 0.15:
            const *= rng.choice((-1, 2, Fraction(1, 3), 4))
        eqs.append(MonomialEquation(exps, const))
    return eqs


# the 6x5 system whose unimodular factors reach five-digit entries
SIX_BY_FIVE = [MonomialEquation(exps, Fraction(c)) for exps, c in (
    ((("k0", 4), ("k1", 3), ("k4", 1)), 2048),
    ((("k2", -2),), Fraction(1, 9)),
    ((("k1", 1), ("k2", -2), ("k3", 3)), -6),
    ((("k2", 4),), 81),
    ((("k0", 6), ("k4", -3)), 4096),
    ((("k0", -3), ("k1", 6), ("k2", -1), ("k3", 2), ("k4", -3)), -3),
)]


def test_monomial_solver_matches_reference_on_fixed_systems():
    want = {(("k0", 4), ("k1", 2), ("k2", -3), ("k3", -3), ("k4", 1)),
            (("k0", -4), ("k1", 2), ("k2", 3), ("k3", -3), ("k4", 1))}
    squares = [MonomialEquation(((f"s{i}", 2),), ONE) for i in range(SIGN_BITS_CAP + 1)]
    # an empty set is found before the free signs are counted: s0^2 = -1
    # alone, and again after s0^2 = 1
    negative = MonomialEquation((("s0", 2),), -ONE)
    for eqs, outcome in ((SIX_BY_FIVE, want), (squares, "sign-enumeration cap"),
                         ([negative] + squares[1:], set()), (squares + [negative], set())):
        assert _monomial_outcome(solve_monomial_system, eqs) == outcome
        assert _monomial_outcome(reference_solve_monomial_system, eqs) == outcome


def test_monomial_solver_matches_reference_on_random_systems():
    rng = random.Random("monomial")
    seen = dict.fromkeys(("empty", "free kernel", "two free signs", "negative constant",
                          "fractional constant", "overdetermined"), 0)
    for _ in range(1000):
        eqs = _random_monomial_system(rng)
        got = _monomial_outcome(solve_monomial_system, eqs)
        assert got == _monomial_outcome(reference_solve_monomial_system, eqs), eqs
        seen["empty"] += got == set()
        seen["free kernel"] += got == "free multiplicative kernel"
        seen["two free signs"] += isinstance(got, set) and len(got) >= 4
        seen["negative constant"] += any(eq.const < 0 for eq in eqs)
        seen["fractional constant"] += any(eq.const.denominator > 1 for eq in eqs)
        seen["overdetermined"] += len(eqs) > len({v for eq in eqs for v, _ in eq.exps})
    assert all(count >= 10 for count in seen.values()), seen


def _random_box(rng, alg):
    return tuple(rng.randint(0, 1 if g.is_odd else 3) for g in alg.generators)


@pytest.mark.parametrize("key,params", FLEX_KEYS, ids=[_id(*kp) for kp in FLEX_KEYS])
def test_apply_algebra_map_matches_element_products_on_scaling_images(key, params):
    alg = built(key, **params)[0].algebra
    grading = construct_lower_grading(alg)
    rng = random.Random(f"map{key}")
    degrees = [n for n in range(1, dimension_formula(alg) + 1) if alg.basis_of_degree(n)]
    for base in (2, 4):
        images = scaling_images(alg, grading, base)
        for _ in range(20):
            e = _random_element(rng, alg, rng.choice(degrees))
            for box in (None, _random_box(rng, alg)):
                _same(apply_algebra_map(alg, images, e, box),
                      reference_apply_algebra_map(alg, images, e, box))


@pytest.mark.parametrize("key,params", [("chiral3", {"l": 5}), ("lower-grading", {})],
                         ids=["chiral3-l5", "lower-grading"])
def test_apply_algebra_map_matches_element_products_on_symbolic_ansatz(key, params):
    af, _, vol = certified(key, **params)
    alg = af.algebra
    images = generic_ansatz(alg).images
    rng = random.Random(f"ansatz{key}")
    box = tuple(map(max, zip(*vol.functional.phi)))
    _same(apply_algebra_map(alg, images, vol.representative, box),
          reference_apply_algebra_map(alg, images, vol.representative, box))
    for dg in alg.diff:
        _same(apply_algebra_map(alg, images, dg), reference_apply_algebra_map(alg, images, dg))
    for _ in range(10):
        e = _random_element(rng, alg, rng.randint(2, 8))
        for b in (None, _random_box(rng, alg)):
            _same(apply_algebra_map(alg, images, e, b),
                  reference_apply_algebra_map(alg, images, e, b))


@pytest.mark.parametrize("left,right", PRODUCT_PAIRS,
                         ids=[f"{a[0]}x{b[0]}" for a, b in PRODUCT_PAIRS])
def test_apply_algebra_map_matches_element_products_on_product_ansatz(monkeypatch, left, right):
    # the images as they are, then as normalized at every context the case tree reaches
    prod, vol = product(left, right)
    reached = []

    def recording_simplify(constraints, ctx):
        work, ctx = simplify(constraints, ctx)
        reached.append(ctx)
        return work, ctx

    monkeypatch.setattr(endo, "simplify", recording_simplify)
    degree_spectrum(prod, vol, SolverConfig(node_budget=400))
    assert len(reached) > 1
    images = generic_ansatz(prod).images
    rep, box = vol.representative, vol.functional.box
    # f(vol) of the raw ansatz is too large to expand outside the box
    _same(apply_algebra_map(prod, images, rep, box),
          reference_apply_algebra_map(prod, images, rep, box))
    for dg in prod.diff:
        _same(apply_algebra_map(prod, images, dg), reference_apply_algebra_map(prod, images, dg))
    for ctx in reached:
        normalized = {name: prod.free.element({m: ctx.normalize(c) for m, c in img.terms.items()})
                      for name, img in images.items()}
        for b in (box, None):
            _same(apply_algebra_map(prod, normalized, rep, b),
                  reference_apply_algebra_map(prod, normalized, rep, b))


def test_apply_algebra_map_forms_each_image_power_once(monkeypatch):
    # chiral2(l=4) (x) lower-grading: x1^8 ... x1^13 in every term of the representative
    prod, vol = product(("chiral2", {"l": 4}), ("lower-grading", {}))
    images = generic_ansatz(prod).images
    rep, box = vol.representative, vol.functional.box
    top = [max(m[i] for m in rep.terms) for i in range(len(prod.generators))]
    powers = []  # (generator, k, f(x)^k within the box), nonzero ones only
    for g, n in zip(prod.generators, top):
        p = {}
        for k in range(1, n + 1):
            p = mul_terms(prod.free, p, images[g.name].terms, box) if p else \
                {m: c for m, c in images[g.name].terms.items() if within(m, box)}
            if p:
                powers.append((g.name, k, p))

    def power(terms):
        return next(((name, k) for name, k, p in powers if terms == p), None)

    formed = []
    calls = 0

    def spy(alg, terms1, terms2, box=None):
        nonlocal calls
        calls += 1
        left, right = power(terms1), power(terms2)
        if left and right and left[0] == right[0]:
            formed.append((left[0], left[1] + right[1]))
        return mul_terms(alg, terms1, terms2, box)

    monkeypatch.setattr(sullivan, "mul_terms", spy)
    f_vol = apply_algebra_map(prod, images, rep, box)
    assert f_vol == reference_apply_algebra_map(prod, images, rep, box)
    assert formed and len(formed) == len(set(formed)), formed
    # one product per generator factor of a term past its first, and one per power past f(x)
    assert calls <= sum(sum(map(bool, m)) - 1 for m in rep.terms) + \
        sum(n - 1 for n in top if n), calls


SHARED_DEGREE_KEYS = (("chain-reduced", {}), ("chiral1", {"l1": 4, "l2": 2}), ("lower-grading", {}))


@pytest.mark.parametrize("key,params", SHARED_DEGREE_KEYS,
                         ids=[_id(*kp) for kp in SHARED_DEGREE_KEYS])
def test_apply_algebra_map_matches_element_products_when_terms_cancel(key, params):
    # two generators g, h of one degree share an image, so the terms of
    # (g - h) * z cancel pairwise in the result
    alg = built(key, **params)[0].algebra
    rng = random.Random(f"cancel{key}")
    g, h = next((g, h) for g in alg.generators for h in alg.generators
                if g.degree == h.degree and g.name < h.name)
    degrees = [n for n in range(1, dimension_formula(alg) + 1) if alg.basis_of_degree(n)]
    for _ in range(5):
        shared = {d: _random_element(rng, alg, d) for d in set(alg.free.degrees)}
        images = {x.name: shared[x.degree] for x in alg.generators}
        for _ in range(10):
            z = _random_element(rng, alg, rng.choice(degrees))
            e = (alg.gen(g.name) - alg.gen(h.name)) * z
            e = e + _random_element(rng, alg, e.degree()) if e else z
            for box in (None, _random_box(rng, alg)):
                _same(apply_algebra_map(alg, images, e, box),
                      reference_apply_algebra_map(alg, images, e, box))


def _same_witness(alg, e):
    new, ref = is_exact(alg, e), reference_is_exact(alg, e)
    assert (new is None) == (ref is None), e
    if ref is not None:
        _same(new.preimage, ref.preimage)
    return ref is not None


@pytest.mark.parametrize("key,params", ALL_KEYS, ids=[_id(*kp) for kp in ALL_KEYS])
def test_is_exact_matches_full_matrix_reference_on_powers(key, params):
    af, cert = built(key, **params)
    alg = af.algebra
    for name, (n_min, _) in cert.powers.items():
        x = alg.gen(name)
        exact = [_same_witness(alg, x ** n) for n in range(1, n_min + 1)]
        assert exact == [False] * (n_min - 1) + [True], name


def _cocycles(alg, n):
    """A kernel basis of d in degree n."""
    monos = alg.basis_of_degree(n)
    return _kernel_elements(alg.free, monos,
                            [extend_derivation(alg, Element(alg.free, {m: ONE})) for m in monos])


@pytest.mark.parametrize("key,params", ALL_KEYS, ids=[_id(*kp) for kp in ALL_KEYS])
def test_is_exact_matches_full_matrix_reference_on_random_cocycles(key, params):
    alg = built(key, **params)[0].algebra
    rng = random.Random(f"exact{key}{sorted(params.items())}")
    # up to the ellipticity search's ceiling, where every even power is exact
    degrees = [n for n in range(2, dimension_formula(alg) + alg.max_degree() + 1)
               if 0 < len(alg.basis_of_degree(n)) <= 120]
    outcomes = set()
    for n in degrees + rng.choices(degrees, k=6):
        cocycles = _cocycles(alg, n)
        boundary = extend_derivation(alg, _random_element(rng, alg, n - 1))
        e = boundary
        for z in rng.sample(cocycles, min(len(cocycles), rng.randint(0, 3))):
            e = e + z.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if boundary:
            outcomes.add(_same_witness(alg, boundary))
        if e:
            outcomes.add(_same_witness(alg, e))
    # both exact and non-exact cocycles were compared
    assert outcomes == {True, False}


def _same_functional(alg, vol):
    new = top_functional_from_volume(alg, vol)
    ref = reference_top_functional_from_volume(alg, vol)
    assert list(new.phi.items()) == list(ref.phi.items())


@pytest.mark.parametrize("key,params", ALL_KEYS, ids=[_id(*kp) for kp in ALL_KEYS])
def test_top_functional_matches_full_matrix_reference(key, params):
    af = built(key, **params)[0]
    alg = af.algebra
    _same_functional(alg, af.volume)
    # an exact top-degree element has no functional in either
    rng = random.Random(f"top{key}")
    for _ in range(5):
        boundary = extend_derivation(alg, _random_element(rng, alg, af.volume.degree() - 1))
        if boundary:
            assert top_functional_from_volume(alg, boundary) is None
            assert reference_top_functional_from_volume(alg, boundary) is None


@pytest.mark.parametrize("left,right", PRODUCT_PAIRS,
                         ids=[f"{a[0]}x{b[0]}" for a, b in PRODUCT_PAIRS])
def test_top_functional_matches_reference_on_product_factors(left, right):
    a, cert_a = built(left[0], **left[1])
    b, cert_b = built(right[0], **right[1])
    prod = tensor_product(a.algebra, b.algebra, cert_a, cert_b, a.volume, b.volume)
    for factor, _, vol in prod.factors:
        _same_functional(factor, vol)


def reference_tensor_certificate(prod, a, cert_a, b, cert_b):
    """The factor witnesses embedded into ``prod``, as products were once certified.

    A generator of ``a`` keeps its index in ``prod`` and one of ``b`` follows
    all of ``a``'s; each witness is padded with zero exponents.
    """
    names = [g.name for g in prod.generators]
    na, nb = len(a.generators), len(b.generators)
    powers = {}
    for factor, cert, left, right in ((a, cert_a, (), (0,) * nb), (b, cert_b, (0,) * na, ())):
        for name, (n, w) in cert.powers.items():
            name = names[len(left) + factor.free.index[name]]
            powers[name] = (n, Element(prod.free, {left + m + right: c
                                                   for m, c in w.terms.items()}))
    return powers


CERTIFIED_PAIRS = PRODUCT_PAIRS + ((("lemma", {"i": 0}), ("lemma", {"i": 0})),
                                   (("lemma", {"i": 0}), ("sphere", {"k": 6})))


@pytest.mark.parametrize("left,right", CERTIFIED_PAIRS,
                         ids=[f"{a[0]}x{b[0]}" for a, b in CERTIFIED_PAIRS])
def test_product_certificate_is_the_embedded_factor_certificates(left, right):
    a, cert_a = built(left[0], **left[1])
    b, cert_b = built(right[0], **right[1])
    prod = tensor_product(a.algebra, b.algebra, cert_a, cert_b, a.volume, b.volume)
    want = reference_tensor_certificate(prod, a.algebra, cert_a, b.algebra, cert_b)
    cert = ellipticity_certificate(prod)
    assert list(cert.powers.items()) == list(want.items()) and cert.replay()


@pytest.mark.parametrize("key,params", ALL_KEYS, ids=[_id(*kp) for kp in ALL_KEYS])
def test_replay_annihilates_d_matches_full_matrix_reference(key, params):
    af, _, vol = certified(key, **params)
    alg, functional = af.algebra, vol.functional
    rng = random.Random(f"replay{key}")
    outside = [m for m in alg.basis_of_degree(vol.degree) if m not in functional.phi]
    tampered = []
    for _ in range(3):
        # one value changed
        phi = dict(functional.phi)
        phi[rng.choice(list(phi))] += rng.choice((-1, 1))
        tampered.append(phi)
        # one monomial added
        if outside:
            tampered.append({**functional.phi, rng.choice(outside): Fraction(rng.randint(1, 5))})
    assert functional.replay_annihilates_d()
    assert reference_replay_annihilates_d(functional, vol.degree)
    for phi in tampered:
        f = TopFunctional(alg, phi)
        assert f.replay_annihilates_d() == reference_replay_annihilates_d(f, vol.degree)


def reference_substitute(p, assignment):
    if not any(v in assignment for k in p.terms for v, _ in k):
        return p
    out = {}
    for k, c in p.terms.items():
        if not any(v in assignment for v, _ in k):
            pairs = ((k, c),)
        else:
            rest = tuple((v, e) for v, e in k if v not in assignment)
            term = MPoly({rest: c})
            for v, e in k:
                if v in assignment:
                    value = assignment[v]
                    val = value if isinstance(value, MPoly) else MPoly.const(value)
                    for _ in range(e):
                        term = term * val
            pairs = term.terms.items()
        add_terms(out, pairs)
    return MPoly(out)


UNKNOWNS = ("k1", "k2", "k3", "k4")
INTEGERS = st.integers(-6, 6)
NON_INTEGRAL = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(
    lambda q: q.denominator > 1)


@st.composite
def polynomials(draw, max_terms=4):
    """An MPoly in ``UNKNOWNS`` with exponents up to 4."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        factors = draw(st.lists(st.tuples(st.sampled_from(UNKNOWNS), st.integers(1, 4)),
                                max_size=3, unique_by=lambda f: f[0]))
        terms[tuple(sorted(factors))] = draw(st.one_of(INTEGERS, NON_INTEGRAL).filter(bool))
    return MPoly(terms)


# a value may mention the other substituted unknowns, which pins that the
# substitution is simultaneous: values are not substituted into each other
VALUES = st.one_of(st.just(0), INTEGERS, NON_INTEGRAL,
                   st.one_of(INTEGERS, NON_INTEGRAL).map(MPoly.const),
                   polynomials(max_terms=3).filter(lambda p: p.constant_value() is None))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(polynomials(), st.dictionaries(st.sampled_from(UNKNOWNS + ("k9",)), VALUES, max_size=3))
def test_substitute_matches_power_by_power_reference(p, assignment):
    new = p.substitute(assignment)
    assert new == reference_substitute(p, assignment)
    if not p.variables() & assignment.keys():
        assert new is p


def test_substitute_rejects_a_value_that_is_not_rational():
    k1, k2 = MPoly.var("k1"), MPoly.var("k2")
    with pytest.raises(TypeError):
        (k1 * k2).substitute({"k1": 0.5})
    # also when another factor of the term is zero
    with pytest.raises(TypeError):
        (k1 * k2).substitute({"k1": 0, "k2": 0.5})


def reference_mul_monomials(alg, m1, m2):
    if len(m1) != len(alg.generators) or len(m2) != len(alg.generators):
        raise StructureError("monomial over a different generator set")
    odd1 = [i for i in alg.odd_indices if m1[i]]
    crossings = 0
    for j in alg.odd_indices:
        if m2[j]:
            if m1[j]:
                return None
            crossings += len(odd1) - bisect_right(odd1, j)
    return -1 if crossings % 2 else 1, tuple(a + b for a, b in zip(m1, m2))


def reference_mul_terms(alg, terms1, terms2, box=None):
    terms = {}
    for m1, c1 in terms1.items():
        for m2, c2 in terms2.items():
            sm = reference_mul_monomials(alg, m1, m2)
            if sm is None:
                continue
            sign, m = sm
            if box is not None and not within(m, box):
                continue
            c = c1 * c2
            if sign < 0:
                c = -c
            s = terms.get(m, ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
    return terms


MIXED = FreeGCA([Generator("a", 3), Generator("b", 2), Generator("c", 3), Generator("d", 5),
                 Generator("e", 4), Generator("f", 7)])


@st.composite
def monomial_terms(draw):
    """A ``{monomial: coefficient}`` dict over ``MIXED``, with rational or
    ``MPoly`` coefficients."""
    exps = [st.integers(0, 1) if g.is_odd else st.integers(0, 3) for g in MIXED.generators]
    monos = draw(st.lists(st.tuples(*exps), max_size=5, unique=True))
    coeffs = st.one_of(INTEGERS, NON_INTEGRAL, polynomials(max_terms=2)).filter(bool)
    return {m: draw(coeffs) for m in monos}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(monomial_terms(), monomial_terms(),
       st.none() | st.tuples(*[st.integers(0, 4)] * len(MIXED.generators)))
def test_mul_terms_matches_pairwise_reference(terms1, terms2, box):
    new = mul_terms(MIXED, terms1, terms2, box)
    # equal terms in the same order, so everything downstream iterates alike
    assert list(new.items()) == list(reference_mul_terms(MIXED, terms1, terms2, box).items())


def test_mul_terms_odd_square_vanishes_and_foreign_monomials_raise():
    a, c = MIXED.monomial(a=1), MIXED.monomial(c=1)
    ac = MIXED.monomial(a=1, c=1)
    assert mul_terms(MIXED, {a: 2}, {a: 3}) == {}
    assert mul_terms(MIXED, {ac: 1}, {c: 1, a: 1}) == {}
    assert mul_terms(MIXED, {c: 1}, {a: 1}) == {ac: -1}
    with pytest.raises(StructureError):
        mul_terms(MIXED, {a: 1}, {(1, 0): 1})
    with pytest.raises(StructureError):
        mul_terms(MIXED, {(1, 0): 1}, {a: 1})


def reference_to_sympy(p):
    return sympy.Add(*(sympy.Mul(sympy.Rational(c.numerator, c.denominator),
                                 *(sympy.Symbol(v) ** e for v, e in k))
                       for k, c in p.terms.items()))


def reference_from_sympy(expr):
    expr = sympy.expand(expr)
    out = {}
    for term in expr.as_ordered_terms():
        coeff, factors = term.as_coeff_Mul()
        q = quotient(int(sympy.numer(coeff)), int(sympy.denom(coeff)))
        exps = {}
        for f in sympy.Mul.make_args(factors):
            if f.is_Number:
                continue
            base, e = f.as_base_exp()
            exps[str(base)] = exps.get(str(base), 0) + int(e)
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        add_terms(out, ((key, q),))
    return MPoly(out)


def reference_factor_constraint(p):
    _, factors = sympy.factor_list(reference_to_sympy(p))
    return [reference_from_sympy(base) for base, _ in factors]


def reference_reduce_modulo(p, polys):
    polys = [q for q in polys if q]
    if not polys or not p:
        return p
    names = sorted({v for q in polys for v in q.variables()} | p.variables())
    gens = [sympy.Symbol(v) for v in names]
    basis = sympy.groebner([reference_to_sympy(q) for q in polys], *gens, order="grevlex")
    _, remainder = basis.reduce(reference_to_sympy(p))
    return reference_from_sympy(remainder)


# string order and numeric order differ: "k10" < "k2" but k2 < k10
RING_UNKNOWNS = ("k2", "k3", "k10", "k14")
RATIONALS = st.one_of(INTEGERS, NON_INTEGRAL).filter(bool)


@st.composite
def small_polynomials(draw, max_terms=3, max_exp=2):
    """An MPoly in ``RING_UNKNOWNS``, or a univariate linear one ``c*v + d``."""
    if draw(st.booleans()):
        v = MPoly.var(draw(st.sampled_from(RING_UNKNOWNS)))
        return v * draw(st.sampled_from((1, 2, Fraction(1, 2)))) + draw(st.integers(-2, 2))
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        factors = draw(st.dictionaries(st.sampled_from(RING_UNKNOWNS), st.integers(1, max_exp),
                                       max_size=2))
        terms[tuple(sorted(factors.items()))] = draw(RATIONALS)
    return MPoly(terms)


@st.composite
def factored_polynomials(draw):
    """c * content * f1^m1 * ...: a monomial content in several unknowns with
    exponents up to 3, then factors that may repeat or be univariate linear."""
    content = draw(st.dictionaries(st.sampled_from(RING_UNKNOWNS), st.integers(1, 3), max_size=3))
    p = MPoly({tuple(sorted(content.items())): draw(RATIONALS)})
    for _ in range(draw(st.integers(0, 3))):
        p = p * draw(small_polynomials(max_terms=2)) ** draw(st.integers(1, 2))
    return p


@st.composite
def binomials(draw):
    """content * (c1*m1 + c2*m2), m1 and m2 sharing no unknown: the case
    tree's usual constraint.  Coefficients are rational of either sign; the
    cofactor may have one unknown, or every exponent at least 2."""
    content = draw(st.dictionaries(st.sampled_from(RING_UNKNOWNS), st.integers(1, 3), max_size=2))
    low = draw(st.sampled_from((1, 2)))
    unknowns = draw(st.permutations(RING_UNKNOWNS))
    cut = draw(st.integers(0, len(unknowns)))
    parts = [{v: draw(st.integers(low, 3)) for v in part if draw(st.booleans())}
             for part in (unknowns[:cut], unknowns[cut:])]
    if parts == [{}, {}]:
        parts[1] = {unknowns[0]: low}
    terms = {}
    for m in parts:
        exps = dict(content)
        for v, e in m.items():
            exps[v] = exps.get(v, 0) + e
        terms[tuple(sorted(exps.items()))] = draw(RATIONALS)
    return MPoly(terms)


def from_text(expr):
    return reference_from_sympy(sympy.sympify(expr.replace("^", "**")))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(factored_polynomials(), small_polynomials(max_terms=4, max_exp=3)))
def test_factor_constraint_matches_expr_path_in_order(p):
    # the same factors in the same order, as the case tree branches in it
    assert factor_constraint(p) == reference_factor_constraint(p)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(binomials())
@example(from_text("k3^2*k14*(k2 - 2/3*k10^2)"))   # content, rational coefficient
@example(from_text("k10*k3 - 2/3*k2"))             # k2 < k10 leads, with a negative coefficient
@example(from_text("k2^2*k10^3 - 1"))              # every exponent >= 2
@example(from_text("k3*k14*(k2^2 - k10^2)"))       # ... and reducible
@example(from_text("k14^2*(2*k10 - 1)"))           # a one-unknown cofactor
def test_factor_constraint_matches_expr_path_on_binomials(p):
    assert factor_constraint(p) == reference_factor_constraint(p)


# simplify refutes a constant constraint, so a case never has one
CONSTRAINTS = st.lists(small_polynomials().filter(lambda q: q.variables()), max_size=3)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_polynomials(max_terms=4, max_exp=3), CONSTRAINTS)
def test_reduce_modulo_matches_expr_path(p, polys):
    try:
        want = reference_reduce_modulo(p, polys)
    except CoercionFailed:
        # the Expr path cannot reduce a non-integral p modulo integral
        # constraints; the remainder is linear in p, so compare p with its
        # denominators cleared
        den = lcm(*(c.denominator for c in p.terms.values()))
        want = reference_reduce_modulo(p.scale(den), polys).scale(Fraction(1, den))
    assert reduce_modulo(p, polys) == want


@pytest.mark.parametrize("expr,want", [
    ("k14*k15*k20 - k14*k16*k19", ["k14", "k15*k20 - k16*k19"]),
    ("k10 - k2", ["-k10 + k2"]),                                     # generators k2 < k10
    ("k3^2*k5*(k5 - 1)", ["-1 + k5", "k5", "k3"]),                   # exponent in the key
    ("k3*(k5 + 1)", ["k3", "1 + k5"]),                               # dense rep breaks a tie
    ("k5*k3*(2*k3 - k5)^2", ["k3", "k5", "2*k3 - k5"]),             # content ties: name order
], ids=["content-first", "sympy-generator-order", "multiplicity", "dense-rep", "repeated"])
def test_factor_constraint_order_is_pinned(expr, want):
    p = from_text(expr)
    assert [str(f) for f in factor_constraint(p)] == want


def test_reduce_modulo_works_over_the_rationals():
    k1, k2 = MPoly.var("k1"), MPoly.var("k2")
    assert reduce_modulo(k1 * k2, [2 * k1 - 1]) == k2 * Fraction(1, 2)
    assert reduce_modulo(k1 ** 2, [Fraction(2, 3) * k1 - 1, k2]) == Fraction(9, 4)
    # the Expr path raised CoercionFailed here: integral constraints, rational p
    assert reduce_modulo(k1 * Fraction(1, 2), [k1 - 3]) == Fraction(3, 2)


def test_reduce_modulo_builds_a_basis_only_when_division_leaves_a_remainder(monkeypatch):
    bases = []
    build = groebnertools.groebner
    monkeypatch.setattr(groebnertools, "groebner", lambda *a: bases.append(a) or build(*a))
    x, y = MPoly.var("x"), MPoly.var("y")
    # a multiple of the constraints: division by them alone leaves 0
    assert reduce_modulo(x * y ** 2 - y, [x * y - 1, y ** 2 - 1]) == MPoly()
    assert not bases
    # x*(y^2 - 1) is in the ideal, but dividing by x*y - 1 first leaves y - x
    assert reduce_modulo(x * y ** 2 - x, [x * y - 1, y ** 2 - 1]) == MPoly()
    assert len(bases) == 1
    assert reduce_modulo(x * y ** 2 - x, [x * y - 1, y ** 2 - 1]) == reference_reduce_modulo(
        x * y ** 2 - x, [x * y - 1, y ** 2 - 1])
