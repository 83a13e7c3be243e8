"""Differential tests: the arithmetic kernels against the code they replaced.

Each reference below is the earlier implementation, kept verbatim in
behaviour: ``extend_derivation`` as a three-Element product per Leibniz
term, ``_even_fills`` as a recursive generator, and the bigraded
cohomology basis with one derivation pass per kernel and per image.
"""

import random
from fractions import Fraction

import pytest

from conftest import ALL_KEYS, built
from minmod.endo import generic_ansatz
from minmod.flexcert import (_independent_modulo, bigraded_cohomology_basis,
                             construct_lower_grading)
from minmod.gca import Element, FreeGCA, Generator, _even_fills
from minmod.linalg import LinearSolver
from minmod.sullivan import SullivanAlgebra, dimension_formula, extend_derivation

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
    free = FreeGCA([Generator("x", 4), Generator("w", 3), Generator("a", 3),
                    Generator("y", 2), Generator("v", 5)])
    g = {n: free.gen(n) for n in free.index}
    alg = SullivanAlgebra(free, {"x": g["a"] * g["y"], "w": g["y"] ** 2,
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
    new = bigraded_cohomology_basis(alg, grading, top)
    ref = reference_bigraded_cohomology_basis(alg, grading, top)
    assert [(n, lev) for n, lev, _ in new] == [(n, lev) for n, lev, _ in ref]
    for (_, _, a), (_, _, b) in zip(new, ref):
        _same(a, b)
