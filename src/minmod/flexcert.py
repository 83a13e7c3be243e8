"""Flexibility certificates from lower gradings.

A lower grading assigns each generator a non-negative integer with closed
generators at 0 and every differential dropping the grading.  When each
differential is homogeneous of lower degree exactly one less, scaling every
generator v of bidegree (i, j) by 2^(i+j) is a cdga morphism of nonzero
degree, and replacing the base 2 by 2k produces its k-th multiples.  That
family is the flexibility certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .endo import verify_morphism
from .gca import Element, StructureError
from .linalg import LinearSolver
from .poly import ONE, quotient
from .sullivan import SullivanAlgebra, dimension_formula, extend_derivation


@dataclass(frozen=True)
class LowerGrading:
    """Generator -> lower degree, extended additively to monomials."""

    degrees: tuple  # aligned with alg.generators

    def of_monomial(self, mono) -> int:
        return sum(e * l for e, l in zip(mono, self.degrees))

    def levels_of(self, e: Element) -> set:
        return {self.of_monomial(m) for m in e.terms}


def monomial_differential_check(alg: SullivanAlgebra):
    """(True, None) iff every differential is a single monomial or zero."""
    for g, dg in zip(alg.generators, alg.diff):
        if len(dg.terms) > 1:
            return False, g.name
    return True, None


def construct_lower_grading(alg: SullivanAlgebra) -> LowerGrading:
    """Level 0 = closed generators; then iterated least-level assignment.

    A generator enters level i+1 as soon as its differential only involves
    generators of level <= i.  Minimality plus ordering by degree makes the
    iteration terminate; a stuck state is a structural bug.
    """
    n = len(alg.generators)
    level = [None] * n
    for i, dg in enumerate(alg.diff):
        if not dg:
            level[i] = 0
    while any(l is None for l in level):
        progressed = False
        for i, dg in enumerate(alg.diff):
            if level[i] is not None:
                continue
            used = {j for m in dg.terms for j, e in enumerate(m) if e}
            if all(level[j] is not None for j in used):
                level[i] = 1 + max(level[j] for j in used)
                progressed = True
        if not progressed:
            stuck = [alg.generators[i].name for i, l in enumerate(level) if l is None]
            raise StructureError(f"lower grading does not stabilize on {stuck}")
    return LowerGrading(tuple(level))


def check_prop4_condition(alg: SullivanAlgebra, grading: LowerGrading):
    """(True, None) iff d of each level-i generator sits purely in level i-1."""
    for i, (g, dg) in enumerate(zip(alg.generators, alg.diff)):
        if not dg:
            continue
        want = grading.degrees[i] - 1
        if grading.levels_of(dg) != {want}:
            return False, g.name
    return True, None


def two_stage_decomposition(alg: SullivanAlgebra):
    """(Q, P) with Q the closed generators, or None when some dP leaves ^Q."""
    closed = [not dg for dg in alg.diff]
    q = tuple(g.name for g, c in zip(alg.generators, closed) if c)
    p = tuple(g.name for g, c in zip(alg.generators, closed) if not c)
    for dg in alg.diff:
        for m in dg.terms:
            if any(e and not closed[j] for j, e in enumerate(m)):
                return None
    return q, p


# -- scaling morphisms ------------------------------------------------------


@dataclass
class ScalingCertificate:
    """The morphism v -> base^(i+j) v for v of lower degree i, degree j."""

    base = 2
    images: dict      # name -> Element
    degree: int | Fraction

    def family_description(self) -> str:
        vol_exp = self.degree_exponent()
        return f"degree of the k-th multiple: (2k)^{vol_exp}"

    def degree_exponent(self) -> int:
        """e with degree == base^e (the scaling degree is a pure power)."""
        e = 0
        d = self.degree
        while d > 1:
            d = quotient(d, self.base)
            e += 1
        return e


def scaling_images(alg: SullivanAlgebra, grading: LowerGrading, base: int) -> dict:
    images = {}
    for i, g in enumerate(alg.generators):
        exp = grading.degrees[i] + g.degree
        images[g.name] = alg.gen(g.name).scale(base ** exp)
    return images


def scaling_certificate(alg: SullivanAlgebra, grading: LowerGrading, vol) -> ScalingCertificate:
    """Build and fully verify the scaling morphism; its degree is nonzero.

    Requires check_prop4_condition to hold; a verification failure here
    indicates a grading bug and raises.
    """
    ok, offender = check_prop4_condition(alg, grading)
    if not ok:
        raise StructureError(f"lower-degree condition fails at {offender}")
    images = scaling_images(alg, grading, ScalingCertificate.base)
    report = verify_morphism(alg, images, vol)
    if not report.valid:
        raise StructureError(f"scaling morphism failed verification at {report.failing}")
    if not report.degree:
        raise StructureError("scaling morphism has zero degree")
    return ScalingCertificate(images, report.degree)


# -- k-th multiples ---------------------------------------------------------


@dataclass
class MultipleCheck:
    k: int
    degree: int | Fraction | None
    classes_checked: int
    failing: str | None

    @property
    def ok(self) -> bool:
        return self.failing is None


def bigraded_cohomology_basis(alg: SullivanAlgebra, grading: LowerGrading,
                              up_to: int) -> list:
    """Bidegrees (degree, lower degree) of a bigraded cohomology basis, degree <= up_to.

    Each pair appears dim H^(n,lev) times, n ascending, then lev ascending.
    When d drops the lower degree by exactly one (check_prop4_condition), the
    image arriving from (n-1, lev+1) lies in the kernel on (n, lev), so
    dim H^(n,lev) = #monomials - rank d(n, lev) - rank d(n-1, lev+1).
    """
    out = []
    below: dict = {}  # level -> rank of d on the degree n-1 monomials
    for n in range(1, up_to + 1):
        by_level: dict = {}
        for m in alg.basis_of_degree(n):
            by_level.setdefault(grading.of_monomial(m), []).append(m)
        ranks = {}
        for lev in sorted(by_level):
            monos = by_level[lev]
            solver = LinearSolver()  # the rank of d's columns is the rank of its rows
            for m in monos if lev else ():  # d vanishes on level 0
                solver.add_equation(extend_derivation(alg, Element(alg.free, {m: ONE})).terms)
            ranks[lev] = solver.rank
            out += [(n, lev)] * (len(monos) - solver.rank - below.get(lev + 1, 0))
        below = ranks
    return out


def class_count(alg: SullivanAlgebra, grading: LowerGrading) -> int:
    """The number of bigraded classes in degrees 1..N, N the formal dimension.

    A verified volume form makes the algebra elliptic, so b_n = b_(N-n) by
    Poincaré duality (Halperin, Trans. AMS 230, 1977; Félix-Halperin-Thomas,
    GTM 205, §38): d is ranked in degrees <= N/2 only, each class there counts
    twice, one in degree exactly N/2 once, and the top class once."""
    top = dimension_formula(alg)
    half = bigraded_cohomology_basis(alg, grading, top // 2)
    return sum(1 if 2 * n == top else 2 for n, _ in half) + (top > 0)


def multiple_family_verify(alg: SullivanAlgebra, grading: LowerGrading, vol,
                           ks) -> tuple:
    """For each k, a MultipleCheck of the (2k)-scaling morphism and its action on generators.

    Every image must be (2k)^(i+j) times its generator of bidegree (i, j).
    Such a map multiplies each monomial of bidegree (i, j) by (2k)^(i+j), so
    it acts on every bigraded class [x] as (2k)^(i+j) [x].  A verified
    morphism of that form with 2k >= 2 makes each d drop the lower degree by
    exactly one, which is what the class count needs.
    """
    classes = None
    checks = []
    for k in ks:
        base = 2 * k
        images = scaling_images(alg, grading, base)
        report = verify_morphism(alg, images, vol)
        if not report.valid:
            checks.append(MultipleCheck(k, None, 0, report.failing))
            continue
        failing = next((g.name for g, lev in zip(alg.generators, grading.degrees)
                        if images[g.name] != alg.gen(g.name).scale(base ** (lev + g.degree))),
                       None)
        if failing is None and classes is None:
            classes = class_count(alg, grading)
        checks.append(MultipleCheck(k, report.degree, 0 if failing else classes, failing))
    return tuple(checks)
