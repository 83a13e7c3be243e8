"""Exact graded linear algebra for Sullivan algebras.

Closed/exact tests with witnesses, Betti numbers, volume-form
verification and the top-class functional that reads off mapping degrees.
Everything is solved by deterministic Gaussian elimination with
back-substitution over Q (first nonzero pivot in basis order).

Exactness witnesses and top functionals are solved only on the block of d
that holds the right-hand side: the columns reached from its monomials by
inverting the Leibniz rule (:func:`_rhs_block`).  The rest of the system
is homogeneous on other variables, so it neither constrains nor enters the
solution.  The full matrix of d in one degree (:func:`d_matrix`) is built
only for Betti numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import sub

from .gca import Element, StructureError
from .linalg import Inconsistent, LinearSolver
from .poly import ONE, ZERO, quotient
from .sullivan import (EllipticityCertificate, SullivanAlgebra, TensorProduct, apply_algebra_map,
                       check_d_squared, dimension_formula, extend_derivation)


class VolumeRejection(ValueError):
    def __init__(self, reason: str):
        super().__init__(f"volume rejected: {reason}")
        self.reason = reason


@dataclass
class DifferentialMatrix:
    """Sparse exact matrix of d from degree n to degree n+1.

    Column j expands d(domain[j]) over the codomain basis; entries are kept
    per column as {row index: coefficient}.
    """

    domain: tuple
    codomain: tuple
    columns: list


@lru_cache(maxsize=None)
def d_matrix(alg: SullivanAlgebra, n: int) -> DifferentialMatrix:
    domain = alg.basis_of_degree(n)
    codomain = alg.basis_of_degree(n + 1)
    row_index = {m: r for r, m in enumerate(codomain)}
    columns = []
    for mono in domain:
        columns.append({row_index[m]: c for m, c in _derive(alg, mono).items()})
    return DifferentialMatrix(domain, codomain, columns)


@lru_cache(maxsize=None)
def _rank_d(alg: SullivanAlgebra, n: int) -> int:
    if n < 0:
        return 0
    mat = d_matrix(alg, n)
    solver = LinearSolver()  # the rank of d's columns is the rank of its rows
    for col in mat.columns:
        solver.add_equation(col)
    return solver.rank


def _candidate_columns(alg: SullivanAlgebra, r):
    """The monomials m whose d(m) may hold the monomial ``r``.

    A term of d(m) is m / x_i * md for a Leibniz term (i, md) of ``alg``,
    so m is r - md + x_i when that is a monomial: no negative exponent and
    no odd exponent above 1.  Each lies in degree |r| - 1.
    """
    odd = alg.free.odd_indices
    for i, dterms in alg.leibniz:
        for md, _, _ in dterms:
            m = list(map(sub, r, md))
            m[i] += 1
            if min(m) >= 0 and all(m[j] <= 1 for j in odd):
                yield tuple(m)


def _derive(alg: SullivanAlgebra, m) -> dict:
    return extend_derivation(alg, Element(alg.free, {m: ONE})).terms


def _rhs_block(alg: SullivanAlgebra, rows) -> dict:
    """``{column: d(column) terms}`` for the block of d holding ``rows``.

    A breadth-first walk over the row-column incidence graph of d, from the
    monomials ``rows``: a candidate column joins when the row it was found
    from is in the support of its image, and then all rows of that image
    join the frontier.  Columns come in sorted monomial order, which is
    basis order.
    """
    images: dict = {}
    block = set()
    frontier = list(rows)
    seen = set(frontier)
    for r in frontier:  # grows as rows join
        for m in _candidate_columns(alg, r):
            img = images.get(m)
            if img is None:
                img = images[m] = _derive(alg, m)
            if m not in block and r in img:
                block.add(m)
                for rr in img:
                    if rr not in seen:
                        seen.add(rr)
                        frontier.append(rr)
    return {m: images[m] for m in sorted(block)}


def is_closed(alg: SullivanAlgebra, e: Element) -> bool:
    if e and not e.is_homogeneous():
        raise StructureError("is_closed requires a homogeneous element")
    return not extend_derivation(alg, e)


@dataclass
class ExactnessWitness:
    target: Element
    preimage: Element

    def replay(self, alg: SullivanAlgebra) -> bool:
        return extend_derivation(alg, self.preimage) == self.target


def is_exact(alg: SullivanAlgebra, e: Element):
    """A witness w with d(w) = e, or None when the system is inconsistent.

    The input must be homogeneous and closed.  Witnesses are a particular
    solution of the sparse system; they are reproducible but not canonical.
    """
    if not e:
        return ExactnessWitness(e, alg.free.zero())
    if not is_closed(alg, e):
        raise StructureError("is_exact requires a closed element")
    if e.degree() == 0:
        return None
    rhs = e.terms
    rows: dict = {}
    for m, img in _rhs_block(alg, rhs).items():
        for r, c in img.items():
            rows.setdefault(r, {})[m] = c
    solver = LinearSolver()
    try:
        for r in sorted(rows.keys() | rhs.keys()):
            solver.add_equation(rows.get(r, {}), rhs.get(r, ZERO))
    except Inconsistent:
        return None
    return ExactnessWitness(e, alg.free.element(solver.particular_solution()))


@lru_cache(maxsize=None)
def betti(alg: SullivanAlgebra, n: int) -> int:
    if n < 0:
        return 0
    dim_n = len(alg.basis_of_degree(n))
    return dim_n - _rank_d(alg, n) - _rank_d(alg, n - 1)


def betti_table(alg: SullivanAlgebra, up_to: int) -> list:
    return [betti(alg, n) for n in range(up_to + 1)]


# -- the top-class functional ----------------------------------------------


@dataclass
class TopFunctional:
    """A linear functional phi on the top-degree piece with phi o d = 0.

    phi(vol) = 1, so phi(e) is the top-class coefficient of any closed e.
    Its existence certifies that the volume representative is not exact.
    """

    alg: SullivanAlgebra
    phi: dict  # monomial -> int, or Fraction when not integral

    @cached_property
    def box(self) -> tuple:
        """The componentwise maximum exponent over phi's monomials.  Exponents
        only grow under multiplication, so a product may drop its terms
        outside the box before phi reads it."""
        return tuple(map(max, zip(*self.phi)))

    def apply(self, e: Element):
        """phi(e); works for rational and for symbolic (MPoly) coefficients."""
        total = None
        for m, c in e.terms.items():
            v = self.phi.get(m)
            if v:
                total = c * v if total is None else total + c * v
        return ZERO if total is None else total

    def replay_annihilates_d(self) -> bool:
        """phi(d(m)) = 0 for every monomial m.

        Only the columns m whose d(m) meets the support of phi can fail;
        they are the candidate columns of its monomials.
        """
        columns = {m for r, v in self.phi.items() if v
                   for m in _candidate_columns(self.alg, r)}
        return not any(self.apply(Element(self.alg.free, _derive(self.alg, m)))
                       for m in columns)


def top_functional_from_volume(alg: SullivanAlgebra, vol: Element):
    """Solve for phi with phi(d(anything)) = 0 and phi(vol) = 1.

    Returns None iff vol is exact.
    """
    solver = LinearSolver()
    try:
        for img in _rhs_block(alg, vol.terms).values():
            solver.add_equation(img, ZERO)
        solver.add_equation(vol.terms, ONE)
    except Inconsistent:
        return None
    return TopFunctional(alg, solver.particular_solution())


@dataclass
class VolumeForm:
    representative: Element
    degree: int
    functional: TopFunctional

    def mapping_degree(self, alg: SullivanAlgebra, images: dict):
        """phi(f(vol)), with f(vol) multiplied out only inside phi's box.

        For a d-commuting f this is its degree: f(vol) is closed of the top
        degree, and the algebra (d^2 = 0, elliptic) satisfies Poincare
        duality (Felix-Halperin-Thomas, GTM 205, sections 32 and 38), so top
        cohomology is the line of [vol].  Coefficients may be MPolys.
        """
        f_vol = apply_algebra_map(alg, images, self.representative, self.functional.box)
        return self.functional.apply(f_vol)


def check_volume_representative(alg: SullivanAlgebra, e: Element, cert) -> int:
    """The formal dimension, once ``e`` is a nonzero closed homogeneous element
    of it in an elliptic algebra with d^2 = 0; else :class:`VolumeRejection`
    carrying the failed condition.  Non-exactness is left to the caller."""
    if not isinstance(cert, EllipticityCertificate):
        raise VolumeRejection("no ellipticity certificate: formal dimension undefined")
    if not check_d_squared(alg):
        raise VolumeRejection("d^2 != 0")
    if not e:
        raise VolumeRejection("zero element")
    if not e.is_homogeneous():
        raise VolumeRejection("not homogeneous")
    top = dimension_formula(alg)
    if e.degree() != top:
        raise VolumeRejection(f"degree {e.degree()} != formal dimension {top}")
    if extend_derivation(alg, e):
        raise VolumeRejection("not closed")
    return top


def verify_volume_form(alg: SullivanAlgebra, e: Element, cert) -> VolumeForm:
    """Accept a closed, non-exact representative of the top degree.

    Raises :class:`VolumeRejection` carrying the failed condition.  The
    returned VolumeForm carries the separating functional used to certify
    non-exactness (and later to read off mapping degrees).
    """
    top = check_volume_representative(alg, e, cert)
    if isinstance(alg, TensorProduct):
        functional = _product_functional(alg, e)
    else:
        functional = top_functional_from_volume(alg, e)
    if functional is None:
        raise VolumeRejection("exact")
    return VolumeForm(e, top, functional)


def _product_functional(prod: TensorProduct, e: Element) -> TopFunctional:
    """phi_A (x) phi_B from the factors' verified volume forms, scaled to phi(e) = 1.

    It is supported on bidegree (top, top) and vanishes on exact forms by
    the Kunneth decomposition, so two factor solves stand in for a far
    larger one on the product.  Raises VolumeRejection when it misses e.
    """
    phis = []
    for factor, cert, vol in prod.factors:
        if vol is None:
            raise StructureError("tensor factor carries no volume representative")
        phis.append(verify_volume_form(factor, vol, cert).functional.phi)
    fa, fb = phis
    phi = {ma + mb: ca * cb for ma, ca in fa.items() if ca for mb, cb in fb.items() if cb}
    lam = TopFunctional(prod, phi).apply(e)
    if not lam:
        raise VolumeRejection("not separated by the product functional")
    return TopFunctional(prod, {m: quotient(c, lam) for m, c in phi.items()})


def top_class_coefficient(alg: SullivanAlgebra, e: Element, vol: VolumeForm):
    """The unique rational lam with [e] = lam [vol] in top cohomology."""
    if e and not e.is_homogeneous():
        raise StructureError("top_class_coefficient requires a homogeneous element")
    if e and e.degree() != vol.degree:
        raise StructureError(f"element degree {e.degree()} is not the top degree {vol.degree}")
    if extend_derivation(alg, e):
        raise StructureError("element is not closed")
    return vol.functional.apply(e)
