"""Sullivan algebras: a differential on generators, extended as a derivation.

Provides the structural checks (d^2 = 0, minimality), ellipticity
certification by nilpotency of the even generators, the formal-dimension
formula for elliptic algebras, tensor products and the single
contractible-pair elimination step used for rational fibrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, mul

from .gca import Element, FreeGCA, Generator, StructureError, mul_terms, within
from .poly import ZERO, add_terms


class ContractionError(ValueError):
    """Precondition violation in eliminate_contractible_pair."""


class SullivanAlgebra:
    """A free graded-commutative algebra with a degree +1 differential.

    ``diff`` maps each generator index to an Element of degree deg+1 over the
    same algebra.  Construction validates homogeneity; d^2 = 0 and minimality
    are separate, explicit checks.
    """

    def __init__(self, free: FreeGCA, diff: dict, name: str = ""):
        self.free = free
        self.generators = free.generators
        self.name = name
        images = []
        for i, g in enumerate(self.generators):
            img = diff.get(g.name, free.zero())
            if img.alg is not free:
                raise StructureError(f"differential of {g.name} lives in a different algebra")
            if img and img.degree() != g.degree + 1:
                raise StructureError(
                    f"d({g.name}) must be homogeneous of degree {g.degree + 1}, "
                    f"got degrees {img.degrees_present()}"
                )
            images.append(img)
        self.diff = tuple(images)
        # (i, terms of d(x_i) with their odd factors) for each d(x_i) != 0
        self.leibniz = tuple(
            (i, tuple((md, cd, tuple(j for j in free.odd_indices if md[j]))
                      for md, cd in img.terms.items()))
            for i, img in enumerate(images) if img)

    def __repr__(self):
        label = self.name or "SullivanAlgebra"
        return f"<{label}: {', '.join(f'{g.name}:{g.degree}' for g in self.generators)}>"

    def gen(self, name):
        return self.free.gen(name)

    def d_gen(self, name) -> Element:
        return self.diff[self.free.index[name]]

    def basis_of_degree(self, n):
        return self.free.basis_of_degree(n)

    def max_degree(self) -> int:
        return max(g.degree for g in self.generators)


def extend_derivation(alg: SullivanAlgebra, e: Element) -> Element:
    """The unique degree +1 derivation extending the generator differentials.

    Each Leibniz term left * d(x_i) * right is multiplied out monomial by
    monomial into one accumulator.  With ``before[k]`` the number of odd
    factors of the monomial below index k, an odd factor j of a term of
    d(x_i) vanishes against the same factor of the monomial, and otherwise
    crosses the monomial's odd factors strictly between j and i; their
    count, plus ``before[i]`` for the derivation, is the Koszul sign.
    Coefficients of ``e`` may be any ring elements (``MPoly`` for symbolic
    maps), so only ``*``, ``+`` and unary minus are applied to them.
    """
    free = alg.free
    if e.alg is not free:
        raise StructureError("element over a different algebra")
    odd = free.parities
    terms: dict = {}
    for mono, c in e.terms.items():
        before = list(accumulate(map(mul, mono, odd), initial=0))
        for i, dterms in alg.leibniz:
            exp = mono[i]
            if not exp:
                continue
            bi, bi1 = before[i], before[i + 1]
            base = mono[:i] + (exp - 1,) + mono[i + 1:]
            coeff = c if exp == 1 else c * exp
            if bi % 2:
                coeff = -coeff
            for md, cd, md_odd in dterms:
                crossings = 0
                for j in md_odd:
                    if j != i and mono[j]:
                        break
                    if j < i:
                        crossings += bi - before[j + 1]
                    elif j > i:
                        crossings += before[j] - bi1
                else:
                    v = coeff * cd
                    if crossings % 2:
                        v = -v
                    m = tuple(map(add, base, md))
                    s = terms.get(m, ZERO) + v
                    if s:
                        terms[m] = s
                    else:
                        terms.pop(m, None)
    return Element(free, terms)


@dataclass
class CheckReport:
    ok: bool
    failures: list  # (generator name, offending Element)

    def __bool__(self):
        return self.ok


def check_d_squared(alg: SullivanAlgebra) -> CheckReport:
    """d(d(g)) == 0 for every generator (sufficient, d being a derivation)."""
    failures = []
    for g, dg in zip(alg.generators, alg.diff):
        r = extend_derivation(alg, dg)
        if r:
            failures.append((g.name, r))
    return CheckReport(not failures, failures)


def check_minimality(alg: SullivanAlgebra) -> CheckReport:
    """Every differential image has word length >= 2 (no linear part)."""
    failures = []
    for g, dg in zip(alg.generators, alg.diff):
        if dg and min(map(sum, dg.terms)) < 2:
            failures.append((g.name, dg))
    return CheckReport(not failures, failures)


def apply_algebra_map(target: SullivanAlgebra, images: dict, e: Element, box=None) -> Element:
    """Extend a generator assignment multiplicatively to an element.

    ``images`` maps generator names of ``e``'s algebra to Elements of
    ``target``; Koszul signs come out of monomial multiplication.  Each
    image power is formed once per call: ``powers`` keeps f(x), f(x)^2, ...
    per generator, only as far as the largest exponent met.  A term c*m of
    ``e`` starts from c times the power of m's first generator and multiplies
    that partial product by the powers of the others.  With an
    exponent tuple ``box`` of ``target``, every power and partial product
    keeps only its terms within the box, so the result is exactly the terms
    of the full image within the box: exponents only grow under
    multiplication, so a dropped term never leads back into it.
    """
    src = e.alg
    free = target.free
    powers: dict = {}  # generator index -> [f(x), f(x)^2, ...] as term dicts
    out: dict = {}
    for mono, c in e.terms.items():
        term = None
        for i, exp in enumerate(mono):
            if exp:
                pw = powers.get(i)
                if pw is None:
                    name = src.generators[i].name
                    if name not in images:
                        raise StructureError(f"no image for generator {name}")
                    img = images[name]
                    if img.alg is not free:
                        raise StructureError("elements over different generator sets")
                    pw = powers[i] = [img.terms if box is None else
                                      {m: v for m, v in img.terms.items() if within(m, box)}]
                while len(pw) < exp:
                    pw.append(mul_terms(free, pw[-1], pw[0], box))
                p = pw[exp - 1]
                if term is not None:
                    term = mul_terms(free, term, p, box)
                else:  # the first factor crosses nothing, so it has no sign
                    term = p if c == 1 else {m: c * v for m, v in p.items()}
        if term is None:  # the unit monomial
            term = {free.unit_monomial: c}
        add_terms(out, term.items())
    return Element(free, out)


# -- ellipticity and formal dimension -------------------------------------


def dimension_formula(alg: SullivanAlgebra) -> int:
    """Sum of odd degrees minus sum of (even degree - 1)."""
    total = 0
    for g in alg.generators:
        total += g.degree if g.is_odd else -(g.degree - 1)
    return total


@dataclass
class EllipticityCertificate:
    """Per even generator: the minimal exponent N and a witness w, d(w) = x^N."""

    alg: SullivanAlgebra
    powers: dict  # name -> (N, witness Element)

    def replay(self) -> bool:
        free = self.alg.free
        for name, (n, w) in self.powers.items():
            # x^n is one monomial; n comes from a report, so it is never multiplied out
            if extend_derivation(self.alg, w) != free.element({free.monomial(**{name: n}): 1}):
                return False
        return True


class Undecided(Exception):
    """The ellipticity search cannot decide: inconclusive, not a disproof."""

    def __init__(self, generator: str, reason: str):
        super().__init__(f"ellipticity inconclusive at {generator}")
        self.generator = generator
        self.reason = reason


def nilpotency_bound(alg: SullivanAlgebra, gen: Generator) -> int:
    """Smallest N with N*deg > (dimension formula value) + max generator degree.

    For an elliptic algebra cohomology vanishes above the formal dimension,
    so the true minimal exponent lies below this; failure to find one is
    reported as inconclusive.
    """
    ceiling = dimension_formula(alg) + alg.max_degree()
    return ceiling // gen.degree + 1


def ellipticity_certificate(alg: SullivanAlgebra) -> EllipticityCertificate:
    """Certify nilpotency of every even generator, with exactness witnesses.

    Raises Undecided at the first even generator that is not closed (its
    powers are not cocycles, so the search does not apply) or has no exact
    power up to ``nilpotency_bound``.
    """
    from . import cohomology

    powers = {}
    for g, dg in zip(alg.generators, alg.diff):
        if g.is_odd:
            continue
        if dg:
            raise Undecided(g.name, "not closed")
        n_max = nilpotency_bound(alg, g)
        x = alg.gen(g.name)
        xn = alg.free.one()
        for n in range(1, n_max + 1):
            xn = xn * x
            witness = cohomology.is_exact(alg, xn)
            if witness is not None:
                powers[g.name] = (n, witness.preimage)
                break
        else:
            raise Undecided(g.name, f"bound {n_max}")
    return EllipticityCertificate(alg, powers)


def formal_dimension(alg: SullivanAlgebra, cert) -> int:
    """The top nonzero cohomological degree; valid only given ellipticity."""
    if not isinstance(cert, EllipticityCertificate):
        raise StructureError("formal dimension requires an ellipticity certificate")
    return dimension_formula(alg)


# -- tensor products -------------------------------------------------------


class TensorProduct(SullivanAlgebra):
    """The product algebra A (x) B with the product differential.

    Generator names are suffixed with the factor index when the two factor
    name sets collide.  ``factors`` keeps each factor with its ellipticity
    certificate and volume representative (None when not given), from which
    the product's top functional is built.  A product is certified like any
    other algebra: an A-only power x^n meets only A's block of d, so the
    search finds each factor's exponent and witness.
    """

    def __init__(self, a: SullivanAlgebra, b: SullivanAlgebra,
                 cert_a=None, cert_b=None, vol_a=None, vol_b=None):
        self.factors = ((a, cert_a, vol_a), (b, cert_b, vol_b))
        collide = bool({g.name for g in a.generators} & {g.name for g in b.generators})
        gens = [Generator(f"{g.name}_{k}" if collide else g.name, g.degree)
                for k, factor in ((1, a), (2, b)) for g in factor.generators]
        self.free = FreeGCA(gens)
        self._a_zeros = (0,) * len(a.generators)
        self._b_zeros = (0,) * len(b.generators)
        images = [*map(self.embed_left, a.diff), *map(self.embed_right, b.diff)]
        super().__init__(self.free, {g.name: img for g, img in zip(gens, images)},
                         name=f"{a.name or 'A'}(x){b.name or 'B'}")

    def embed_left(self, e: Element) -> Element:
        """An element of the first factor, as an element of the product."""
        zeros = self._b_zeros
        return Element(self.free, {m + zeros: c for m, c in e.terms.items()})

    def embed_right(self, e: Element) -> Element:
        """An element of the second factor, as an element of the product."""
        zeros = self._a_zeros
        return Element(self.free, {zeros + m: c for m, c in e.terms.items()})


tensor_product = TensorProduct


# -- contractible pairs ----------------------------------------------------


def eliminate_contractible_pair(alg: SullivanAlgebra, w_name: str, x_name: str) -> SullivanAlgebra:
    """Remove a pair (w, x) with d(w) = m - x, substituting x by m.

    Preconditions (checked): m involves neither x nor w, x is closed, and no
    other generator's differential mentions w.  The result again passes the
    d^2 and minimality checks.
    """
    free = alg.free
    iw = free.index.get(w_name)
    ix = free.index.get(x_name)
    if iw is None or ix is None:
        raise ContractionError(f"unknown generator {w_name!r} or {x_name!r}")
    dw = alg.diff[iw]
    x_mono = free.monomial(**{x_name: 1})
    if dw.terms.get(x_mono) != -1:
        raise ContractionError(f"d({w_name}) must contain the term -{x_name}")
    m = alg.free.element({mo: c for mo, c in dw.terms.items() if mo != x_mono})
    for mono in m.terms:
        if mono[ix] or mono[iw]:
            raise ContractionError(f"the complement of -{x_name} in d({w_name}) involves the pair")
    if alg.diff[ix]:
        raise ContractionError(f"{x_name} is not closed")
    for i, dg in enumerate(alg.diff):
        if i == iw:
            continue
        if any(mono[iw] for mono in dg.terms):
            raise ContractionError(f"d({alg.generators[i].name}) involves {w_name}")

    kept = [g for i, g in enumerate(alg.generators) if i not in (iw, ix)]
    new_free = FreeGCA(kept)
    target = SullivanAlgebra(new_free, {}, name=alg.name)
    images = {g.name: new_free.gen(g.name) for g in kept}
    images[x_name] = apply_algebra_map(target, images, m)
    diff = {}
    for i, g in enumerate(alg.generators):
        if i in (iw, ix):
            continue
        diff[g.name] = apply_algebra_map(target, images, alg.diff[i])
    reduced = SullivanAlgebra(new_free, diff, name=(alg.name + "-reduced") if alg.name else "")
    if not check_d_squared(reduced):
        raise ContractionError("elimination broke d^2 = 0")
    if not check_minimality(reduced):
        raise ContractionError("elimination broke minimality")
    return reduced
