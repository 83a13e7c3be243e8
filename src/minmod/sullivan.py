"""Sullivan algebras: a differential on generators, extended as a derivation.

Provides the structural checks (d^2 = 0, minimality), ellipticity
certification by nilpotency of the even generators, the formal-dimension
formula for elliptic algebras, tensor products and the single
contractible-pair elimination step used for rational fibrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gca import Element, FreeGCA, Generator, StructureError

ONE = Fraction(1)


class ContractionError(ValueError):
    """Precondition violation in eliminate_contractible_pair."""


class SullivanAlgebra:
    """A free graded-commutative algebra with a degree +1 differential.

    ``diff`` maps each generator index to an Element of degree deg+1 over the
    same algebra.  Construction validates homogeneity; d^2 = 0 and minimality
    are separate, explicit checks.
    """

    def __init__(self, free: FreeGCA, diff: dict, name: str = "", tensor_factors=None):
        self.free = free
        self.generators = free.generators
        self.name = name
        self.tensor_factors = tensor_factors
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
    """The unique degree +1 derivation extending the generator differentials."""
    free = alg.free
    if e.alg is not free:
        raise StructureError("element over a different algebra")
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
        if dg and dg.min_word_length() < 2:
            failures.append((g.name, dg))
    return CheckReport(not failures, failures)


def apply_algebra_map(target: SullivanAlgebra, images: dict, e: Element, box=None) -> Element:
    """Extend a generator assignment multiplicatively to an element.

    ``images`` maps generator names of ``e``'s algebra to Elements of
    ``target``; Koszul signs come out of Element multiplication.  Each term
    of ``e`` is multiplied out one generator factor at a time.  With an
    exponent tuple ``box`` of ``target``, every partial product keeps only
    its terms within the box, so the result is exactly the terms of the full
    image within the box: exponents only grow under multiplication, so a
    dropped term never leads back into it.
    """
    src = e.alg
    out = target.free.zero()
    for mono, c in e.terms.items():
        term = target.free.one().scale(c)
        for i, exp in enumerate(mono):
            if exp:
                name = src.generators[i].name
                if name not in images:
                    raise StructureError(f"no image for generator {name}")
                for _ in range(exp):
                    term = term.mul(images[name], box)
        out = out + term
    return out


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
        for name, (n, w) in self.powers.items():
            if extend_derivation(self.alg, w) != self.alg.gen(name) ** n:
                return False
        return True


@dataclass
class EllipticityFailure:
    generator: str
    n_max: int
    reason: str = "exactness search exceeded bound (inconclusive, not a disproof)"

    def __bool__(self):
        return False


def nilpotency_bound(alg: SullivanAlgebra, gen: Generator) -> int:
    """Smallest N with N*deg > (dimension formula value) + max generator degree.

    For an elliptic algebra cohomology vanishes above the formal dimension,
    so the true minimal exponent lies below this; failure to find one is
    reported as inconclusive.
    """
    ceiling = dimension_formula(alg) + alg.max_degree()
    n = ceiling // gen.degree + 1
    while n * gen.degree <= ceiling:
        n += 1
    return n


def ellipticity_certificate(alg: SullivanAlgebra):
    """Certify nilpotency of every even generator, with exactness witnesses."""
    from . import cohomology

    if alg.tensor_factors is not None:
        return _tensor_certificate(alg)
    powers = {}
    for g in alg.generators:
        if g.is_odd:
            continue
        n_max = nilpotency_bound(alg, g)
        x = alg.gen(g.name)
        found = None
        for n in range(1, n_max + 1):
            witness = cohomology.is_exact(alg, x ** n)
            if witness is not None:
                found = (n, witness.preimage)
                break
        if found is None:
            return EllipticityFailure(g.name, n_max)
        powers[g.name] = found
    return EllipticityCertificate(alg, powers)


def _tensor_certificate(alg: SullivanAlgebra):
    """Assemble a product certificate by embedding the factor witnesses."""
    (a, cert_a, _), (b, cert_b, _) = alg.tensor_factors
    if cert_a is None or cert_b is None:
        raise StructureError("tensor factors carry no ellipticity certificates")
    powers = {}
    for factor, cert, embed in ((a, cert_a, alg.embed_left), (b, cert_b, alg.embed_right)):
        for name, (n, w) in cert.powers.items():
            powers[alg.embedded_name(factor, name)] = (n, embed(w))
    return EllipticityCertificate(alg, powers)


@dataclass(frozen=True)
class FormalDimension:
    value: int


def formal_dimension(alg: SullivanAlgebra, cert) -> FormalDimension:
    """The top nonzero cohomological degree; valid only given ellipticity."""
    if not isinstance(cert, EllipticityCertificate):
        raise StructureError("formal dimension requires an ellipticity certificate")
    return FormalDimension(dimension_formula(alg))


# -- tensor products -------------------------------------------------------


def tensor_product(a: SullivanAlgebra, b: SullivanAlgebra,
                   cert_a=None, cert_b=None, vol_a=None, vol_b=None) -> SullivanAlgebra:
    """The product algebra with the product differential.

    Generator names are suffixed with the factor index when the two factor
    name sets collide.  The result keeps embedding helpers and the factor
    certificates (if given) so product-level certificates stay cheap.
    """
    collide = bool({g.name for g in a.generators} & {g.name for g in b.generators})

    def rename(name, k):
        return f"{name}_{k}" if collide else name

    gens = [Generator(rename(g.name, 1), g.degree) for g in a.generators]
    gens += [Generator(rename(g.name, 2), g.degree) for g in b.generators]
    free = FreeGCA(gens)
    na = len(a.generators)
    nb = len(b.generators)

    def embed_left(e: Element) -> Element:
        return Element(free, {m + (0,) * nb: c for m, c in e.terms.items()})

    def embed_right(e: Element) -> Element:
        return Element(free, {(0,) * na + m: c for m, c in e.terms.items()})

    diff = {}
    for g, dg in zip(a.generators, a.diff):
        diff[rename(g.name, 1)] = embed_left(dg)
    for g, dg in zip(b.generators, b.diff):
        diff[rename(g.name, 2)] = embed_right(dg)

    prod = SullivanAlgebra(free, diff,
                           name=f"{a.name or 'A'}(x){b.name or 'B'}",
                           tensor_factors=((a, cert_a, vol_a), (b, cert_b, vol_b)))
    prod.embed_left = embed_left
    prod.embed_right = embed_right
    prod.embedded_name = lambda factor, nm: rename(nm, 1 if factor is a else 2)
    return prod


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
    if dw.terms.get(x_mono) != Fraction(-1):
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
