"""Free graded-commutative algebras over Q on finitely many generators.

Monomials are exponent tuples aligned with a fixed, ordered generator list
(declaration order).  Odd generators carry exponent 0 or 1; the Koszul sign
of a product is the parity of the permutation that merges the two ordered
odd-factor lists.  All coefficients are exact: ``fractions.Fraction`` for
concrete elements, or any ring-like object (see :mod:`minmod.poly`) that
supports ``+``, ``-``, ``*`` and truthiness for symbolic ones.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import le

ZERO = Fraction(0)
ONE = Fraction(1)


class StructureError(ValueError):
    """Mismatched generator sets or malformed algebra input."""


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise StructureError(f"generator {self.name}: degree must be >= 2, got {self.degree}")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class FreeGCA:
    """The free graded-commutative algebra on an ordered generator tuple."""

    def __init__(self, generators):
        gens = tuple(generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise StructureError(f"duplicate generator names in {names}")
        self.generators = gens
        self.index = {g.name: i for i, g in enumerate(gens)}
        self.degrees = tuple(g.degree for g in gens)
        self.odd_indices = tuple(i for i, g in enumerate(gens) if g.is_odd)
        self.even_indices = tuple(i for i, g in enumerate(gens) if not g.is_odd)
        self.unit_monomial = (0,) * len(gens)

    # FreeGCA instances are compared by identity on purpose: elements of two
    # structurally equal but distinct algebras are still kept apart.
    def __repr__(self):
        return "FreeGCA(%s)" % ", ".join(f"{g.name}:{g.degree}" for g in self.generators)

    def monomial_degree(self, mono) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def monomial(self, **exps) -> tuple:
        """Build an exponent tuple from keyword arguments, validating odd squares."""
        vec = [0] * len(self.generators)
        for name, e in exps.items():
            if name not in self.index:
                raise StructureError(f"unknown generator {name!r}")
            if e < 0:
                raise StructureError(f"negative exponent for {name}")
            i = self.index[name]
            if self.generators[i].is_odd and e > 1:
                raise StructureError(f"odd generator {name} squared")
            vec[i] = e
        return tuple(vec)

    def mul_monomials(self, m1, m2):
        """Product of two monomials: ``(sign, monomial)`` or ``None`` when it vanishes."""
        if len(m1) != len(self.generators) or len(m2) != len(self.generators):
            raise StructureError("monomial over a different generator set")
        odd1 = [i for i in self.odd_indices if m1[i]]
        crossings = 0
        for j in self.odd_indices:
            if m2[j]:
                if m1[j]:
                    return None
                # odd factors of m1 that j has to move past
                crossings += len(odd1) - bisect_right(odd1, j)
        sign = -1 if crossings % 2 else 1
        return sign, tuple(a + b for a, b in zip(m1, m2))

    def monomial_str(self, mono) -> str:
        if not any(mono):
            return "1"
        parts = []
        for i, e in enumerate(mono):
            if e == 1:
                parts.append(self.generators[i].name)
            elif e > 1:
                parts.append(f"{self.generators[i].name}^{e}")
        return "*".join(parts)

    # -- elements ----------------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {self.unit_monomial: ONE})

    def gen(self, name: str) -> "Element":
        if name not in self.index:
            raise StructureError(f"unknown generator {name!r}")
        return Element(self, {self.monomial(**{name: 1}): ONE})

    def element(self, terms) -> "Element":
        """Canonicalize a {monomial: coefficient} mapping into an Element."""
        return Element(self, {m: c for m, c in terms.items() if c})

    def basis_of_degree(self, n: int):
        """All monomials of total degree ``n``, deterministically ordered.

        Odd subsets are enumerated first; the even part is a bounded
        Diophantine fill.  The result is sorted by exponent tuple.
        """
        if n < 0:
            raise ValueError("degree must be non-negative")
        return self._basis_cached(n)

    @lru_cache(maxsize=None)
    def _basis_cached(self, n):
        out = []
        odd = self.odd_indices
        even = self.even_indices
        for r in range(len(odd) + 1):
            for subset in combinations(odd, r):
                rem = n - sum(self.degrees[i] for i in subset)
                if rem < 0:
                    continue
                base = [0] * len(self.generators)
                for i in subset:
                    base[i] = 1
                for fill in _even_fills(tuple(self.degrees[i] for i in even), rem):
                    vec = list(base)
                    for i, e in zip(even, fill):
                        vec[i] = e
                    out.append(tuple(vec))
        out.sort()
        return tuple(out)


def _even_fills(degrees, target):
    """Exponent tuples ``e`` with ``sum(e*d for d in degrees) == target``."""
    if not degrees:
        if target == 0:
            yield ()
        return
    d = degrees[0]
    rest = degrees[1:]
    for e in range(target // d + 1):
        for tail in _even_fills(rest, target - e * d):
            yield (e,) + tail


def within(mono, box) -> bool:
    """Whether every exponent of ``mono`` is at most the matching one of ``box``."""
    return all(map(le, mono, box))


def _coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class Element:
    """A finite formal sum of monomials with exact coefficients.

    Immutable; ``terms`` never stores zero coefficients.  Arithmetic
    re-canonicalizes, so constructing from the result of any operation is a
    no-op.
    """

    __slots__ = ("alg", "terms", "_hash")

    def __init__(self, alg: FreeGCA, terms: dict):
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", dict(terms))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Element is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.alg is other.alg and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((id(self.alg), frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def _check(self, other: "Element"):
        if self.alg is not other.alg:
            raise StructureError("elements over different generator sets")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Element(self.alg, terms)

    def __neg__(self):
        return Element(self.alg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul(self, other, box=None):
        """The product; with an exponent tuple ``box``, only the terms
        :func:`within` it, skipping the coefficient products of the others."""
        if isinstance(other, Element):
            self._check(other)
            terms: dict = {}
            alg = self.alg
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    sm = alg.mul_monomials(m1, m2)
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
            return Element(self.alg, terms)
        return self.scale(other)

    __mul__ = mul

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, q) -> "Element":
        q = _coeff(q)
        if not q:
            return self.alg.zero()
        return Element(self.alg, {m: c * q for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("negative power")
        out = self.alg.one()
        for _ in range(n):
            out = out * self
        return out

    def map_coefficients(self, fn) -> "Element":
        return self.alg.element({m: fn(c) for m, c in self.terms.items()})

    def degrees_present(self):
        return sorted({self.alg.monomial_degree(m) for m in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees_present()) <= 1

    def degree(self):
        """Degree of a homogeneous element, ``None`` for 0."""
        degs = self.degrees_present()
        if not degs:
            return None
        if len(degs) > 1:
            raise StructureError(f"element is not homogeneous: degrees {degs}")
        return degs[0]

    def min_word_length(self):
        """Smallest number of generator factors over all monomials (None for 0)."""
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            ms = self.alg.monomial_str(m)
            if isinstance(c, Fraction):
                if ms == "1":
                    piece = str(c)
                elif c == 1:
                    piece = ms
                elif c == -1:
                    piece = f"-{ms}"
                else:
                    piece = f"{c}*{ms}"
            else:
                piece = f"({c})*{ms}" if ms != "1" else f"({c})"
            parts.append(piece)
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    __repr__ = __str__
