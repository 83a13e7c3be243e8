"""Free graded-commutative algebras over Q on finitely many generators.

Monomials are exponent tuples aligned with a fixed, ordered generator list
(declaration order).  Odd generators carry exponent 0 or 1; the Koszul sign
of a product is the parity of the permutation that merges the two ordered
odd-factor lists.  All coefficients are exact: an int, or a Fraction when
not integral, for concrete elements (see :mod:`minmod.poly`), or any
ring-like object such as an ``MPoly`` that supports ``+``, ``-``, ``*`` and
truthiness for symbolic ones.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import add, le

from .poly import ONE, Terms, add_terms, render_terms


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
        self.parities = tuple(d % 2 for d in self.degrees)
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
    """Exponent tuples ``e`` with ``sum(e*d for d in degrees) == target``,
    in lexicographic order.

    Prefixes are extended one degree at a time, each in increasing exponent
    order, so the list stays lexicographically sorted; the last exponent is
    forced by the remainder.
    """
    if target < 0 or not degrees:
        return [()] if target == 0 else []
    partial = [((), target)]
    for d in degrees[:-1]:
        partial = [(p + (e,), r - e * d) for p, r in partial for e in range(r // d + 1)]
    d = degrees[-1]
    return [p + (r // d,) for p, r in partial if r % d == 0]


def within(mono, box) -> bool:
    """Whether every exponent of ``mono`` is at most the matching one of ``box``."""
    return all(map(le, mono, box))


def mul_terms(alg: FreeGCA, terms1: dict, terms2: dict, box=None) -> dict:
    """The product of two ``{monomial: coefficient}`` dicts as a new dict;
    with a ``box``, only the monomials :func:`within` it.  A pair vanishes on
    a shared odd factor, else its Koszul sign counts the left odd factors
    after each right one; the odd positions are found once per right
    monomial and once per left row, not once per pair."""
    if not terms1 or not terms2:
        return {}
    n, odd = len(alg.generators), alg.odd_indices
    right = []
    for m2, c2 in terms2.items():
        if len(m2) != n:
            raise StructureError("monomial over a different generator set")
        right.append((m2, c2, [j for j in odd if m2[j]]))
    terms: dict = {}
    for m1, c1 in terms1.items():
        if len(m1) != n:
            raise StructureError("monomial over a different generator set")
        odd1 = [i for i in odd if m1[i]]
        for m2, c2, odd2 in right:
            crossings = 0
            for j in odd2:
                if m1[j]:
                    break
                crossings += len(odd1) - bisect_right(odd1, j)
            else:
                m = tuple(map(add, m1, m2))
                if box is None or within(m, box):
                    add_terms(terms, ((m, -(c1 * c2) if crossings % 2 else c1 * c2),))
    return terms


class Element(Terms):
    """A finite formal sum of monomials of ``alg`` with exact coefficients.

    Immutable; ``terms`` never stores zero coefficients.  Arithmetic
    re-canonicalizes, so constructing from the result of any operation is a
    no-op.  Addition, scaling and powers come from :class:`minmod.poly.Terms`;
    operands must live in the same algebra object.
    """

    __slots__ = ("alg",)

    def __init__(self, alg: FreeGCA, terms: dict):
        _set_alg(self, alg)
        Terms.__init__(self, terms)

    def _new(self, terms):
        return Element(self.alg, terms)

    def _one(self):
        return self.alg.one()

    def _coerce(self, other):
        if not isinstance(other, Element) or other.alg is not self.alg:
            raise StructureError("elements over different generator sets")
        return other

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.alg is other.alg and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    __hash__ = Terms.__hash__

    def __mul__(self, other):
        if isinstance(other, Element):
            self._coerce(other)
            return Element(self.alg, mul_terms(self.alg, self.terms, other.terms))
        return self.scale(other)

    __rmul__ = Terms.scale

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

    def __str__(self):
        """Round-trippable rendering of a rational element (the inverse of
        ``dsl.parse_element``); symbolic coefficients print in parentheses."""
        return render_terms((self.alg.monomial_str(m) if any(m) else "", self.terms[m])
                            for m in sorted(self.terms))

    __repr__ = __str__


_set_alg = Element.alg.__set__  # as poly._set_terms
