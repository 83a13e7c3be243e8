"""Multivariate polynomials over Q in named unknowns, on a shared sparse-term base.

``Terms`` is the immutable ``{key: coefficient}`` sum behind both ``MPoly``
and ``gca.Element``.  ``MPoly`` is the coefficient ring for symbolic self-map
ansatz elements and the constraint language of the degree-spectrum solver.
Its terms map a sorted ``((var, exp), ...)`` tuple to a nonzero rational;
the empty tuple is the constant term.

A rational coefficient is an int, or a Fraction when not integral: most are
integers, and int arithmetic is several times faster.  Every quotient goes
through :func:`quotient` (``/`` of ints is a float); :class:`Terms` stores an
integral Fraction as an int.  :meth:`MPoly.substitute` is one dict-to-dict
pass, with the powers of each polynomial value cached per call.
``Terms.__pow__`` raises powers by squaring, in about ``2*log2(n)`` products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

ZERO = 0
ONE = 1


def quotient(a, b):
    """The exact quotient ``a / b`` of two rationals: an int when it is
    integral, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _as_rational(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not a rational scalar: {x!r}")


def _mul_keys(k1, k2):
    exps = dict(k1)
    for v, e in k2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def add_terms(acc: dict, pairs) -> dict:
    """Merge ``(key, coefficient)`` pairs into ``acc`` in place and return it,
    dropping zero sums; a new key takes ``c`` itself, as ``0 + c`` copies."""
    for k, c in pairs:
        s = acc.get(k)
        s = c if s is None else s + c
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


def _product(terms1: dict, terms2: dict) -> dict:
    terms: dict = {}
    for k1, c1 in terms1.items():
        for k2, c2 in terms2.items():
            k = _mul_keys(k1, k2)
            s = terms.get(k, ZERO) + c1 * c2
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
    return terms


def render_terms(pairs) -> str:
    """``c*m + ...`` from ``(monomial string, coefficient)`` pairs, with ``""``
    for the unit monomial.  A unit coefficient is left out, ``+ -`` reads
    ``-``, and a coefficient that is not rational (a polynomial) prints in
    parentheses."""
    parts = []
    for mono, c in pairs:
        if not isinstance(c, (int, Fraction)):
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        elif not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class Terms:
    """An immutable sparse sum ``{key: coefficient}`` that never stores a zero.

    The base of :class:`MPoly` and :class:`minmod.gca.Element`: addition,
    negation, scaling and powers are shared, while each subclass supplies
    its key product, its equality and three hooks: ``_new(terms)`` builds a
    sum of the same kind, ``_one()`` its unit, and ``_coerce(other)`` turns
    an operand into such a sum or raises.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        terms = dict(terms or {})
        for k, c in terms.items():  # a Fraction sum or product may be integral
            if type(c) is Fraction and c.denominator == 1:
                terms[k] = c.numerator
        _set_terms(self, terms)
        _set_hash(self, None)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            terms = self.terms
            if len(terms) > 1 or (terms and () not in terms):
                h = hash(frozenset(terms.items()))
            else:  # equal to a scalar, so hashed like it: the empty sum like 0
                h = hash(terms.get((), 0))
            _set_hash(self, h)
        return h

    def __add__(self, other):
        other = self._coerce(other)
        return self._new(add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def scale(self, q):
        """Every coefficient times the scalar ``q``."""
        if not q:
            return self._new({})
        return self._new({k: c * q for k, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        # square-and-multiply: about 2*log2(n) products; both rings are associative
        out, base = self._one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out


# The slots' own setters get past the immutability guard of ``__setattr__``
# more cheaply than ``object.__setattr__``, on the hottest constructors.
_set_terms = Terms.terms.__set__
_set_hash = Terms._hash.__set__


class MPoly(Terms):
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ()

    def _new(self, terms):
        return MPoly(terms)

    def _one(self):
        return MPoly.const(1)

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        return MPoly.const(other)

    @staticmethod
    def const(q) -> "MPoly":
        q = _as_rational(q)
        return MPoly({(): q} if q else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "MPoly":
        if exp == 0:
            return MPoly.const(1)
        return MPoly({((name, exp),): ONE})

    # -- ring structure ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): other} if other else {})
        return NotImplemented

    __hash__ = Terms.__hash__
    __radd__ = Terms.__add__

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(_as_rational(other))
        return MPoly(_product(self.terms, other.terms))

    __rmul__ = __mul__

    # -- structure queries -------------------------------------------------

    def variables(self) -> set:
        return {v for k in self.terms for v, _ in k}

    def constant_value(self):
        """The rational value if constant, else None."""
        if len(self.terms) > 1 or (self.terms and () not in self.terms):
            return None
        return self.terms.get((), ZERO)

    def bare_linear_var(self):
        """A variable appearing exactly once, as a term ``c*v``: ``(v, c)``.

        Such a variable can be eliminated by ``v := -(rest)/c``.  Returns the
        smallest such variable for determinism, or None.
        """
        counts: dict = {}
        for k in self.terms:
            for v, e in k:
                counts[v] = counts.get(v, 0) + 1
        best = None
        for k, c in self.terms.items():
            if len(k) == 1 and k[0][1] == 1:
                v = k[0][0]
                if counts[v] == 1 and (best is None or v < best[0]):
                    best = (v, c)
        return best

    def eliminate(self, var, coeff) -> "MPoly":
        """Solve ``self == 0`` for the bare linear ``var``: the substitution value."""
        rest = MPoly({k: c for k, c in self.terms.items() if k != ((var, 1),)})
        return rest.scale(quotient(-1, coeff))

    def monomial_content(self) -> dict:
        """Variables (with multiplicity) dividing every term."""
        keys = iter(self.terms)
        content = dict(next(keys, ()))
        for k in keys:
            exps = dict(k)
            content = {v: min(e, exps[v]) for v, e in content.items() if v in exps}
            if not content:
                break
        return content

    def divide_monomial(self, exps: dict) -> "MPoly":
        terms = {}
        for k, c in self.terms.items():
            d = dict(k)
            for v, e in exps.items():
                d[v] -= e
                if d[v] < 0:
                    raise ValueError("not divisible")
                if d[v] == 0:
                    del d[v]
            terms[tuple(sorted(d.items()))] = c
        return MPoly(terms)

    def as_single_monomial(self):
        """``(coeff, {var: exp})`` if the polynomial has exactly one term."""
        if len(self.terms) != 1:
            return None
        (k, c), = self.terms.items()
        return c, dict(k)

    def as_binomial(self):
        """``((c1, e1), (c2, e2))`` for a two-term polynomial."""
        if len(self.terms) != 2:
            return None
        (k1, c1), (k2, c2) = sorted(self.terms.items())
        return (c1, dict(k1)), (c2, dict(k2))

    def substitute(self, assignment: dict) -> "MPoly":
        """Substitute variables by MPoly or rational values, simultaneously:
        values are not substituted into each other (others untouched)."""
        if not any(v in assignment for k in self.terms for v, _ in k):
            return self
        powers: dict = {}  # (var, e) -> value**e: a scalar, or a polynomial's terms
        out: dict = {}
        for k, c in self.terms.items():
            factors = []
            for v, e in k:
                if v not in assignment:
                    continue
                p = powers.get((v, e))
                if p is None:
                    val = self._coerce(assignment[v])
                    q = val.constant_value()
                    p = powers[v, e] = reduce(_product, [val.terms] * e) if q is None else q ** e
                if type(p) is dict:
                    factors.append(p)
                else:
                    c = c * p
            if c:
                rest = tuple(f for f in k if f[0] not in assignment)
                add_terms(out, reduce(_product, factors, {rest: c}).items())
        return MPoly(out)

    def __str__(self):
        return render_terms(("*".join(v if e == 1 else f"{v}^{e}" for v, e in k), self.terms[k])
                            for k in sorted(self.terms))

    __repr__ = __str__
