"""Degree spectra of self-maps.

Pipeline: a generic degree-preserving ansatz for an endomorphism, polynomial
constraints from commutation with the differential, simplification by linear
substitution plus case splitting, a multiplicative solver for the surviving
monomial equations, and classification of the achievable mapping degrees.

The multiplicative solver treats unknowns as nonzero rationals: a sign bit
and one p-adic valuation per relevant prime, all solved through one Smith
decomposition of the exponent matrix.  A trivial kernel therefore forces
every magnitude; a nontrivial kernel means a genuinely free family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .cohomology import VolumeForm
from .gca import Element, StructureError, within
from .poly import ONE, ZERO, MPoly, quotient, render_terms
from .sullivan import SullivanAlgebra, apply_algebra_map, extend_derivation


@dataclass(frozen=True)
class SolverConfig:
    case_depth: int = 12
    node_budget: int = 4000


# the free unknowns' values at which a degree family is verified by witnesses
FAMILY_SAMPLES = (2, 3)


# -- ansatz and constraint extraction --------------------------------------


@dataclass
class EndoAnsatz:
    """One unknown per basis monomial per generator, diagonal entries first."""

    alg: SullivanAlgebra
    rows: tuple          # per generator: tuple of (unknown name, monomial)
    images: dict         # generator name -> Element with MPoly coefficients
    diagonal: frozenset  # unknowns multiplying the generator's own monomial

    def unknowns(self):
        return [u for row in self.rows for u, _ in row]


def generic_ansatz(alg: SullivanAlgebra) -> EndoAnsatz:
    free = alg.free
    rows = []
    images = {}
    diagonal = set()
    counter = 0
    for g in alg.generators:
        own = free.monomial(**{g.name: 1})
        basis = [own] + [m for m in alg.basis_of_degree(g.degree) if m != own]
        row = []
        terms = {}
        for mono in basis:
            counter += 1
            u = f"k{counter}"
            row.append((u, mono))
            terms[mono] = MPoly.var(u)
        diagonal.add(row[0][0])
        rows.append(tuple(row))
        images[g.name] = Element(free, terms)
    return EndoAnsatz(alg, tuple(rows), images, frozenset(diagonal))


def _dedup_key(p: MPoly) -> MPoly:
    """A nonzero p scaled so the smallest term key has coefficient 1."""
    lead = p.terms[min(p.terms)]
    if lead == 1:
        return p
    return MPoly({k: quotient(c, lead) for k, c in p.terms.items()})


def extract_constraints(alg: SullivanAlgebra, ansatz: EndoAnsatz) -> list:
    """One vanishing polynomial per codomain monomial of d(f(v)) - f(d(v))."""
    out = []
    seen = set()
    for g in alg.generators:
        fv = ansatz.images[g.name]
        diff = extend_derivation(alg, fv) - apply_algebra_map(alg, ansatz.images, alg.d_gen(g.name))
        for mono in sorted(diff.terms):
            c = diff.terms[mono]
            p = c if isinstance(c, MPoly) else MPoly.const(c)
            if not p:
                continue
            key = _dedup_key(p)
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


# -- case contexts ---------------------------------------------------------


class Contradiction(Exception):
    """The current case admits no solutions."""


@dataclass(frozen=True)
class CaseContext:
    """Assumptions u != 0 plus one substitution map: unknown -> value, with
    ``MPoly()`` for u = 0.

    Values never mention an unknown that has a value, so one simultaneous
    pass fully reduces any polynomial.
    """

    values: dict = field(default_factory=dict)
    nonzeros: frozenset = frozenset()
    assumptions: tuple = ()  # human-readable trail

    def normalize(self, p: MPoly) -> MPoly:
        return p.substitute(self.values)

    def with_values(self, moves, notes) -> "CaseContext":
        """Extend by moves ``(v, value)`` in the order made.  A value mentions
        only unknowns moved after it, so the batch resolves in reverse order
        and then goes once into the inherited values."""
        batch: dict = {}
        for v, value in reversed(moves):
            batch[v] = value.substitute(batch)
        values = {k: val.substitute(batch) for k, val in self.values.items()}
        values.update((v, batch[v]) for v, _ in moves)
        return CaseContext(values, self.nonzeros, self.assumptions + tuple(notes))

    def with_zero(self, v) -> "CaseContext":
        if v in self.nonzeros:
            raise Contradiction(v)
        return self.with_values(((v, MPoly()),), (f"{v} = 0",))

    def with_nonzero(self, v) -> "CaseContext":
        return CaseContext(self.values, self.nonzeros | {v},
                           self.assumptions + (f"{v} != 0",))

    def evaluate(self, assignment: dict) -> dict:
        """Extend an assignment of the surviving unknowns to those with a value."""
        full = dict(assignment)
        for v, val in self.values.items():
            c = val.substitute(assignment).constant_value()
            if c is None:
                raise StructureError(f"substitution for {v} not grounded")
            full[v] = c
        return full


def simplify(constraints, ctx: CaseContext):
    """Reduce without splitting; raises Contradiction for an empty case.

    Applies three moves until none applies: drop known-nonzero monomial
    content, zero the single free factor of a pure-monomial constraint, and
    eliminate an unknown that occurs as a bare linear term.

    A worklist keeps these invariants, so the result is the one a full
    re-scan after every move would give:

    - each live constraint keeps its input position, and the result lists
      the live constraints in position order;
    - every live constraint is substituted, cleaned of known-nonzero content
      and keyed; a move re-processes only the positions that mention the
      unknown it removes;
    - of two constraints with the same dedup key, the earlier position stays;
    - a constraint that cleans to a nonzero constant refutes the case;
    - the next move zeroes at the lowest zeroable position; only when there
      is none does it eliminate at the lowest position with a bare linear
      unknown.

    The moves reach the context once, through :meth:`CaseContext.with_values`.
    """
    nonzeros = ctx.nonzeros
    moves = []           # (unknown, value) in the order made
    notes = []           # "v = 0" per zeroing
    live: dict = {}      # position -> cleaned constraint
    key_of: dict = {}    # position -> dedup key
    owner: dict = {}     # dedup key -> position
    index: dict = {}     # unknown -> positions that mention it
    zeroable = set()     # single monomials in one unknown
    linear = set()       # constraints with a bare linear unknown

    def drop(i):
        p = live.pop(i)
        del owner[key_of.pop(i)]
        for v in p.variables():
            index[v].discard(i)
        zeroable.discard(i)
        linear.discard(i)
        return p

    def place(i, p):
        if not p:
            return
        content = {v: e for v, e in p.monomial_content().items() if v in nonzeros}
        if content:
            p = p.divide_monomial(content)
        c = p.constant_value()
        if c is not None:
            raise Contradiction(f"0 = {c}")
        key = _dedup_key(p)
        q = owner.get(key)
        if q is not None:
            if q < i:
                return
            drop(q)
        live[i] = p
        key_of[i] = key
        owner[key] = i
        names = p.variables()
        for v in names:
            index.setdefault(v, set()).add(i)
        # content division leaves no known-nonzero unknown in a monomial
        if len(p.terms) == 1 and len(names) == 1:
            zeroable.add(i)
        if p.bare_linear_var() is not None:
            linear.add(i)

    for i, p in enumerate(constraints):
        place(i, ctx.normalize(p))
    while zeroable or linear:
        if zeroable:
            v, = live[min(zeroable)].variables()
            value = MPoly()
            notes.append(f"{v} = 0")
        else:
            p = drop(min(linear))
            v, c = p.bare_linear_var()
            value = p.eliminate(v, c)
        moves.append((v, value))
        touched = sorted(index[v])
        old = [drop(i) for i in touched]
        del index[v]
        for i, p in zip(touched, old):
            place(i, p.substitute({v: value}))
    return [live[i] for i in sorted(live)], ctx.with_values(moves, notes) if moves else ctx


# -- sympy-backed factoring ------------------------------------------------
# The case tree's constraints are mostly binomials, and its degrees mostly
# ideal members, so each function first settles the common case exactly: an
# irreducible binomial by rule, a member by division by the constraints.
# Everything else crosses to sympy's sparse polynomial rings
# (sympy.polys.rings) dict to dict, with no symbolic expression on either
# side.  sympy is imported inside each function that uses it, so that a
# process which never splits a case never pays for loading it.


def _to_ring(p: MPoly, ring):
    """p as an element of a sympy ``PolyRing`` whose generators include its unknowns."""
    at = {str(x): i for i, x in enumerate(ring.symbols)}
    terms = {}
    for k, c in p.terms.items():
        exps = [0] * ring.ngens
        for v, e in k:
            exps[at[v]] = e
        terms[tuple(exps)] = c
    return ring.from_dict(terms)


def _from_ring(f) -> MPoly:
    names = [str(x) for x in f.ring.symbols]
    return MPoly({tuple(sorted((v, e) for v, e in zip(names, exps) if e)):
                  quotient(int(c.numerator), int(c.denominator)) for exps, c in f.items()})


def _irreducible_binomial(q: MPoly, names):
    """q, an integral cofactor free of monomial content on the generators
    ``names``, in the normal form of sympy's ``factor_list`` if it is a
    binomial irreducible by rule; None otherwise.

    Its two monomials share no unknown.  With at least two unknowns and one
    of them, v, to the first power, q = a*v + b for coprime monomials a and b
    free of v: primitive of degree 1 in v, hence irreducible over Q (Gauss's
    lemma).  The normal form has coprime integer coefficients and a positive
    one on the lex-leading term.
    """
    if len(names) < 2 or len(q.terms) != 2 or all(e != 1 for k in q.terms for _, e in k):
        return None
    at = {v: i for i, v in enumerate(names)}

    def lex(term):
        exps = [0] * len(names)
        for v, e in term[0]:
            exps[at[v]] = e
        return exps

    (k1, c1), (k2, c2) = sorted(q.terms.items(), key=lex, reverse=True)
    g = gcd(c1, c2) if c1 > 0 else -gcd(c1, c2)
    return MPoly({k1: c1 // g, k2: c2 // g})


def factor_constraint(p: MPoly) -> list:
    """Distinct irreducible factors over Q (constants and multiplicity dropped).

    The case tree explores one branch per factor, in this order, so the
    order fixes that of leaves, witnesses and families in a report.  It is
    the order of sympy's ``factor_list``: each unknown of the monomial
    content is a factor, and the cofactor, its denominators cleared, is
    factored over Z in lex order on generators in sympy's order (by name,
    then by numeric suffix: k2 < k10).  All factors are then sorted by
    (length of the dense representation, number of generators, multiplicity,
    dense representation), and ties keep the unknowns' name order.

    A cofactor that ``_irreducible_binomial`` settles is its own factor, and
    sympy is not called; every other cofactor goes to ``factor_list``.
    """
    from sympy.polys.polyutils import _sort_gens
    from sympy.polys.rings import PolyRing

    content = p.monomial_content()
    cofactor = p.divide_monomial(content)
    # the key of v^e: dense representation [1, 0] on one generator, multiplicity e
    pieces = [((2, 1, e, [1, 0]), MPoly.var(v)) for v, e in sorted(content.items())]
    names = _sort_gens(cofactor.variables())
    if names:
        cofactor = cofactor.scale(lcm(*(c.denominator for c in cofactor.terms.values())))
        binomial = _irreducible_binomial(cofactor, names)
        if binomial is not None:
            # the first two entries of its key, dense length (degree in the
            # first generator, plus 1) and generator count, already exceed
            # the (2, 1) of every content piece
            degree = max(e for k in binomial.terms for v, e in k if v == names[0])
            pieces.append(((degree + 1, len(names)), binomial))
        else:
            _, factors = _to_ring(cofactor, PolyRing(names, "ZZ", "lex")).factor_list()
            pieces += [((len(rep := f.to_dense()), len(names), k, rep), _from_ring(f))
                       for f, k in factors]
    return [f for _, f in sorted(pieces, key=lambda piece: piece[0])]


def reduce_modulo(p: MPoly, polys) -> MPoly:
    """Remainder of p modulo the ideal of the given constraints: its normal
    form by a Groebner basis over Q, grevlex on the unknowns in name order.

    p and the remainder agree on the constraint variety, so the mapping
    degree may be read off the remainder; in particular a zero remainder
    proves the degree vanishes on the whole case.  p is first divided by the
    constraints themselves: a zero remainder there proves p is in the ideal,
    whose normal form is 0, and the basis is built only when it is nonzero.
    """
    from sympy.polys.groebnertools import groebner
    from sympy.polys.rings import PolyRing

    polys = [q for q in polys if q]
    if not polys or not p:
        return p
    names = sorted({v for q in polys for v in q.variables()} | p.variables())
    ring = PolyRing(names, "QQ", "grevlex")
    f, gens = _to_ring(p, ring), [_to_ring(q, ring) for q in polys]
    if not f.rem(gens):
        return MPoly()
    return _from_ring(f.rem(groebner(gens, ring)))


# -- monomial equation systems ---------------------------------------------


@dataclass(frozen=True)
class MonomialEquation:
    """prod v^exps[v] = const, with every v assumed nonzero."""

    exps: tuple   # sorted ((var, int exponent), ...), exponents may be negative
    const: int | Fraction

    def holds(self, assignment) -> bool:
        # an int to a negative power is a float, so each power is taken as a Fraction
        lhs = ONE
        for v, e in self.exps:
            lhs *= Fraction(assignment[v]) ** e
        return lhs == self.const


def to_monomial_equation(p: MPoly):
    """Binomial over nonzero unknowns -> multiplicative equation, else None."""
    b = p.as_binomial()
    if b is None:
        return None
    (c1, e1), (c2, e2) = b
    exps = dict(e1)
    for v, e in e2.items():
        exps[v] = exps.get(v, 0) - e
    return MonomialEquation(tuple(sorted((v, e) for v, e in exps.items() if e)),
                            quotient(-c2, c1))


SIGN_BITS_CAP = 12  # free sign bits enumerated at most: 4096 sign vectors


class EnumerationCap(Exception):
    """Too many solutions to enumerate; the case must stay unresolved."""


def solve_monomial_system(eqs) -> tuple:
    """The exact solution set over the nonzero rationals: dicts var -> rational.

    A nonzero rational is a sign bit and one valuation per prime, and each
    coordinate turns the system into A x = b for the integer exponent matrix
    A.  One Smith decomposition S = U A V (Cohen, §2.4) solves them all: U b
    must vanish past the rank and be divisible by each diagonal entry d_i;
    then y_i = (U b)_i / d_i and x = V y.  Modulo 2 an even d_i only asks for
    an even (U b)_i and leaves the sign of y_i free.  U and V may have large
    entries, so only sign and valuation vectors meet them, never a constant.
    Raises EnumerationCap when A has a kernel or there are too many free signs.
    """
    if any(eq.const != 1 for eq in eqs if not eq.exps):
        return ()
    eqs = [eq for eq in eqs if eq.exps]
    if not eqs:
        return ({},)
    from sympy import Matrix, factorint
    from sympy.matrices.normalforms import smith_normal_decomp

    variables = sorted({v for eq in eqs for v, _ in eq.exps})
    m, n = len(eqs), len(variables)
    S, U, V = smith_normal_decomp(Matrix([[dict(eq.exps).get(v, 0) for v in variables]
                                          for eq in eqs]))
    d = [int(S[i, i]) for i in range(min(m, n))]
    if m < n or 0 in d:
        raise EnumerationCap("free multiplicative kernel")
    U, V = ([list(map(int, row)) for row in M.tolist()] for M in (U, V))

    def times(M, b):
        return [sum(t * x for t, x in zip(row, b)) for row in M]

    consts = [eq.const for eq in eqs]
    # valuations: numerator and denominator are coprime, their primes count up and down
    vals = [{**factorint(abs(c.numerator)), **{p: -e for p, e in factorint(c.denominator).items()}}
            for c in consts]
    # each magnitude is numerator / denominator, prime by prime
    nums, dens = [ONE] * n, [ONE] * n
    for p in {p for v in vals for p in v}:
        ub = times(U, [v.get(p, 0) for v in vals])
        if any(ub[n:]) or any(x % di for x, di in zip(ub, d)):
            return ()
        for j, e in enumerate(times(V, [x // di for x, di in zip(ub, d)])):
            if e > 0:
                nums[j] *= p ** e
            elif e < 0:
                dens[j] *= p ** -e
    magnitudes = list(map(quotient, nums, dens))
    ub = times(U, [int(c < 0) for c in consts])
    free = [i for i, di in enumerate(d) if di % 2 == 0]
    if any(x % 2 for x in ub[n:] + [ub[i] for i in free]):
        return ()
    if len(free) > SIGN_BITS_CAP:
        raise EnumerationCap("sign-enumeration cap")
    sols = []
    for bits in product((0, 1), repeat=len(free)):
        y = [x % 2 for x in ub[:n]]
        for i, bit in zip(free, bits):
            y[i] = bit
        cand = {v: -mag if s % 2 else mag for v, mag, s in zip(variables, magnitudes, times(V, y))}
        if all(eq.holds(cand) for eq in eqs):
            sols.append(cand)
    return tuple(sols)


# -- mapping degree of the ansatz ------------------------------------------


def volume_degree_polynomial(alg: SullivanAlgebra, ansatz: EndoAnsatz,
                             vol: VolumeForm, ctx: CaseContext) -> MPoly:
    """The mapping degree phi(f(vol)) of the ansatz under the case's substitutions.

    Read by :meth:`VolumeForm.mapping_degree`; unknowns multiplying closed
    complements contribute exact terms that phi kills, so the result only
    involves genuinely free survivors.  Image terms outside phi's support box
    never reach it, so they are dropped.  ``ctx.normalize`` is a ring map, so
    normalizing the image terms before multiplying equals normalizing after;
    and each image term is one unknown (:func:`generic_ansatz`), so normalizing
    it is a lookup in ``ctx.values``.  Terms whose value is 0 are dropped, as
    their products would be.
    """
    box = vol.functional.box
    values = ctx.values
    images = {}
    for g, row in zip(alg.generators, ansatz.rows):
        img = ansatz.images[g.name].terms
        terms = {}
        for u, m in row:
            if within(m, box):
                c = values.get(u, img[m])
                if c:
                    terms[m] = c
        images[g.name] = Element(alg.free, terms)
    lam = vol.mapping_degree(alg, images)
    return lam if isinstance(lam, MPoly) else MPoly.const(lam)


# -- concrete morphisms ----------------------------------------------------


@dataclass
class ConcreteMorphism:
    """Generator images with plain rational coefficients."""

    images: dict  # name -> Element
    label: str = ""


@dataclass
class MorphismReport:
    valid: bool
    failing: str | None
    degree: int | Fraction | None


def verify_morphism(alg: SullivanAlgebra, images: dict, vol: VolumeForm | None) -> MorphismReport:
    """Check d-commutation per generator, then read the degree off f(vol)."""
    for g in alg.generators:
        if g.name not in images:
            return MorphismReport(False, g.name, None)
        img = images[g.name]
        if img and (not img.is_homogeneous() or img.degree() != g.degree):
            return MorphismReport(False, g.name, None)
    for g in alg.generators:
        lhs = extend_derivation(alg, images[g.name])
        rhs = apply_algebra_map(alg, images, alg.d_gen(g.name))
        if lhs != rhs:
            return MorphismReport(False, g.name, None)
    if vol is None:
        return MorphismReport(True, None, None)
    return MorphismReport(True, None, vol.mapping_degree(alg, images))


def morphism_from_assignment(ansatz: EndoAnsatz, assignment: dict, label="") -> ConcreteMorphism:
    free = ansatz.alg.free
    images = {}
    for g, row in zip(ansatz.alg.generators, ansatz.rows):
        terms = {}
        for u, mono in row:
            c = assignment.get(u, ZERO)
            if c:
                terms[mono] = c
        images[g.name] = Element(free, terms)
    return ConcreteMorphism(images, label)


# -- case tree exploration and the verdict ---------------------------------


@dataclass
class DegreeFamily:
    """Achievable degrees coeff * prod t_v^exps[v] over nonzero rational t."""

    coeff: int | Fraction
    exps: tuple  # sorted ((var, positive int), ...)

    def describe(self) -> str:
        if len(self.exps) == 1:
            body = f"t^{self.exps[0][1]}"
        else:
            body = "*".join(f"t{i + 1}^{e}" for i, (_, e) in enumerate(self.exps))
        return body if self.coeff == 1 else f"{self.coeff}*{body}"

    @property
    def never_negative(self) -> bool:
        return self.coeff > 0 and all(e % 2 == 0 for _, e in self.exps)

    def value_at(self, t):
        return self.coeff * prod(t ** e for _, e in self.exps)


@dataclass
class PolynomialFamily:
    """Achievable degrees p(t) over rational t, for a univariate probe p.

    Produced when the degree expression is a genuine polynomial in one free
    unknown after the other survivors are pinned to 1.  Any odd-exponent term
    makes both signs achievable.
    """

    coeffs: tuple  # ((exp, coeff), ...) sorted by exp descending

    def describe(self) -> str:
        return render_terms(("" if e == 0 else "t" if e == 1 else f"t^{e}", c)
                            for e, c in self.coeffs)

    @property
    def never_negative(self) -> bool:
        return all(e % 2 == 0 and c > 0 for e, c in self.coeffs if e or c)

    def value_at(self, t):
        return sum((c * t ** e for e, c in self.coeffs), ZERO)


@dataclass
class CaseLeaf:
    assumptions: tuple
    resolved: bool
    degrees: tuple = ()          # constant degrees achieved in this case
    families: tuple = ()         # DegreeFamily entries
    witnesses: tuple = ()        # (ConcreteMorphism, degree) evidence
    residual: tuple = ()         # unresolved: unreduced constraints, then the reason


UNVERIFIED = "witness did not verify"
OUTSIDE_FRAGMENT = "degree outside the supported fragment"
NOT_CLOSED = "spectrum not closed under composition"


def _open_leaf(ctx, polys, reason) -> CaseLeaf:
    """An unresolved leaf whose residual ends in the reason it stays open."""
    return CaseLeaf(ctx.assumptions, False, residual=tuple(map(str, polys)) + (reason,))


@dataclass
class DegreeSpectrumVerdict:
    classification: str          # Inflexible | NoOrientationReversal | Flexible | Inconclusive
    spectrum: tuple              # sorted constant degrees reached by resolved cases
    families: tuple
    flexible: bool
    complete: bool
    leaves: tuple

    def describe(self) -> str:
        parts = [self.classification]
        sets = [str(q) for q in self.spectrum] + [f.describe() for f in self.families]
        if sets:
            parts.append("{" + ", ".join(sets) + "}")
        if self.flexible and self.classification != "Flexible":
            parts.append("(flexible family)")
        return " ".join(parts)


class _Explorer:
    def __init__(self, alg, ansatz, vol, cfg):
        self.alg = alg
        self.ansatz = ansatz
        self.vol = vol
        self.cfg = cfg
        self.nodes = 0
        self.factors = {}  # blocking polynomial -> its nonconstant factors

    def run(self, constraints):
        return self._explore(constraints, CaseContext(), 0)

    def _explore(self, constraints, ctx, depth):
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            return [_open_leaf(ctx, (), "node budget exceeded")]
        try:
            work, ctx = simplify(constraints, ctx)
        except Contradiction:
            return []
        eqs = [to_monomial_equation(p) for p in work]
        blocking = [p for p, eq in zip(work, eqs)
                    if eq is None or not p.variables() <= ctx.nonzeros]
        if not blocking:
            return [self._leaf(work, eqs, ctx)]
        if depth >= self.cfg.case_depth:
            return [_open_leaf(ctx, blocking, "case depth exceeded")]
        split = self._split_variable(blocking, ctx)
        if split is not None:
            out = self._explore(work, ctx.with_zero(split), depth + 1)
            out += self._explore(work, ctx.with_nonzero(split), depth + 1)
            return out
        for p in blocking:
            factors = self.factors.get(p)
            if factors is None:
                factors = self.factors[p] = [f for f in factor_constraint(p) if f.variables()]
            if not factors:
                return [_open_leaf(ctx, work, "no nonconstant factor")]
            if len(factors) == 1 and _dedup_key(factors[0]) == _dedup_key(p):
                continue
            rest = [q for q in work if q is not p]
            out = []
            for f in factors:
                out += self._explore(rest + [f], ctx, depth + 1)
            return out
        return [self._residual_leaf(work, ctx)]

    def _residual_leaf(self, work, ctx) -> CaseLeaf:
        """No split applies: resolve anyway if the degree is constant on the case
        and attained, by the zero map for 0 and by a verified witness otherwise."""
        lam = volume_degree_polynomial(self.alg, self.ansatz, self.vol, ctx)
        reduced = reduce_modulo(lam, work)
        c = reduced.constant_value()
        if c == 0:  # the zero map attains degree 0 in every algebra
            return CaseLeaf(ctx.assumptions, True, (c,))
        if c is None:
            return _open_leaf(ctx, work, "degree not constant on the case")
        closed = self._close_out(ctx, reduced, fixed={})
        if isinstance(closed, str):
            return _open_leaf(ctx, work, closed)
        return CaseLeaf(ctx.assumptions, True, *map(tuple, closed))

    def _split_variable(self, blocking, ctx):
        allowed = set(self.ansatz.diagonal)
        for p in blocking:
            if p.as_single_monomial() is not None:
                allowed |= p.variables()
        candidates = sorted(v for p in blocking for v in p.variables()
                            if v in allowed and v not in ctx.nonzeros)
        return candidates[0] if candidates else None

    def _leaf(self, work, eqs, ctx) -> CaseLeaf:
        """Close a case whose constraints are the monomial equations ``eqs``."""
        lam = volume_degree_polynomial(self.alg, self.ansatz, self.vol, ctx)
        solutions = ({},)
        if eqs:
            try:
                solutions = solve_monomial_system(eqs)
            except EnumerationCap as cap:
                return _open_leaf(ctx, work, str(cap))
        degrees = []
        families = []
        witnesses = []
        for sol in solutions:
            lam_s = lam.substitute(sol) if sol else lam
            closed = self._close_out(ctx, lam_s, fixed=sol)
            if isinstance(closed, str):
                return _open_leaf(ctx, (lam_s,), closed)
            degrees += closed[0]
            families += closed[1]
            witnesses += closed[2]
        return CaseLeaf(ctx.assumptions, True, tuple(degrees), tuple(families), tuple(witnesses))

    def _close_out(self, ctx, lam, fixed):
        """Ground a case: a constant degree, a monomial family or a polynomial
        probe, with a verified witness at each of its sample points.

        Returns (constant degrees, families, witnesses), or the reason the
        case stays open: a witness that fails verification or disagrees with
        the predicted degree, or a degree expression outside the supported
        fragment.
        """
        c = lam.constant_value()
        if c is not None:
            family, points = None, [({}, f"degree {c}", c)]
        else:
            sm = lam.as_single_monomial()
            if sm is not None:
                family = DegreeFamily(sm[0], tuple(sorted(sm[1].items())))
                samples = [(t, {v: t for v, _ in family.exps}) for t in FAMILY_SAMPLES]
            elif (probe := self._poly_probe(lam)) is not None:
                family, samples = probe
            else:
                return OUTSIDE_FRAGMENT
            points = [(values, f"t = {t}", family.value_at(t)) for t, values in samples]
        witnesses = []
        for values, label, degree in points:
            w = self._witness(ctx, fixed, values, label)
            if w is None or w[1] != degree:
                return UNVERIFIED
            witnesses.append(w)
        return ([c], [], witnesses) if family is None else ([], [family], witnesses)

    def _poly_probe(self, lam):
        """Pin all but one surviving unknown to 1 and read off a univariate
        degree polynomial; any nonconstant probe is an achievable family.

        Returns the family and its sample points (t, unknown values), or
        None.  Probes with an odd-exponent term are preferred, since they
        achieve both signs; those also get a negative sample.
        """
        varlist = sorted(lam.variables())
        choice = None
        for v in varlist:
            others = {u: ONE for u in varlist if u != v}
            # only v is left, so each term is a constant or a power of v
            coeffs = ((k[0][1] if k else 0, c) for k, c in lam.substitute(others).terms.items())
            fam = PolynomialFamily(tuple(sorted(coeffs, reverse=True)))
            if not fam.coeffs or fam.coeffs[0][0] == 0:
                continue
            odd = any(e % 2 for e, _ in fam.coeffs)
            if choice is None or (odd and not choice[2]):
                choice = (v, fam, odd, others)
            if odd:
                break
        if choice is None:
            return None
        v, family, odd, others = choice
        samples = list(FAMILY_SAMPLES + ((-2,) if odd else ()))
        if not family.never_negative and all(family.value_at(t) >= 0 for t in samples):
            # sign changes may only happen at non-integer rationals
            cand = (quotient(p, q) for q in (2, 3, 4) for p in range(-8, 9) if p)
            neg = next((t for t in cand if family.value_at(t) < 0), None)
            if neg is not None:
                samples.append(neg)
        return family, [(t, {v: t, **others}) for t in samples]

    def _witness(self, ctx, fixed, family_values, label):
        """Instantiate the case at a concrete point and re-verify end to end."""
        assignment = {u: ONE if u in ctx.nonzeros else ZERO for u in self.ansatz.unknowns()}
        assignment.update(family_values)
        assignment.update(fixed)
        try:
            full = ctx.evaluate(assignment)
        except StructureError:
            return None
        if not all(full.get(v) for v in ctx.nonzeros):
            return None
        morphism = morphism_from_assignment(self.ansatz, full, label)
        report = verify_morphism(self.alg, morphism.images, self.vol)
        if not report.valid:
            return None
        return (morphism, report.degree)


def degree_spectrum(alg: SullivanAlgebra, vol: VolumeForm,
                    config: SolverConfig = SolverConfig()) -> DegreeSpectrumVerdict:
    """Classify the achievable self-map degrees.

    Inflexible and NoOrientationReversal demand a complete case analysis;
    Flexible demands verified unbounded instances; everything else is
    Inconclusive.  Resource caps only ever degrade toward Inconclusive.
    """
    ansatz = generic_ansatz(alg)
    extracted = extract_constraints(alg, ansatz)
    leaves = _Explorer(alg, ansatz, vol, config).run(extracted)
    # a cap leaves an unresolved leaf, so a capped analysis is never complete
    complete = all(leaf.resolved for leaf in leaves)
    constants = sorted({q for leaf in leaves for q in leaf.degrees})
    families = []
    seen = set()
    for leaf in leaves:
        for f in leaf.families:
            key = f.describe()
            if key not in seen:
                seen.add(key)
                families.append(f)
    # every family has a free unknown in its degree, so any family is unbounded
    flexible = bool(families)
    # deg(f o g) = deg f * deg g, so the powers of a map of degree q reach every
    # q^k: a complete spectrum without a family lies in {-1, 0, 1}
    if complete and not flexible and not set(constants) <= {ZERO, ONE, -ONE}:
        leaves = [*leaves, CaseLeaf((), False, residual=(NOT_CLOSED,))]
        complete = False
    if complete and not flexible:
        classification = "Inflexible"
    elif complete and all(f.never_negative for f in families) and all(q >= 0 for q in constants):
        classification = "NoOrientationReversal"
    elif flexible:
        classification = "Flexible"
    else:
        classification = "Inconclusive"
    return DegreeSpectrumVerdict(classification, tuple(constants), tuple(families),
                                 flexible, complete, tuple(leaves))
