"""Degree spectra of self-maps.

Pipeline: a generic degree-preserving ansatz for an endomorphism, polynomial
constraints from commutation with the differential, simplification by linear
substitution plus case splitting, a multiplicative solver for the surviving
monomial equations, and classification of the achievable mapping degrees.

The multiplicative solver treats unknowns as nonzero rationals: magnitudes
through p-adic valuations (one exact linear solve per relevant prime), signs
over GF(2).  A trivial kernel of the exponent matrix therefore forces every
magnitude; a nontrivial kernel means a genuinely free family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy

from .cohomology import VolumeForm, top_class_coefficient
from .gca import Element, StructureError, within
from .linalg import Inconsistent, LinearSolver
from .poly import MPoly
from .sullivan import SullivanAlgebra, apply_algebra_map, extend_derivation

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SolverConfig:
    case_depth: int = 12
    node_budget: int = 4000
    family_samples: tuple = (2, 3)


# -- ansatz and constraint extraction --------------------------------------


@dataclass
class EndoAnsatz:
    """One unknown per basis monomial per generator, diagonal entries first."""

    alg: SullivanAlgebra
    rows: tuple          # per generator: tuple of (unknown name, monomial)
    images: dict         # generator name -> Element with MPoly coefficients
    diagonal: frozenset  # unknowns multiplying the generator's own monomial
    by_slot: dict        # (generator name, monomial) -> unknown name

    def unknown_for(self, gen_name, monomial) -> str:
        return self.by_slot[(gen_name, monomial)]

    def unknowns(self):
        return [u for row in self.rows for u, _ in row]


def generic_ansatz(alg: SullivanAlgebra) -> EndoAnsatz:
    free = alg.free
    rows = []
    images = {}
    diagonal = set()
    by_slot = {}
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
            by_slot[(g.name, mono)] = u
        diagonal.add(row[0][0])
        rows.append(tuple(row))
        images[g.name] = Element(free, terms)
    return EndoAnsatz(alg, tuple(rows), images, frozenset(diagonal), by_slot)


def _dedup_key(p: MPoly) -> frozenset:
    """The terms of a nonzero p scaled so the smallest term key has coefficient 1."""
    lead = p.terms[min(p.terms)]
    if lead == 1:
        return frozenset(p.terms.items())
    return frozenset((k, c / lead) for k, c in p.terms.items())


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
    """Assumptions u = 0 / u != 0 plus an acyclic substitution map.

    Substitution values never mention zeroed or substituted unknowns, so one
    simultaneous pass fully reduces any polynomial.
    """

    zeros: frozenset = frozenset()
    nonzeros: frozenset = frozenset()
    subs: tuple = ()         # ((var, MPoly), ...) in elimination order
    assumptions: tuple = ()  # human-readable trail

    def _assignment(self) -> dict:
        cached = self.__dict__.get("_assignment_cache")
        if cached is None:
            cached = {v: MPoly() for v in self.zeros}
            cached.update(self.subs)
            self.__dict__["_assignment_cache"] = cached
        return cached

    def normalize(self, p: MPoly) -> MPoly:
        return p.substitute(self._assignment())

    def with_zero(self, v) -> "CaseContext":
        if v in self.nonzeros:
            raise Contradiction(v)
        zero = MPoly()
        subs = tuple((k, val.substitute({v: zero})) for k, val in self.subs)
        return CaseContext(self.zeros | {v}, self.nonzeros, subs,
                           self.assumptions + (f"{v} = 0",))

    def with_nonzero(self, v) -> "CaseContext":
        return CaseContext(self.zeros, self.nonzeros | {v}, self.subs,
                           self.assumptions + (f"{v} != 0",))

    def with_sub(self, v, value: MPoly) -> "CaseContext":
        value = self.normalize(value)
        subs = tuple((k, val.substitute({v: value})) for k, val in self.subs)
        return CaseContext(self.zeros, self.nonzeros, subs + ((v, value),),
                           self.assumptions)

    def evaluate(self, assignment: dict) -> dict:
        """Extend an assignment of the surviving unknowns to the eliminated ones."""
        full = dict(assignment)
        for v in self.zeros:
            full[v] = ZERO
        for v, val in self.subs:
            c = val.substitute(full).constant_value()
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
    """
    nonzeros = ctx.nonzeros
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
            ctx = ctx.with_zero(v)
        else:
            p = drop(min(linear))
            v, c = p.bare_linear_var()
            value = p.eliminate(v, c)
            ctx = ctx.with_sub(v, value)
        touched = sorted(index[v])
        old = [drop(i) for i in touched]
        del index[v]
        for i, p in zip(touched, old):
            place(i, p.substitute({v: value}))
    return [live[i] for i in sorted(live)], ctx


# -- sympy-backed factoring ------------------------------------------------


def _to_sympy(p: MPoly):
    expr = sympy.Integer(0)
    for k, c in p.terms.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for v, e in k:
            t = t * sympy.Symbol(v) ** e
        expr = expr + t
    return expr


def _from_sympy(expr) -> MPoly:
    expr = sympy.expand(expr)
    out = MPoly()
    for term in expr.as_ordered_terms():
        coeff, factors = term.as_coeff_Mul()
        q = Fraction(int(sympy.numer(coeff)), int(sympy.denom(coeff)))
        exps = {}
        for f in sympy.Mul.make_args(factors):
            base, e = f.as_base_exp()
            exps[str(base)] = exps.get(str(base), 0) + int(e)
        out = out + MPoly.monomial(exps, q)
    return out


def factor_constraint(p: MPoly) -> list:
    """Distinct irreducible factors over Q (constants and multiplicity dropped)."""
    _, factors = sympy.factor_list(_to_sympy(p))
    return [_from_sympy(base) for base, _ in factors]


def reduce_modulo(p: MPoly, polys) -> MPoly:
    """Remainder of p modulo the ideal of the given constraints.

    p and the remainder agree on the constraint variety, so the mapping
    degree may be read off the remainder; in particular a zero remainder
    proves the degree vanishes on the whole case.
    """
    polys = [q for q in polys if q]
    if not polys or not p:
        return p
    names = sorted({v for q in polys for v in q.variables()} | p.variables())
    gens = [sympy.Symbol(v) for v in names]
    basis = sympy.groebner([_to_sympy(q) for q in polys], *gens, order="grevlex")
    _, remainder = basis.reduce(_to_sympy(p))
    return _from_sympy(remainder)


# -- monomial equation systems ---------------------------------------------


@dataclass(frozen=True)
class MonomialEquation:
    """prod v^exps[v] = const, with every v assumed nonzero."""

    exps: tuple   # sorted ((var, int exponent), ...), exponents may be negative
    const: Fraction

    def holds(self, assignment) -> bool:
        lhs = ONE
        for v, e in self.exps:
            lhs *= assignment[v] ** e
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
    return MonomialEquation(tuple(sorted((v, e) for v, e in exps.items() if e)), -c2 / c1)


SIGN_BITS_CAP = 12  # free sign bits enumerated at most: 4096 sign vectors


class EnumerationCap(Exception):
    """Too many solutions to enumerate; the case must stay unresolved."""


@dataclass
class MonomialSolutions:
    finite: bool
    solutions: tuple       # dicts var -> Fraction, all nonzero
    free_directions: tuple  # rational kernel basis when not finite


def _gf2_enumerate(rows, rhs, variables):
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


def _vp(q: Fraction, p: int) -> int:
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


def solve_monomial_system(eqs) -> MonomialSolutions:
    """Exact solution set over the nonzero rationals.

    Magnitudes: the exponent matrix acts on valuation vectors; a trivial
    rational kernel pins every magnitude (one linear solve per prime dividing
    a constant).  Signs: the same matrix over GF(2); raises EnumerationCap
    when they are too many to enumerate.
    """
    eqs = [e for e in eqs or []]
    variables = sorted({v for eq in eqs for v, _ in eq.exps})
    rows = []
    consts = []
    for eq in eqs:
        if not eq.exps:
            if eq.const != 1:
                return MonomialSolutions(True, (), ())
            continue
        rows.append({v: Fraction(e) for v, e in eq.exps})
        consts.append(eq.const)
    if not rows:
        return MonomialSolutions(True, ({},) if not variables else (), ())
    solver = LinearSolver()
    for row in rows:
        solver.add_equation(dict(row), ZERO)
    kernel = solver.kernel_basis(variables)
    if kernel:
        return MonomialSolutions(False, (), tuple(kernel))
    primes = set()
    for c in consts:
        primes |= set(sympy.factorint(c.numerator))
        primes |= set(sympy.factorint(c.denominator))
    magnitudes = {v: ONE for v in variables}
    for p in primes:
        psolver = LinearSolver()
        try:
            for row, c in zip(rows, consts):
                psolver.add_equation(dict(row), Fraction(_vp(c, p)))
        except Inconsistent:
            return MonomialSolutions(True, (), ())
        sol = psolver.particular_solution()
        for v, e in sol.items():
            if e.denominator != 1:
                return MonomialSolutions(True, (), ())
            magnitudes[v] *= Fraction(p) ** int(e)
    signs = _gf2_enumerate(rows, [1 if c < 0 else 0 for c in consts], variables)
    if signs is None:
        return MonomialSolutions(True, (), ())
    sols = []
    for sv in signs:
        cand = {v: sv[v] * magnitudes[v] for v in variables}
        if all(eq.holds(cand) for eq in eqs if eq.exps):
            sols.append(cand)
    return MonomialSolutions(True, tuple(sols), ())


# -- mapping degree of the ansatz ------------------------------------------


def volume_degree_polynomial(alg: SullivanAlgebra, ansatz: EndoAnsatz,
                             vol: VolumeForm, ctx: CaseContext) -> MPoly:
    """The mapping degree phi(f(vol)) of the ansatz under the case's substitutions.

    The separating functional phi reads the degree off f(vol) directly;
    unknowns multiplying closed complements contribute exact terms that phi
    kills, so the result only involves genuinely free survivors.

    Only the support box is expanded: the componentwise maximum exponent over
    the monomials where phi is nonzero.  Image terms outside the box are
    dropped before normalizing, and f(vol) is multiplied out one generator
    factor at a time, dropping every partial-product term that leaves the box.
    This is exact: exponents only grow under multiplication, so a dropped
    term never reaches a monomial where phi is nonzero, and ``ctx.normalize``
    is a ring map, so normalizing the images before multiplying gives the
    same polynomial as normalizing after.
    """
    box = tuple(map(max, zip(*vol.functional.phi)))
    images = {}
    for name, img in ansatz.images.items():
        images[name] = alg.free.element({m: ctx.normalize(c) for m, c in img.terms.items()
                                         if within(m, box)})
    lam = vol.functional.apply(apply_algebra_map(alg, images, vol.representative, box))
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
    degree: Fraction | None


def verify_morphism(alg: SullivanAlgebra, morphism, vol: VolumeForm | None) -> MorphismReport:
    """Check d-commutation per generator, then read the degree off f(vol)."""
    images = morphism.images if isinstance(morphism, ConcreteMorphism) else morphism
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
    fvol = apply_algebra_map(alg, images, vol.representative)
    lam = top_class_coefficient(alg, fvol, vol)
    return MorphismReport(True, None, lam)


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

    coeff: Fraction
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

    @property
    def unbounded(self) -> bool:
        return bool(self.exps)


@dataclass
class PolynomialFamily:
    """Achievable degrees p(t) over rational t, for a univariate probe p.

    Produced when the degree expression is a genuine polynomial in one free
    unknown after the other survivors are pinned to 1.  Any odd-exponent term
    makes both signs achievable.
    """

    coeffs: tuple  # ((exp, coeff), ...) sorted by exp descending

    def describe(self) -> str:
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                parts.append(str(c))
            else:
                body = "t" if e == 1 else f"t^{e}"
                parts.append(body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    @property
    def never_negative(self) -> bool:
        return all(e % 2 == 0 and c > 0 for e, c in self.coeffs if e or c)

    @property
    def unbounded(self) -> bool:
        return any(e for e, _ in self.coeffs)

    def value_at(self, t: Fraction) -> Fraction:
        return sum((c * t ** e for e, c in self.coeffs), ZERO)


@dataclass
class CaseLeaf:
    assumptions: tuple
    resolved: bool
    degrees: tuple = ()          # constant degrees achieved in this case
    families: tuple = ()         # DegreeFamily entries
    witnesses: tuple = ()        # (ConcreteMorphism, degree) evidence
    residual: tuple = ()         # unreduced constraints when unresolved


@dataclass
class DegreeSpectrumVerdict:
    classification: str          # Inflexible | NoOrientationReversal | Flexible | Inconclusive
    spectrum: tuple              # sorted constant degrees reached by resolved cases
    families: tuple
    flexible: bool
    complete: bool
    leaves: tuple
    extracted: tuple             # raw constraint polynomials
    config: SolverConfig

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
        self.capped = False

    def run(self, constraints):
        return self._explore(constraints, CaseContext(), 0)

    def _explore(self, constraints, ctx, depth):
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            self.capped = True
            return [CaseLeaf(ctx.assumptions, False, residual=("node budget exceeded",))]
        try:
            work, ctx = simplify(constraints, ctx)
        except Contradiction:
            return []
        blocking = [p for p in work
                    if to_monomial_equation(p) is None
                    or not set(p.variables()) <= ctx.nonzeros]
        if not blocking:
            return [self._leaf(work, ctx)]
        if depth >= self.cfg.case_depth:
            self.capped = True
            return [CaseLeaf(ctx.assumptions, False,
                             residual=tuple(str(p) for p in blocking))]
        split = self._split_variable(blocking, ctx)
        if split is not None:
            out = self._explore(work, ctx.with_zero(split), depth + 1)
            out += self._explore(work, ctx.with_nonzero(split), depth + 1)
            return out
        for p in blocking:
            factors = [f for f in factor_constraint(p) if f.variables()]
            if not factors:
                return [CaseLeaf(ctx.assumptions, False,
                                 residual=tuple(str(q) for q in work) + ("no nonconstant factor",))]
            if len(factors) == 1 and _dedup_key(factors[0]) == _dedup_key(p):
                continue
            rest = [q for q in work if q is not p]
            out = []
            for f in factors:
                out += self._explore(rest + [f], ctx, depth + 1)
            return out
        return [self._residual_leaf(work, ctx)]

    def _residual_leaf(self, work, ctx) -> CaseLeaf:
        """No split applies: resolve anyway if the degree is constant on the case."""
        lam = volume_degree_polynomial(self.alg, self.ansatz, self.vol, ctx)
        reduced = reduce_modulo(lam, work)
        c = reduced.constant_value()
        if c is not None:
            return CaseLeaf(ctx.assumptions, True, (c,))
        return CaseLeaf(ctx.assumptions, False, residual=tuple(str(p) for p in work))

    def _split_variable(self, blocking, ctx):
        allowed = set(self.ansatz.diagonal)
        for p in blocking:
            if p.as_single_monomial() is not None:
                allowed |= p.variables()
        assumed = ctx.zeros | ctx.nonzeros | {v for v, _ in ctx.subs}
        candidates = sorted(v for p in blocking for v in p.variables()
                            if v in allowed and v not in assumed)
        return candidates[0] if candidates else None

    def _leaf(self, work, ctx) -> CaseLeaf:
        eqs = [to_monomial_equation(p) for p in work]
        lam = volume_degree_polynomial(self.alg, self.ansatz, self.vol, ctx)
        solutions = ({},)
        if eqs:
            try:
                sols = solve_monomial_system(eqs)
            except EnumerationCap as cap:
                return CaseLeaf(ctx.assumptions, False,
                                residual=tuple(str(p) for p in work) + (str(cap),))
            if not sols.finite:
                return CaseLeaf(ctx.assumptions, False,
                                residual=tuple(str(p) for p in work) + ("free multiplicative kernel",))
            solutions = sols.solutions
        degrees = []
        families = []
        witnesses = []
        for sol in solutions:
            lam_s = lam.substitute(sol) if sol else lam
            closed = self._close_out(ctx, lam_s, fixed=sol)
            if closed is None:
                return CaseLeaf(ctx.assumptions, False, residual=(str(lam_s),))
            degrees += closed[0]
            families += closed[1]
            witnesses += closed[2]
        return CaseLeaf(ctx.assumptions, True, tuple(degrees), tuple(families), tuple(witnesses))

    def _close_out(self, ctx, lam, fixed):
        """Ground a case: constant degree, or a verified monomial family.

        Returns (constant degrees, families, witnesses) or None when the
        degree expression stays out of the supported fragment.
        """
        c = lam.constant_value()
        if c is not None:
            w = self._witness(ctx, fixed, {}, f"degree {c}")
            if w is None or w[1] != c:
                return None
            return [c], [], [w]
        sm = lam.as_single_monomial()
        if sm is None:
            return self._poly_probe(ctx, lam, fixed)
        coeff, exps = sm
        family = DegreeFamily(coeff, tuple(sorted(exps.items())))
        witnesses = []
        for t in self.cfg.family_samples:
            tq = Fraction(t)
            val = coeff
            for _, e in family.exps:
                val *= tq ** e
            w = self._witness(ctx, fixed, {v: tq for v, _ in family.exps}, f"t = {t}")
            if w is None or w[1] != val:
                return None
            witnesses.append(w)
        return [], [family], witnesses

    def _poly_probe(self, ctx, lam, fixed):
        """Pin all but one surviving unknown to 1 and read off a univariate
        degree polynomial; any nonconstant probe is an achievable family.

        Probes with an odd-exponent term are preferred, since they achieve
        both signs; those also get a verified negative sample.
        """
        varlist = sorted(lam.variables())
        choice = None
        for v in varlist:
            others = {u: ONE for u in varlist if u != v}
            p = lam.substitute(others) if others else lam
            coeffs = []
            ok = True
            for k, c in p.terms.items():
                if k == ():
                    coeffs.append((0, c))
                elif len(k) == 1 and k[0][0] == v:
                    coeffs.append((k[0][1], c))
                else:
                    ok = False
                    break
            if not ok or not any(e for e, _ in coeffs):
                continue
            fam = PolynomialFamily(tuple(sorted(coeffs, reverse=True)))
            odd = any(e % 2 for e, _ in fam.coeffs)
            if choice is None or (odd and not choice[2]):
                choice = (v, fam, odd)
            if odd:
                break
        if choice is None:
            return None
        v, family, odd = choice
        others = {u: ONE for u in varlist if u != v}
        samples = list(self.cfg.family_samples) + ([-2] if odd else [])
        if not family.never_negative and \
                all(family.value_at(Fraction(t)) >= 0 for t in samples):
            # sign changes may only happen at non-integer rationals
            cand = (Fraction(p, q) for q in (2, 3, 4) for p in range(-8, 9) if p)
            neg = next((t for t in cand if family.value_at(t) < 0), None)
            if neg is not None:
                samples.append(neg)
        witnesses = []
        for t in samples:
            tq = Fraction(t)
            w = self._witness(ctx, fixed, {v: tq, **others}, f"t = {t}")
            if w is None or w[1] != family.value_at(tq):
                return None
            witnesses.append(w)
        return [], [family], witnesses

    def _witness(self, ctx, fixed, family_values, label):
        """Instantiate the case at a concrete point and re-verify end to end."""
        assignment = {}
        assumed = ctx.zeros | {v for v, _ in ctx.subs}
        for u in self.ansatz.unknowns():
            if u in fixed:
                assignment[u] = fixed[u]
            elif u in family_values:
                assignment[u] = family_values[u]
            elif u in assumed:
                continue
            elif u in ctx.nonzeros:
                assignment[u] = ONE
            else:
                assignment[u] = ZERO
        try:
            full = ctx.evaluate(assignment)
        except StructureError:
            return None
        for v in ctx.nonzeros:
            if not full.get(v, ZERO):
                return None
        morphism = morphism_from_assignment(self.ansatz, full, label)
        report = verify_morphism(self.alg, morphism, self.vol)
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
    explorer = _Explorer(alg, ansatz, vol, config)
    leaves = explorer.run(extracted)
    complete = not explorer.capped and all(leaf.resolved for leaf in leaves)
    constants = sorted({q for leaf in leaves for q in leaf.degrees})
    families = []
    seen = set()
    for leaf in leaves:
        for f in leaf.families:
            key = f.describe()
            if key not in seen:
                seen.add(key)
                families.append(f)
    flexible = any(f.unbounded for f in families)
    if complete and not any(f.unbounded for f in families) and set(constants) <= {ZERO, ONE, -ONE}:
        classification = "Inflexible"
    elif complete and all(f.never_negative for f in families) and all(q >= 0 for q in constants):
        classification = "NoOrientationReversal"
    elif flexible:
        classification = "Flexible"
    else:
        classification = "Inconclusive"
    return DegreeSpectrumVerdict(classification, tuple(constants), tuple(families),
                                 flexible, complete, tuple(leaves),
                                 tuple(extracted), config)
