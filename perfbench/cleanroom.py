"""Clean-room re-check of self-map witnesses, sharing no code with minmod.

Its own graded-commutative arithmetic: a monomial is ``(evens, odds)`` where
``evens`` is a tuple of exponents over all generators (odd slots stay 0) and
``odds`` is the sorted tuple of the odd generators present.  The sign of a
product is the parity of the inversions of the concatenated odd tuples.  An
element is a dict ``monomial -> Fraction``.

A witness f passes when

* f commutes with d on every generator, and
* phi(f(vol)) equals the reported degree, where phi is a top functional with
  phi(vol) = 1 and phi o d = 0.  phi o d = 0 is checked only on the
  degree-(top - 1) monomials whose differential can reach supp(phi); on every
  other monomial it holds trivially.

f(vol) is expanded keeping only partial products that divide a monomial of
supp(phi), so the check stays cheap on products of algebras.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_']*)|(.))")


class Algebra:
    """Generators with degrees and differentials, parsed from DSL text."""

    def __init__(self, gens):
        self.names = [n for n, _ in gens]
        self.degrees = [d for _, d in gens]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.odd = [d % 2 == 1 for d in self.degrees]
        self.diff = [dict() for _ in gens]
        self.unit = ((0,) * len(gens), ())

    def gen(self, name):
        i = self.index[name]
        if self.odd[i]:
            return {((0,) * len(self.names), (i,)): Fraction(1)}
        ev = [0] * len(self.names)
        ev[i] = 1
        return {(tuple(ev), ()): Fraction(1)}

    def mono_degree(self, mono):
        evens, odds = mono
        return (sum(e * d for e, d in zip(evens, self.degrees))
                + sum(self.degrees[i] for i in odds))

    def mono_from_exponents(self, names, exps):
        """A monomial given as exponents over another ordering of the names."""
        ev = [0] * len(self.names)
        odds = []
        for name, e in zip(names, exps):
            if not e:
                continue
            i = self.index[name]
            if self.odd[i]:
                odds.append(i)
            else:
                ev[i] = e
        if len(set(odds)) != len(odds) or odds != sorted(odds):
            raise ValueError("exponent vector is not in declaration order")
        return tuple(ev), tuple(odds)


def mono_mul(m1, m2):
    """(sign, monomial) or None when an odd generator repeats."""
    o1, o2 = m1[1], m2[1]
    if set(o1) & set(o2):
        return None
    inversions = sum(1 for a in o1 for b in o2 if a > b)
    evens = tuple(a + b for a, b in zip(m1[0], m2[0]))
    return (-1 if inversions % 2 else 1), (evens, tuple(sorted(o1 + o2)))


def add_into(acc, e, scale=1):
    for m, c in e.items():
        s = acc.get(m, 0) + c * scale
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)
    return acc


def mul(a, b, keep=None):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            r = mono_mul(m1, m2)
            if r is None:
                continue
            sign, m = r
            if keep is not None and not keep(m):
                continue
            s = out.get(m, 0) + sign * c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def derivative(alg: Algebra, e):
    """The Leibniz extension of the generator differentials.

    A monomial is read as (even part) * o_1 * ... * o_k with the odd
    generators in declaration order; the even part has even degree, so only
    the odd prefix contributes signs.
    """
    out = {}
    zero = (0,) * len(alg.names)
    for (evens, odds), c in e.items():
        for i, exp in enumerate(evens):
            if exp and alg.diff[i]:
                rest = list(evens)
                rest[i] -= 1
                head = mul({(tuple(rest), ()): c * exp}, alg.diff[i])
                add_into(out, mul(head, {(zero, odds): Fraction(1)}))
        for pos, i in enumerate(odds):
            if not alg.diff[i]:
                continue
            prefix = {(evens, odds[:pos]): c if pos % 2 == 0 else -c}
            term = mul(mul(prefix, alg.diff[i]), {(zero, odds[pos + 1:]): Fraction(1)})
            add_into(out, term)
    return out


def apply_map(alg: Algebra, images, e, keep=None):
    """f(e) for generator images ``images[i]``; ``keep`` prunes partial products."""
    out = {}
    for (evens, odds), c in e.items():
        acc = {alg.unit: c}
        factors = [i for i, exp in enumerate(evens) for _ in range(exp)] + list(odds)
        for i in factors:
            acc = mul(acc, images[i], keep)
            if not acc:
                break
        add_into(out, acc)
    return out


# -- text input -------------------------------------------------------------


def _tokens(text):
    out = []
    for num, name, op in _TOKEN.findall(text):
        if num:
            out.append(("num", int(num)))
        elif name:
            out.append(("name", name))
        elif op.strip():
            out.append(("op", op))
    return out


class _Parser:
    """sum := term (('+'|'-') term)*; term := power (('*'|'/') power)*;
    power := atom ('^' int)?; atom := int | name | '(' sum ')' | '-' power."""

    def __init__(self, alg: Algebra, text: str):
        self.alg = alg
        self.toks = _tokens(text)
        self.pos = 0

    def parse(self):
        v = self.sum()
        if self.pos != len(self.toks):
            raise ValueError(f"trailing input at token {self.pos}")
        return v

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def sum(self):
        v = self.term()
        while self._peek() in (("op", "+"), ("op", "-")):
            sign = 1 if self.toks[self.pos][1] == "+" else -1
            self.pos += 1
            v = add_into(dict(v), self.term(), sign)
        return v

    def term(self):
        v = self.power()
        while self._peek() in (("op", "*"), ("op", "/")):
            op = self.toks[self.pos][1]
            self.pos += 1
            rhs = self.power()
            if op == "*":
                v = mul(v, rhs)
            else:
                (mono, c), = rhs.items()
                if mono != self.alg.unit:
                    raise ValueError("division by a non-scalar")
                v = {m: x / c for m, x in v.items()}
        return v

    def power(self):
        v = self.atom()
        if self._peek() == ("op", "^"):
            self.pos += 1
            kind, n = self.toks[self.pos]
            self.pos += 1
            if kind != "num":
                raise ValueError("exponent must be an integer")
            out = {self.alg.unit: Fraction(1)}
            for _ in range(n):
                out = mul(out, v)
            v = out
        return v

    def atom(self):
        kind, val = self._peek()
        self.pos += 1
        if kind == "num":
            return {self.alg.unit: Fraction(val)} if val else {}
        if kind == "name":
            return self.alg.gen(val)
        if (kind, val) == ("op", "-"):
            return {m: -c for m, c in self.power().items()}
        if (kind, val) == ("op", "("):
            v = self.sum()
            if self._peek() != ("op", ")"):
                raise ValueError("unbalanced parenthesis")
            self.pos += 1
            return v
        raise ValueError(f"unexpected token {val!r}")


def parse_element(alg: Algebra, text: str):
    return _Parser(alg, text).parse()


def parse_source(text: str):
    """(Algebra, volume element or None) from ``gen``/``d``/``volume`` lines."""
    gens, diffs, volume = [], [], None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("gen "):
            name, deg = line[4:].split(":")
            gens.append((name.strip(), int(deg)))
        elif line.startswith("d "):
            name, expr = line[2:].split("=", 1)
            diffs.append((name.strip(), expr))
        elif line.startswith("volume "):
            volume = line[7:]
        elif line:
            raise ValueError(f"unexpected line {line!r}")
    alg = Algebra(gens)
    for name, expr in diffs:
        alg.diff[alg.index[name]] = parse_element(alg, expr)
    return alg, (parse_element(alg, volume) if volume is not None else None)


def tensor(a: Algebra, b: Algebra):
    """The product algebra; names get ``_1``/``_2`` suffixes when they collide."""
    collide = bool(set(a.names) & set(b.names))
    na = len(a.names)

    def rename(n, k):
        return f"{n}_{k}" if collide else n

    prod = Algebra([(rename(n, 1), d) for n, d in zip(a.names, a.degrees)]
                   + [(rename(n, 2), d) for n, d in zip(b.names, b.degrees)])

    def shift(e, offset, width):
        out = {}
        for (evens, odds), c in e.items():
            ev = (0,) * offset + evens + (0,) * (len(prod.names) - offset - width)
            out[(ev, tuple(i + offset for i in odds))] = c
        return out

    for i in range(na):
        prod.diff[i] = shift(a.diff[i], 0, na)
    for j in range(len(b.names)):
        prod.diff[na + j] = shift(b.diff[j], na, len(b.names))
    return prod, (lambda e: shift(e, 0, na)), (lambda e: shift(e, na, len(b.names)))


# -- the check --------------------------------------------------------------


def _divides(m, s):
    return (all(x <= y for x, y in zip(m[0], s[0]))
            and set(m[1]) <= set(s[1]))


class Checker:
    """Validates phi once, then re-checks witnesses against it."""

    def __init__(self, alg: Algebra, vol, phi: dict):
        self.alg = alg
        self.vol = vol
        self.phi = {m: c for m, c in phi.items() if c}
        self.problem = self._check_phi()

    def _apply_phi(self, e):
        return sum((c * self.phi[m] for m, c in e.items() if m in self.phi), Fraction(0))

    def _reaching(self):
        """Monomials whose differential can hit supp(phi): s = (m / g) * t, t in d(g)."""
        out = set()
        for s in self.phi:
            for g, dg in enumerate(self.alg.diff):
                for t in dg:
                    if not _divides(t, s):
                        continue
                    evens = [x - y for x, y in zip(s[0], t[0])]
                    odds = set(s[1]) - set(t[1])
                    if self.alg.odd[g]:
                        if g in odds:
                            continue
                        odds.add(g)
                    else:
                        evens[g] += 1
                    out.add((tuple(evens), tuple(sorted(odds))))
        return out

    def _check_phi(self):
        top = {self.alg.mono_degree(m) for m in self.phi}
        if len(top) != 1:
            return "functional is not homogeneous"
        if self._apply_phi(self.vol) != 1:
            return "functional does not normalize the volume form"
        if derivative(self.alg, self.vol):
            return "volume form is not closed"
        for m in self._reaching():
            if self._apply_phi(derivative(self.alg, {m: Fraction(1)})):
                return f"functional does not annihilate d on {m}"
        return None

    def check(self, images, degree) -> str | None:
        """None when the witness passes, else the reason it is rejected."""
        if self.problem:
            return self.problem
        alg = self.alg
        for i in range(len(alg.names)):
            img = images[i]
            if any(alg.mono_degree(m) != alg.degrees[i] for m in img):
                return f"image of {alg.names[i]} has the wrong degree"
            lhs = derivative(alg, img)
            rhs = apply_map(alg, images, alg.diff[i])
            if lhs != rhs:
                return f"not a chain map at {alg.names[i]}"
        support = list(self.phi)
        fvol = apply_map(alg, images, self.vol,
                         keep=lambda m: any(_divides(m, s) for s in support))
        if self._apply_phi(fvol) != Fraction(degree):
            return f"phi(f(vol)) = {self._apply_phi(fvol)}, reported {degree}"
        return None

    def images_from_lines(self, lines):
        """Parse ``f NAME = EXPR`` lines into generator images."""
        images = [dict() for _ in self.alg.names]
        for line in lines:
            head, expr = line.split("=", 1)
            name = head.strip()[1:].strip()
            images[self.alg.index[name]] = parse_element(self.alg, expr)
        return images
