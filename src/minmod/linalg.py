"""Sparse exact linear algebra over the rationals.

A small Gauss-Jordan eliminator on sparse rows.  Equations come in and
results go out as ``fractions.Fraction``; in between every row is an
integer dict, reduced by cross-multiplication and kept primitive (the
fraction-free elimination of Bareiss, Math. Comp. 22, 1968).  Pivot choice
is deterministic (smallest variable key first), so particular solutions,
ranks and kernel bases are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


class Inconsistent(Exception):
    """The linear system has no solution."""


def _integer_row(row, rhs):
    """``(s*row, s*rhs, s)`` with integer entries, zeros dropped, for the
    least positive ``s``; ``row`` and ``rhs`` hold Fractions or ints."""
    items = [(k, c) for k, c in row.items() if c]
    s = rhs.denominator
    for _, c in items:
        if c.denominator != 1:
            s = lcm(s, c.denominator)
    if s == 1:
        return {k: c.numerator for k, c in items}, rhs.numerator, 1
    return ({k: c.numerator * (s // c.denominator) for k, c in items},
            rhs.numerator * (s // rhs.denominator), s)


class LinearSolver:
    """Incremental Gauss-Jordan elimination over Q on integer rows.

    Rows are kept mutually reduced: every pivot row is a primitive integer
    dict (gcd 1, rhs included) with a positive entry on its pivot variable
    and none on any other pivot variable.  Scaling a row keeps its support,
    so the pivots, and the reduced form they determine, are those of
    elimination over Q.
    """

    def __init__(self):
        self.pivrows = {}  # pivot var -> (integer row dict, integer rhs)
        self._mentions = {}  # var -> pivot vars whose rows hold it off the pivot

    @property
    def rank(self) -> int:
        return len(self.pivrows)

    def _reduce(self, row, rhs):
        """``(row, rhs, s)``: ``s`` times the input minus a combination of
        pivot rows, as integers and free of every pivot variable."""
        row, rhs, s = _integer_row(row, rhs)
        # pivot rows reference no other pivots, so one pass eliminates all
        for v in [v for v in row if v in self.pivrows]:
            f = row.pop(v)
            prow, prhs = self.pivrows[v]
            a = prow[v]
            g = gcd(a, f)
            a //= g
            f //= g
            if a != 1:
                row = {k: a * c for k, c in row.items()}
                rhs *= a
                s *= a
            for k, c in prow.items():
                if k == v:
                    continue
                nv = row.get(k, 0) - f * c
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            rhs -= f * prhs
        return row, rhs, s

    def add_equation(self, row, rhs=ZERO) -> None:
        """Insert one equation ``sum(row[v]*x_v) == rhs``.

        Raises :class:`Inconsistent` if it contradicts the rows seen so far.
        """
        row, rhs, s = self._reduce(row, rhs)
        if not row:
            if rhs:
                raise Inconsistent(f"0 == {Fraction(rhs, s)}")
            return
        v = min(row)
        g = gcd(rhs, *row.values())
        if row[v] < 0:
            g = -g
        if g != 1:
            row = {k: c // g for k, c in row.items()}
            rhs //= g
        b = row[v]
        # clear the new pivot variable from the rows that hold it
        for pv in self._mentions.pop(v, ()):
            prow, prhs = self.pivrows[pv]
            f = prow.pop(v)
            h = gcd(b, f)
            a, f = b // h, f // h
            if a != 1:
                prow = {k: a * c for k, c in prow.items()}
                prhs *= a
            for k, c in row.items():
                if k == v:
                    continue
                nv = prow.get(k, 0) - f * c
                if nv:
                    prow[k] = nv
                    self._mentions.setdefault(k, set()).add(pv)
                else:
                    prow.pop(k, None)
                    self._mentions[k].discard(pv)
            prhs -= f * rhs
            h = gcd(prhs, *prow.values())
            if h != 1:
                prow = {k: c // h for k, c in prow.items()}
                prhs //= h
            self.pivrows[pv] = (prow, prhs)
        for k in row:
            if k != v:
                self._mentions.setdefault(k, set()).add(v)
        self.pivrows[v] = (row, rhs)

    def residual(self, row, rhs=ZERO):
        """Reduce an equation without inserting it; empty row means implied."""
        row, rhs, s = self._reduce(row, rhs)
        return {k: Fraction(c, s) for k, c in row.items()}, Fraction(rhs, s)

    def particular_solution(self) -> dict:
        """The solution with every free variable set to 0."""
        return {v: Fraction(rhs, prow[v]) for v, (prow, rhs) in self.pivrows.items() if rhs}

    def kernel_basis(self, variables) -> list:
        """Basis of the homogeneous solution space over the given variables."""
        pivots = set(self.pivrows)
        basis = []
        for f in sorted(v for v in variables if v not in pivots):
            vec = {f: ONE}
            for pv, (prow, _) in self.pivrows.items():
                c = prow.get(f)
                if c:
                    vec[pv] = Fraction(-c, prow[pv])
            basis.append(vec)
        return basis
