"""Sparse exact linear algebra over the rationals.

Gaussian elimination with back-substitution on sparse rows (Cohen, *A
Course in Computational Algebraic Number Theory*, §2.2).  Equations come in
and results go out as rationals: an int, or a Fraction when not integral
(:mod:`minmod.poly`).  In between every row is an integer dict, reduced by
cross-multiplication and kept primitive (the fraction-free elimination of
Bareiss, Math. Comp. 22, 1968).  Pivot choice is deterministic (smallest
variable key first), so particular solutions, ranks and kernel bases are
reproducible across runs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .poly import ONE, ZERO, quotient


class Inconsistent(Exception):
    """The linear system has no solution."""


def _integer_row(row, rhs):
    """``(s*row, s*rhs, s)`` with integer entries, zeros dropped, for the
    least positive ``s``; ``row`` and ``rhs`` hold rationals."""
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
    """Incremental row echelon form over Q on integer rows.

    Every pivot row is stored once, as inserted, and never changed: a
    primitive integer dict (gcd 1, rhs included) whose pivot is its least
    variable, with a positive entry there.  The reduction of a row against
    these rows is unique up to scale, so the pivots, ranks and solutions are
    those of elimination over Q in any order.
    """

    def __init__(self):
        self.pivrows = {}  # pivot var -> (integer row dict, integer rhs)

    @property
    def rank(self) -> int:
        return len(self.pivrows)

    def _reduce(self, row, rhs):
        """``(row, rhs, s)``: ``s`` times the input minus a combination of
        pivot rows, as integers and free of every pivot variable."""
        row, rhs, s = _integer_row(row, rhs)
        # clearing pivot v only adds variables above v, so clear in ascending order
        pending = [v for v in row if v in self.pivrows]
        heapify(pending)
        while pending:
            v = heappop(pending)
            f = row.pop(v, 0)
            if not f:
                continue
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
                old = row.get(k, 0)
                nv = old - f * c
                if nv:
                    row[k] = nv
                    if not old and k in self.pivrows:
                        heappush(pending, k)
                else:
                    del row[k]
            rhs -= f * prhs
        return row, rhs, s

    def add_equation(self, row, rhs=ZERO) -> None:
        """Insert one equation ``sum(row[v]*x_v) == rhs``.

        Raises :class:`Inconsistent` if it contradicts the rows seen so far.
        """
        row, rhs, s = self._reduce(row, rhs)
        if not row:
            if rhs:
                raise Inconsistent(f"0 == {quotient(rhs, s)}")
            return
        v = min(row)
        g = gcd(rhs, *row.values())
        if row[v] < 0:
            g = -g
        if g != 1:
            row = {k: c // g for k, c in row.items()}
            rhs //= g
        self.pivrows[v] = (row, rhs)

    def _back_substitute(self, x, rhs) -> dict:
        """Extend the free-variable values ``x`` to the pivots, highest pivot
        first, using the row rhs when ``rhs`` is set; the nonzero pivot
        values in pivot insertion order."""
        for v in sorted(self.pivrows, reverse=True):
            prow, prhs = self.pivrows[v]
            t = (prhs if rhs else 0) - sum(c * x[k] for k, c in prow.items() if k in x)
            if t:
                x[v] = quotient(t, prow[v])
        return {v: x[v] for v in self.pivrows if v in x}

    def particular_solution(self) -> dict:
        """The solution with every free variable set to 0."""
        return self._back_substitute({}, True)

    def kernel_basis(self, variables) -> list:
        """Basis of the homogeneous solution space over the given variables."""
        return [{f: ONE, **self._back_substitute({f: ONE}, False)}
                for f in sorted(v for v in variables if v not in self.pivrows)]
