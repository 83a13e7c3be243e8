"""Sparse exact linear algebra over the rationals.

A tiny Gauss-Jordan eliminator on sparse rows (dict variable -> Fraction).
Pivot choice is deterministic (smallest variable key first), so particular
solutions, ranks and kernel bases are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Inconsistent(Exception):
    """The linear system has no solution."""


class LinearSolver:
    """Incremental Gauss-Jordan elimination over Q.

    Rows are kept mutually reduced: every pivot row has coefficient 1 on its
    pivot variable and 0 on every other pivot variable.
    """

    def __init__(self):
        self.pivrows = {}  # pivot var -> (row dict, rhs)

    @property
    def rank(self) -> int:
        return len(self.pivrows)

    def _reduce(self, row, rhs):
        # pivot rows reference no other pivots, so one pass eliminates all
        row = dict(row)
        for v in [v for v in row if v in self.pivrows]:
            c = row.pop(v, ZERO)
            if not c:
                continue
            prow, prhs = self.pivrows[v]
            for k, val in prow.items():
                if k == v:
                    continue
                nv = row.get(k, ZERO) - c * val
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            rhs = rhs - c * prhs
        return row, rhs

    def add_equation(self, row, rhs=ZERO) -> None:
        """Insert one equation ``sum(row[v]*x_v) == rhs``.

        Raises :class:`Inconsistent` if it contradicts the rows seen so far.
        """
        row, rhs = self._reduce(row, rhs)
        if not row:
            if rhs:
                raise Inconsistent(f"0 == {rhs}")
            return
        v = min(row)
        c = row[v]
        norm = {k: val / c for k, val in row.items()}
        nrhs = rhs / c
        # clear the new pivot variable from existing rows
        for pv, (prow, prhs) in list(self.pivrows.items()):
            if v in prow:
                f = prow.pop(v)
                for k, val in norm.items():
                    if k == v:
                        continue
                    nv = prow.get(k, ZERO) - f * val
                    if nv:
                        prow[k] = nv
                    else:
                        prow.pop(k, None)
                self.pivrows[pv] = (prow, prhs - f * nrhs)
        self.pivrows[v] = (norm, nrhs)

    def residual(self, row, rhs=ZERO):
        """Reduce an equation without inserting it; empty row means implied."""
        return self._reduce(row, rhs)

    def particular_solution(self) -> dict:
        """The solution with every free variable set to 0."""
        return {v: rhs for v, (_, rhs) in self.pivrows.items() if rhs}

    def kernel_basis(self, variables) -> list:
        """Basis of the homogeneous solution space over the given variables."""
        pivots = set(self.pivrows)
        basis = []
        for f in sorted(v for v in variables if v not in pivots):
            vec = {f: ONE}
            for pv, (prow, _) in self.pivrows.items():
                c = prow.get(f)
                if c:
                    vec[pv] = -c
            basis.append(vec)
        return basis

