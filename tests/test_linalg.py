"""Exact sparse Gaussian elimination with back-substitution."""

import random
from fractions import Fraction
from math import gcd

import pytest

from minmod.linalg import Inconsistent, LinearSolver

ONE = Fraction(1)


def test_particular_solution():
    solver = LinearSolver()
    solver.add_equation({0: ONE, 1: ONE}, Fraction(3))
    solver.add_equation({0: ONE, 1: -ONE}, Fraction(1))
    assert solver.particular_solution() == {0: Fraction(2), 1: Fraction(1)}


def test_inconsistent():
    solver = LinearSolver()
    solver.add_equation({0: ONE}, ONE)
    with pytest.raises(Inconsistent):
        solver.add_equation({0: ONE}, Fraction(2))
    solver = LinearSolver()
    solver.add_equation({0: ONE}, ONE)
    with pytest.raises(Inconsistent):
        solver.add_equation({0: Fraction(2)}, Fraction(3))


def test_underdetermined_frees_are_zero():
    solver = LinearSolver()
    solver.add_equation({0: ONE, 1: ONE}, Fraction(5))
    sol = solver.particular_solution()
    assert sol[0] == 5 or sol[1] == 5
    assert sum(sol.values()) == 5


def test_kernel_basis():
    solver = LinearSolver()
    solver.add_equation({0: ONE, 1: -ONE}, Fraction(0))
    basis = solver.kernel_basis(range(3))
    # one pivot, two free variables
    assert len(basis) == 2
    for vec in basis:
        assert vec.get(0, Fraction(0)) - vec.get(1, Fraction(0)) == 0


def _rank(rows) -> int:
    solver = LinearSolver()
    for row in rows:
        solver.add_equation(row)
    return solver.rank


def test_rank():
    assert _rank([{0: ONE, 1: ONE}, {0: Fraction(2), 1: Fraction(2)}]) == 1
    assert _rank([{0: ONE}, {1: ONE}, {0: ONE, 1: ONE}]) == 2
    assert _rank([]) == 0


def test_rational_pivoting_exactness():
    # Hilbert-like rows stay exact
    rows = [({j: Fraction(1, i + j + 1) for j in range(4)}, Fraction(1))
            for i in range(4)]
    solver = LinearSolver()
    for row, rhs in rows:
        solver.add_equation(row, rhs)
    sol = solver.particular_solution()
    for row, rhs in rows:
        assert sum(c * sol.get(j, Fraction(0)) for j, c in row.items()) == rhs


def test_zero_coefficients_are_ignored():
    # an explicit zero is not a pivot candidate
    solver = LinearSolver()
    solver.add_equation({0: Fraction(0), 1: ONE}, Fraction(2))
    assert solver.rank == 1
    assert solver.particular_solution() == {1: Fraction(2)}
    assert solver.kernel_basis(range(2)) == [{0: ONE}]
    # an implied equation reduces to an empty row, zeros and all
    solver = LinearSolver()
    solver.add_equation({1: ONE})
    solver.add_equation({0: Fraction(0), 1: ONE})
    assert solver.rank == 1
    with pytest.raises(Inconsistent, match="^0 == 1$"):
        solver.add_equation({0: Fraction(0), 1: ONE}, ONE)
    assert solver.rank == 1 and solver.kernel_basis(range(2)) == [{0: ONE}]


def _random_system(rng):
    nvars = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(1, 12)):
        support = rng.sample(range(nvars), rng.randint(1, min(nvars, 4)))
        row = {v: Fraction(rng.choice((-6, -3, -2, -1, 1, 2, 4, 9)), rng.choice((1, 1, 2, 3)))
               for v in support}
        rows.append((row, Fraction(rng.randint(-4, 4), rng.choice((1, 5)))))
    return nvars, rows


def _assert_echelon_integer_rows(solver):
    for pv, (prow, prhs) in solver.pivrows.items():
        assert all(type(c) is int and c for c in prow.values()) and type(prhs) is int
        assert prow[pv] > 0, (pv, prow)
        assert gcd(prhs, *prow.values()) == 1, (pv, prow, prhs)
        assert min(prow) == pv, (pv, prow)


def test_pivot_rows_are_primitive_positive_and_in_echelon_form():
    rng = random.Random(11)
    for _ in range(300):
        nvars, rows = _random_system(rng)
        solver = LinearSolver()
        for row, rhs in rows:
            before = dict(solver.pivrows)
            try:
                solver.add_equation(row, rhs)
            except Inconsistent:
                pass
            # a pivot row is stored once and never changed
            assert {v: solver.pivrows[v] for v in before} == before
            _assert_echelon_integer_rows(solver)
        sol = solver.particular_solution()
        for pv, (prow, prhs) in solver.pivrows.items():
            assert sum(Fraction(c) * sol.get(k, 0) for k, c in prow.items()) == prhs
