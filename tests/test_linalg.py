"""Exact sparse Gauss-Jordan solving."""

from fractions import Fraction

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
