from fractions import Fraction
from math import comb, factorial

import pytest

from eigensums.centralfact import (
    RationalMatrix,
    central_factorial_t,
    coefficient_matrix,
    row_reduce,
)

F = Fraction

# The two displayed 5x8 matrices, frozen entry for entry.
FIRST_DISPLAY = [
    [1, -1, 1, -1, 1, -1, 1, -1],
    [3, -3, 9, -15, 33, -63, 129, -255],
    [5, -5, 35, -65, 275, -665, 2315, -6305],
    [7, -7, 91, -175, 1267, -3367, 18571, -58975],
    [9, -9, 189, -369, 4149, -11529, 94509, -325089],
]
SECOND_DISPLAY = [
    [1, -1, 1, -1, 1, -1, 1, -1],
    [0, 0, 1, -2, 5, -10, 21, -42],
    [0, 0, 0, 0, 1, -3, 14, -42],
    [0, 0, 0, 0, 0, 0, 1, -4],
    [0, 0, 0, 0, 0, 0, 0, 0],
]


def test_triangle_worked_examples():
    assert central_factorial_t(1, 2) == 1
    assert central_factorial_t(2, 2) == 0
    assert central_factorial_t(2, 6) == 5
    with pytest.raises(ValueError):
        central_factorial_t(0, 1)


def test_even_columns_vanish_below_and_normalise_on_diagonal():
    for i in range(1, 13):
        assert central_factorial_t(i, 2 * i) == 1, i
        for j in range(1, i):
            assert central_factorial_t(i, 2 * j) == 0, (i, j)


def test_full_range_symmetry():
    # doubling the half range is legitimate: the symmetric sum over
    # m = -i..i equals t(i,j) for even j and vanishes for odd j
    for i in range(1, 11):
        for j in range(1, 11):
            sym = F(
                sum((-1) ** (i - m) * comb(2 * i, i + m) * m**j for m in range(-i, i + 1)),
                factorial(2 * i),
            )
            want = central_factorial_t(i, j) if j % 2 == 0 else F(0)
            assert sym == want, (i, j)


def test_coefficient_matrix_worked_examples():
    m = coefficient_matrix(5, 8)
    assert [m.entry(1, j) for j in range(1, 9)] == [1, -1, 1, -1, 1, -1, 1, -1]
    assert [m.entry(3, j) for j in range(1, 6)] == [5, -5, 35, -65, 275]
    assert m.entry(2, 3) == 9


def test_matrix_reproduces_displays():
    m = coefficient_matrix(5, 8)
    assert m == RationalMatrix.from_lists(FIRST_DISPLAY)
    assert row_reduce(m) == RationalMatrix.from_lists(SECOND_DISPLAY)


def test_row_reduce_trivia():
    identity = RationalMatrix.from_lists([[1, 0], [0, 1]])
    assert row_reduce(identity) == identity
    single = RationalMatrix.from_lists([[3, -3, 9]])
    assert row_reduce(single) == RationalMatrix.from_lists([[1, -1, 3]])


def test_row_reduce_sinks_zero_rows():
    m = RationalMatrix.from_lists([[0, 0], [1, 2]])
    assert row_reduce(m) == RationalMatrix.from_lists([[1, 2], [0, 0]])


def test_reduced_rows_carry_triangle_entries():
    # row i of the reduced matrix holds t(i,2j) in column 2j-1 and
    # -i*t(i,2j) in column 2j, for j >= i; zero elsewhere
    reduced = row_reduce(coefficient_matrix(5, 8))
    for i in range(1, 5):
        for col in range(1, 9):
            is_odd_col = col % 2 == 1
            j = (col + 1) // 2 if is_odd_col else col // 2
            want = F(0)
            if j >= i:
                t = central_factorial_t(i, 2 * j)
                want = t if is_odd_col else -i * t
            assert reduced.entry(i, col) == want, (i, col)


def test_matrix_validation():
    with pytest.raises(ValueError):
        RationalMatrix.from_lists([[1, 2], [3]])
    with pytest.raises(ValueError):
        coefficient_matrix(0, 3)
