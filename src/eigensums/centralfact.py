"""The alternating central binomial triangle t(i,j), the coefficient
matrix with entries (m-1)^j - (-m)^j, and exact forward Gaussian
elimination over rationals.

t(i,j) = (2/(2i)!) * sum_{m=1}^{i} (-1)^(i-m) C(2i, i+m) m^j.  The even
columns vanish for j < i and normalise to t(i,2i) = 1; note the vanishing
condition really is j < i (t(1,4) = 1, so a condition of the shape
"i < 2j" would be wrong).  Odd columns are kept as exact rationals with
no integrality assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

__all__ = [
    "RationalMatrix",
    "central_factorial_t",
    "coefficient_matrix",
    "row_reduce",
]


def central_factorial_t(i: int, j: int) -> Fraction:
    """t(i,j) per the alternating sum over the central binomial row."""
    if i < 1 or j < 1:
        raise ValueError("need i >= 1 and j >= 1")
    acc = 0
    for m in range(1, i + 1):
        acc += (-1) ** (i - m) * comb(2 * i, i + m) * m**j
    return Fraction(2 * acc, factorial(2 * i))


@dataclass(frozen=True, slots=True)
class RationalMatrix:
    """Rectangular matrix of exact rationals, row-major."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or any(len(r) != len(self.entries[0]) for r in self.entries):
            raise ValueError("matrix must be rectangular and non-empty")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, row: int, col: int) -> Fraction:
        """1-indexed access."""
        return self.entries[row - 1][col - 1]

    @classmethod
    def from_lists(cls, rows: list[list[Fraction | int]]) -> RationalMatrix:
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))


def coefficient_matrix(rows: int, cols: int) -> RationalMatrix:
    """The block with entry(m, j) = (m-1)^j - (-m)^j, 1-indexed."""
    if rows < 1 or cols < 1:
        raise ValueError("need rows, cols >= 1")
    return RationalMatrix.from_lists(
        [[(m - 1) ** j - (-m) ** j for j in range(1, cols + 1)] for m in range(1, rows + 1)]
    )


def row_reduce(matrix: RationalMatrix) -> RationalMatrix:
    """Forward elimination only: pivot rows are scaled to a leading 1 and
    used to clear entries below (never above); zero rows sink to the bottom.
    """
    m = [list(row) for row in matrix.entries]
    n_rows, n_cols = matrix.rows, matrix.cols
    piv_r = 0
    for col in range(n_cols):
        pivot = next((r for r in range(piv_r, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != piv_r:
            m[piv_r], m[pivot] = m[pivot], m[piv_r]
        lead = m[piv_r][col]
        m[piv_r] = [x / lead for x in m[piv_r]]
        for r in range(piv_r + 1, n_rows):
            factor = m[r][col]
            if factor != 0:
                m[r] = [x - factor * y for x, y in zip(m[r], m[piv_r])]
        piv_r += 1
        if piv_r == n_rows:
            break
    return RationalMatrix.from_lists(m)
