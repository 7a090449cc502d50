"""Multiple harmonic sums mod p^e and the weighted sums built from them.

H_r^(j) sums 1/(k_1...k_j) over 1 <= k_1 < ... < k_j <= r.  Tables are
filled by the recursion H_r^(j) = H_{r-1}^(j) + H_{r-1}^(j-1)/r, where every
division is by some k < p and hence by a unit of Z/p^e.  On top of the
tables sit four weighted sums over a sequence a: the depth-j nested sum
with weight a_{p-k_j} (weighted_sum_S) and its three companions used by
the vanishing corollaries.  A literal nested-loop enumerator over exact
rationals serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod

from .exactnum import DenominatorDivisibleByP, Residue, is_prime
from .seqalg import SequenceSpec

__all__ = [
    "HarmonicTable",
    "SizeGuard",
    "harmonic_table",
    "weighted_sum_S",
    "tail_weighted_sum",
    "head_shifted_sum",
    "tail_shifted_sum",
    "nested_sum_bruteforce",
    "restricted_power_sum",
]

# Brute-force guard: C(30, 5) tuples is the most the oracle will enumerate.
BRUTE_MAX_PRIME = 31
BRUTE_MAX_DEPTH = 5


class SizeGuard(ValueError):
    """Brute-force enumeration rejected; it would be combinatorially explosive."""


@dataclass(frozen=True, slots=True)
class HarmonicTable:
    """H_r^(j) as residues for 0 <= r <= p-1 and 0 <= j <= j_max."""

    prime: int
    exponent: int
    j_max: int
    values: tuple[tuple[Residue, ...], ...]  # indexed [r][j]

    def value(self, r: int, j: int) -> Residue:
        if j > self.j_max:
            raise ValueError(f"table only holds orders up to {self.j_max}")
        return self.values[r][j]


@lru_cache(maxsize=32)
def harmonic_table(p: int, j_max: int, e: int = 1) -> HarmonicTable:
    """Build the DP table of H_r^(j) over Z/p^e for r < p, j <= j_max."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 <= j_max <= p - 1:
        raise ValueError("need 0 <= j_max <= p-1")
    one = Residue(1, p, e)
    zero = Residue(0, p, e)
    rows = [[one] + [zero] * j_max]
    for r in range(1, p):
        inv_r = Residue(r, p, e).inverse()
        prev = rows[-1]
        row = [one]
        for j in range(1, j_max + 1):
            row.append(prev[j] + prev[j - 1] * inv_r)
        rows.append(row)
    return HarmonicTable(p, e, j_max, tuple(tuple(row) for row in rows))


@lru_cache(maxsize=32)
def _reverse_table(p: int, j_max: int, e: int) -> tuple[tuple[Residue, ...], ...]:
    """R_k^(j): the sum of 1/(j_1...j_j) over k < j_1 < ... < j_j < p."""
    one = Residue(1, p, e)
    zero = Residue(0, p, e)
    rows = [[one] + [zero] * j_max]  # row for k = p-1
    for k in range(p - 2, -1, -1):
        inv_next = Residue(k + 1, p, e).inverse()
        nxt = rows[-1]
        row = [one]
        for j in range(1, j_max + 1):
            row.append(nxt[j] + nxt[j - 1] * inv_next)
        rows.append(row)
    rows.reverse()  # now indexed by k = 0..p-1
    return tuple(tuple(row) for row in rows)


@lru_cache(maxsize=128)
def _inverses(p: int, e: int) -> tuple[Residue, ...]:
    """Inverses of 1..p-1 in Z/p^e, with a zero placeholder at index 0."""
    return tuple(
        Residue(0, p, e) if k == 0 else Residue(k, p, e).inverse() for k in range(p)
    )


@lru_cache(maxsize=256)
def _lenient_terms(a: SequenceSpec, p: int, e: int) -> tuple[Residue | None, ...]:
    """a_0..a_{p-1} reduced into Z/p^e by ``SequenceSpec.terms_mod``, with
    None marking terms whose denominator p divides.  A None only raises
    when a sum actually needs it: the weighted sums below touch just the
    indices inside their structural support (the harmonic weight is
    identically zero elsewhere)."""
    return tuple(None if t is None else Residue(t, p, e) for t in a.terms_mod(p, e))


def _term(terms: tuple[Residue | None, ...], index: int, p: int) -> Residue:
    value = terms[index]
    if value is None:
        raise DenominatorDivisibleByP(f"sequence term at index {index} has denominator divisible by {p}")
    return value


def _check_order(j: int, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= j <= p - 1:
        raise ValueError(f"need 1 <= order <= p-1, got {j}")


def weighted_sum_S(a: SequenceSpec, j: int, p: int, e: int = 1) -> Residue:
    """S_j = sum_{k=1}^{p-1} H_{k-1}^(j-1) a_{p-k} / k over Z/p^e.

    Equals the depth-j nested sum of a_{p-k_j}/(k_1...k_j) over
    0 < k_1 < ... < k_j < p.
    """
    _check_order(j, p)
    table = harmonic_table(p, j - 1, e)
    terms = _lenient_terms(a, p, e)
    inv = _inverses(p, e)
    total = Residue(0, p, e)
    for k in range(j, p):  # H_{k-1}^(j-1) = 0 for k < j
        total = total + table.value(k - 1, j - 1) * _term(terms, p - k, p) * inv[k]
    return total


def tail_weighted_sum(a: SequenceSpec, j: int, p: int, e: int = 1) -> Residue:
    """The depth-j nested sum of a_{k_1}/(k_1...k_j) over Z/p^e."""
    _check_order(j, p)
    rev = _reverse_table(p, j - 1, e)
    terms = _lenient_terms(a, p, e)
    inv = _inverses(p, e)
    total = Residue(0, p, e)
    for k in range(1, p - j + 1):  # R_k^(j-1) = 0 for k > p-j
        total = total + rev[k][j - 1] * _term(terms, k, p) * inv[k]
    return total


def head_shifted_sum(a: SequenceSpec, j: int, p: int, e: int = 1) -> Residue:
    """The depth-j nested sum of a_{p-k_j-1}/(k_1...k_{j-1}): the product
    omits the top index k_j, which survives only inside the subscript."""
    _check_order(j, p)
    table = harmonic_table(p, j - 1, e)
    terms = _lenient_terms(a, p, e)
    total = Residue(0, p, e)
    for k in range(j, p):
        total = total + table.value(k - 1, j - 1) * _term(terms, p - k - 1, p)
    return total


def tail_shifted_sum(a: SequenceSpec, j: int, p: int, e: int = 1) -> Residue:
    """The depth-j nested sum of a_{k_1-1}/(k_2...k_j): the product omits
    the bottom index k_1."""
    _check_order(j, p)
    rev = _reverse_table(p, j - 1, e)
    terms = _lenient_terms(a, p, e)
    total = Residue(0, p, e)
    for k in range(1, p - j + 1):
        total = total + rev[k][j - 1] * _term(terms, k - 1, p)
    return total


def nested_sum_bruteforce(a: SequenceSpec, n: int, p: int) -> Fraction:
    """Literal enumeration of sum a_{p-k_n}/(k_1...k_n) over all
    0 < k_1 < ... < k_n < p, as an exact rational."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    if p > BRUTE_MAX_PRIME or n > BRUTE_MAX_DEPTH:
        raise SizeGuard(f"refusing p={p}, n={n}; guard is p <= {BRUTE_MAX_PRIME}, n <= {BRUTE_MAX_DEPTH}")
    terms = a.terms(p - 1)
    total = Fraction(0)
    for ks in combinations(range(1, p), n):
        total += terms[p - ks[-1]] / Fraction(prod(ks))
    return total


def restricted_power_sum(p: int, n: int, r: int) -> Residue:
    """sum of 1/k^n over 1 <= k <= p-1 with k = r (mod 6), reduced mod p."""
    if not is_prime(p) or p <= max(n + 1, 3):
        raise ValueError(f"need prime p > max(n+1, 3), got p={p}, n={n}")
    if not 0 <= r <= 5:
        raise ValueError("residue class must be in 0..5")
    total = 0
    for k in range(1, p):
        if k % 6 == r:
            total += pow(k, -n, p)
    return Residue(total, p, 1)
