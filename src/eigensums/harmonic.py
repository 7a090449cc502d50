"""Multiple harmonic sums mod p^e and the weighted sums built from them.

H_r^(j) sums 1/(k_1...k_j) over 1 <= k_1 < ... < k_j <= r, and R_k^(j) over
k < k_1 < ... < k_j < p.  One private store per prime holds both as depth
rows of ints mod p^3, each a prefix (R: suffix) sum over the row below,
H_r^(d) = sum_{k<=r} H_{k-1}^(d-1)/k; every division is by a unit k < p, so
one row serves every e <= 3.  The store also holds the inverses of 1..p-1
and each sequence's terms from ``SequenceSpec.terms_mod``.  The four
weighted sums (weighted_sum_S and the three companions the vanishing
corollaries use) read it directly and wrap only their result in a Residue;
``harmonic_table`` is a read-only view.  A nested-loop enumerator over
exact rationals is the independent oracle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import prod

from .exactnum import MAX_EXPONENT, DenominatorDivisibleByP, Residue, is_prime
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

# Held while a store is made (lru_cache does not lock around a miss) or
# appends a depth row, so that no store or row is built twice.
_GROWTH = threading.Lock()


class SizeGuard(ValueError):
    """Brute-force enumeration rejected; it would be combinatorially explosive."""


class _PrimeStore:
    """Inverses, depth rows and reduced sequence terms at one prime, as ints
    mod p^MAX_EXPONENT.  ``forward[d][r]`` is H_r^(d), ``reverse[d][k]`` is
    R_k^(d), and a term whose denominator p divides is None."""

    def __init__(self, p: int) -> None:
        self.prime = p
        self.modulus = p**MAX_EXPONENT
        self.inverses = [0] + [pow(k, -1, self.modulus) for k in range(1, p)]
        self.forward = [[1] * p]
        self.reverse = [[1] * p]
        self._terms: dict[SequenceSpec, tuple[int | None, ...]] = {}

    def row(self, depth: int, reverse: bool = False) -> list[int]:
        """The forward (or reverse) row at ``depth``, building those below it first."""
        rows = self.reverse if reverse else self.forward
        if len(rows) <= depth:
            with _GROWTH:
                while len(rows) <= depth:
                    rows.append(self._row_above(rows[-1], reverse))
        return rows[depth]

    def _row_above(self, below: list[int], reverse: bool) -> list[int]:
        inv = self.inverses[1:]
        if reverse:  # R_k = sum_{i>k} R'_i / i
            steps = [h * i for h, i in zip(below[1:], inv)]
            sums = list(accumulate(reversed(steps), initial=0))[::-1]
        else:  # H_r = sum_{k<=r} H'_{k-1} / k
            sums = accumulate([h * i for h, i in zip(below, inv)], initial=0)
        return [s % self.modulus for s in sums]

    def terms(self, a: SequenceSpec) -> tuple[int | None, ...]:
        """a_0..a_{p-1}, reduced once per sequence."""
        if a not in self._terms:
            self._terms[a] = a.terms_mod(self.prime, MAX_EXPONENT)
        return self._terms[a]


@lru_cache(maxsize=1)
def _prime_store(p: int) -> _PrimeStore:
    return _PrimeStore(p)


def _store(p: int) -> _PrimeStore:
    with _GROWTH:
        return _prime_store(p)


@dataclass(frozen=True, slots=True)
class HarmonicTable:
    """A read-only view of H_r^(j) over Z/p^e for r < p and j <= j_max."""

    prime: int
    exponent: int
    j_max: int
    _rows: tuple[list[int], ...] = field(repr=False)  # the store's rows, mod p^MAX_EXPONENT

    def value(self, r: int, j: int) -> Residue:
        if j > self.j_max:
            raise ValueError(f"table only holds orders up to {self.j_max}")
        return Residue(self._rows[j][r], self.prime, self.exponent)


def _check(p: int, e: int, order: int, lowest: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= e <= MAX_EXPONENT:
        raise ValueError(f"exponent must be in 1..{MAX_EXPONENT}, got {e}")
    if not lowest <= order <= p - 1:
        raise ValueError(f"need {lowest} <= order <= p-1, got {order}")


# Cached only because bench/layers.py reads harmonic_table.cache_info(); one
# slot, so at most one view can keep an evicted prime's rows alive.
@lru_cache(maxsize=1)
def harmonic_table(p: int, j_max: int, e: int = 1) -> HarmonicTable:
    """A view of H_r^(j) over Z/p^e for r < p, j <= j_max."""
    _check(p, e, j_max, 0)
    store = _store(p)
    return HarmonicTable(p, e, j_max, tuple(store.row(j) for j in range(j_max + 1)))


def _nested_sum(a: SequenceSpec, j: int, p: int, e: int, top: bool, shifted: bool) -> Residue:
    """The depth-j nested sum of 1/(k_1...k_j) weighted by a_{p-k_j} (top)
    or a_{k_1}; ``shifted`` lowers the subscript by one and drops that
    index from the product.  Only the terms where the harmonic row is
    nonzero are read, and only those raise if p divides a denominator."""
    _check(p, e, j, 1)
    store = _store(p)
    lo = 0 if shifted else 1
    weights = store.terms(a)[lo : lo + p - j]
    if None in weights:
        index = lo + weights.index(None)
        raise DenominatorDivisibleByP(f"sequence term at index {index} has denominator divisible by {p}")
    if top:  # k = k_j runs over j..p-1, weighted by H_{k-1}^(j-1)
        row = harmonic_table(p, j - 1, e)._rows[j - 1]  # via the view, so cache_info() counts H reads
        factors = [row[j - 1 : p - 1], weights[::-1], store.inverses[j:]]
    else:  # k = k_1 runs over 1..p-j, weighted by R_k^(j-1)
        row = store.row(j - 1, reverse=True)
        factors = [row[1 : p - j + 1], weights, store.inverses[1 : p - j + 1]]
    if shifted:
        factors.pop()
    return Residue(sum(map(prod, zip(*factors))), p, e)


def weighted_sum_S(a: SequenceSpec, j: int, p: int, e: int = 1) -> Residue:
    """S_j = sum_{k=1}^{p-1} H_{k-1}^(j-1) a_{p-k} / k over Z/p^e.

    Equals the depth-j nested sum of a_{p-k_j}/(k_1...k_j) over
    0 < k_1 < ... < k_j < p.
    """
    return _nested_sum(a, j, p, e, top=True, shifted=False)


def tail_weighted_sum(a: SequenceSpec, j: int, p: int, e: int = 1) -> Residue:
    """The depth-j nested sum of a_{k_1}/(k_1...k_j) over Z/p^e."""
    return _nested_sum(a, j, p, e, top=False, shifted=False)


def head_shifted_sum(a: SequenceSpec, j: int, p: int, e: int = 1) -> Residue:
    """The depth-j nested sum of a_{p-k_j-1}/(k_1...k_{j-1}): the product
    omits the top index k_j, which survives only inside the subscript."""
    return _nested_sum(a, j, p, e, top=True, shifted=True)


def tail_shifted_sum(a: SequenceSpec, j: int, p: int, e: int = 1) -> Residue:
    """The depth-j nested sum of a_{k_1-1}/(k_2...k_j): the product omits
    the bottom index k_1."""
    return _nested_sum(a, j, p, e, top=False, shifted=True)


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
    total = sum(pow(k, -n, p) for k in range(1, p) if k % 6 == r)
    return Residue(total, p, 1)
