"""Multiple harmonic sums mod p^e and the weighted sums built from them.

H_r^(j) sums 1/(k_1...k_j) over 1 <= k_1 < ... < k_j <= r, and R_k^(j) over
k < k_1 < ... < k_j < p.  One private store per prime, an
``exactnum._PrimeContext`` of its own, holds both as depth rows mod its
modulus p^3 by one prefix-sum recurrence, row_t^(d) = sum_{s<t}
row_s^(d-1) * letter_s: H over the letters 1/1, ..., 1/(p-1), and R held
mirrored, as R_{p-1-t}, over 1/(p-1), ..., 1/1.  Every letter is a unit
mod p, so one row serves every e <= 3.  It also holds each sequence's
terms from ``SequenceSpec.terms_mod``, with -1 where p divides a
denominator.  Rows and terms are packed as 64-bit ``array('q')``, which
holds any value below p^3 < 2^63 for p <= MAX_PRIME in 8 bytes.  The four
weighted sums (weighted_sum_S and the three companions the vanishing
corollaries use) are one dot product over either row set and wrap only
their result in a Residue; ``harmonic_table`` is a read-only view.  A
nested-loop enumerator over exact rationals is the independent oracle.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import prod
from operator import mul

from .exactnum import MAX_EXPONENT, DenominatorDivisibleByP, Residue, _PrimeContext, require_prime
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


class _PrimeStore(_PrimeContext):
    """Depth rows and reduced sequence terms at one prime, packed as
    ``array('q')`` of ints mod p^MAX_EXPONENT, 8 bytes an entry.
    ``forward[d][r]`` is H_r^(d), ``reverse[d][t]`` is R_{p-1-t}^(d), and a
    term whose denominator p divides is -1, which no value in [0, p^3) can be."""

    def __init__(self, p: int) -> None:
        super().__init__(p)
        ones = array("q", [1]) * p
        self.forward = [ones]
        self.reverse = [ones]

    def row(self, depth: int, reverse: bool = False) -> array:
        """The forward (or reverse) row at ``depth``, building those below it first."""
        rows = self.reverse if reverse else self.forward
        if len(rows) <= depth:
            with self._lock:
                while len(rows) <= depth:
                    rows.append(self._row_above(rows[-1], reverse))
        return rows[depth]

    def _row_above(self, below: array, reverse: bool) -> array:
        # the letters 1/1..1/(p-1) build H; 1/(p-1)..1/1 build R held mirrored
        letters = self.inverses()[-1:0:-1] if reverse else self.inverses()[1:]
        m = self.modulus
        return array("q", [s % m for s in accumulate(map(mul, below, letters), initial=0)])

    def terms(self, a: SequenceSpec) -> array:
        """a_0..a_{p-1}, reduced once per sequence, -1 where p divides a denominator."""

        def make() -> array:
            return array("q", [-1 if t is None else t for t in a.terms_mod(self.prime, MAX_EXPONENT)])

        return self.entry(("terms", a), make)


@dataclass(frozen=True, slots=True)
class HarmonicTable:
    """A read-only view of H_r^(j) over Z/p^e for r < p and j <= j_max."""

    prime: int
    exponent: int
    j_max: int
    _rows: tuple[array, ...] = field(repr=False)  # the store's rows, mod p^MAX_EXPONENT

    def value(self, r: int, j: int) -> Residue:
        if not 0 <= r < self.prime:
            raise ValueError(f"table only holds r in 0..{self.prime - 1}, got {r}")
        return Residue(self._depth(j)[r], self.prime, self.exponent)

    def row(self, j: int) -> list[int]:
        """H_r^(j) for r < p as ints mod p^e, indexed by r."""
        modulus = self.prime**self.exponent
        return [h % modulus for h in self._depth(j)]

    def _depth(self, j: int) -> array:
        if not 0 <= j <= self.j_max:
            raise ValueError(f"table only holds orders 0..{self.j_max}, got {j}")
        return self._rows[j]


def _check(p: int, e: int, order: int, lowest: int) -> None:
    require_prime(p)
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
    store = _PrimeStore.at(p)
    return HarmonicTable(p, e, j_max, tuple(store.row(j) for j in range(j_max + 1)))


def _nested_sum(a: SequenceSpec, j: int, p: int, e: int, top: bool, shifted: bool) -> Residue:
    """The depth-j nested sum of 1/(k_1...k_j) weighted by a_{p-k_j} (top)
    or a_{k_1}; ``shifted`` lowers the subscript by one and drops that
    index from the product.  Only the terms where the harmonic row is
    nonzero are read, and only those raise if p divides a denominator."""
    _check(p, e, j, 1)
    store = _PrimeStore.at(p)
    lo = 0 if shifted else 1
    weights = store.terms(a)[lo : lo + p - j]
    if -1 in weights:
        index = lo + weights.index(-1)
        raise DenominatorDivisibleByP(f"sequence term at index {index} has denominator divisible by {p}")
    if top:  # k = k_j = s+1 weighted by H_s^(j-1), read via the view so cache_info() counts it
        row, ks = harmonic_table(p, j - 1, e)._rows[j - 1], slice(j, p)
    else:  # k = k_1 = p-1-s weighted by R_k^(j-1), held mirrored at row[s]
        row, ks = store.row(j - 1, reverse=True), slice(p - j, 0, -1)
    terms = map(mul, row[j - 1 : p - 1], weights[::-1])  # s = j-1..p-2 with a_{p-1-s} (shifted a_{p-2-s})
    if not shifted:  # the shifted sums omit this index's 1/k
        terms = map(mul, terms, store.inverses()[ks])
    return Residue(sum(terms), p, e)


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
    require_prime(p)
    if p <= max(n + 1, 3):
        raise ValueError(f"need p > max(n+1, 3), got p={p}, n={n}")
    if not 0 <= r <= 5:
        raise ValueError("residue class must be in 0..5")
    total = sum(pow(k, -n, p) for k in range(1, p) if k % 6 == r)
    return Residue(total, p, 1)
