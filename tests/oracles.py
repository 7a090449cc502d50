"""Independent oracles used by the tests: literal enumerations and
closed-form facts that never touch the library's table-based code paths."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

from eigensums.seqalg import SequenceSpec


def brute_variant(a: SequenceSpec, n: int, p: int, variant: str) -> Fraction:
    """Enumerate the four corollary-style nested sums over exact rationals."""
    terms = a.terms(p - 1)
    total = Fraction(0)
    for ks in combinations(range(1, p), n):
        if variant == "minus_head":
            total += terms[p - ks[-1]] / Fraction(prod(ks))
        elif variant == "minus_tail":
            total += terms[ks[0]] / Fraction(prod(ks))
        elif variant == "plus_head":
            total += terms[p - ks[-1] - 1] / Fraction(prod(ks[:-1]))
        elif variant == "plus_tail":
            total += terms[ks[0] - 1] / Fraction(prod(ks[1:]))
        else:
            raise ValueError(variant)
    return total


def harmonic_by_enumeration(r: int, j: int) -> Fraction:
    """H_r^(j) by literal enumeration of index tuples (no recursion)."""
    if j == 0:
        return Fraction(1)
    total = Fraction(0)
    for ks in combinations(range(1, r + 1), j):
        total += Fraction(1, prod(ks))
    return total


def staudt_clausen_denominator(two_k: int) -> int:
    """Denominator of B_{2k}: the product of primes q with (q-1) | 2k."""
    def _is_prime(n: int) -> bool:
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    return prod(q for q in range(2, two_k + 2) if _is_prime(q) and two_k % (q - 1) == 0)


def lemma_3_1_sides_exact(n: int, p: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact rational coefficient vectors of the two lemma-3.1 polynomials,
    built straight from the definitions (binomial expansion, no tables)."""
    gen = [Fraction(0)] * p
    for k in range(1, p):
        gen[k] = harmonic_by_enumeration(k - 1, n - 1) / k
    return gen, lemma_3_1_mirror_exact(n, p)


def lemma_3_1_mirror_exact(n: int, p: int) -> list[Fraction]:
    """Exact coefficients of (-1)^(n-1) sum_{k<p} (1-x)^k / k^n, expanded
    binomially term by term."""
    from math import comb

    mirror = [Fraction(0)] * p
    for k in range(1, p):
        inv_kn = Fraction(1, k**n)
        for j in range(k + 1):
            mirror[j] += (-1) ** (n - 1 + j) * comb(k, j) * inv_kn
    return mirror


def theorem_3_2_half_range_odd(a: SequenceSpec, n: int, p: int) -> int:
    """The odd-depth thm-3.2 closed form
    -p(n+1) sum_{k<=(p-1)/2} c^k a_{p-2k} / k^(n+1) as an integer in [0, p^2),
    summed over exact rationals and reduced by a plain modular inverse."""
    terms = a.terms(p - 1)
    acc = Fraction(0)
    for k in range(1, (p - 1) // 2 + 1):
        acc += a.c**k * terms[p - 2 * k] / Fraction(k ** (n + 1))
    total = -p * (n + 1) * acc
    mod = p * p
    return total.numerator * pow(total.denominator, -1, mod) % mod


def theorem_3_2_half_range_even(a: SequenceSpec, n: int, p: int) -> int:
    """The even-depth thm-3.2 closed form
    -2 sum_{k<=(p-1)/2} c^k a_{p-2k} / k^n as an integer in [0, p),
    summed over exact rationals and reduced by a plain modular inverse."""
    terms = a.terms(p - 1)
    acc = Fraction(0)
    for k in range(1, (p - 1) // 2 + 1):
        acc += a.c**k * terms[p - 2 * k] / Fraction(k**n)
    total = -2 * acc
    return total.numerator * pow(total.denominator, -1, p) % p
