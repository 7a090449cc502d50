"""Bernoulli numbers and polynomials: exact rationals, and values mod p^2.

The number cache uses the convention B_1 = -1/2 and grows monotonically
through the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0, skipping
the odd B_j past B_1, which are zero.  Values mod p skip it: p*B_m(x) mod
p^2 is the power sum sum_{k<p} (x+k)^m in Z/p^2, under the von
Staudt-Clausen guard m <= p-2 and with p prime to x's denominator.  The
exact values are the oracle the power sum is tested on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from threading import Lock

from .exactnum import DenominatorDivisibleByP, Residue


class IndexTooLarge(ValueError):
    """B_m(x) mod p requested with m >= p-1, where denominators may contain p."""


# Shared append-only cache of B_0, B_1, ...; extension is serialised so
# concurrent readers always observe a consistent prefix.
_numbers: list[Fraction] = [Fraction(1)]
_numbers_lock = Lock()


def bernoulli_numbers(m: int) -> list[Fraction]:
    """Exact values B_0..B_m (inclusive)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    with _numbers_lock:
        while len(_numbers) <= m:
            k = len(_numbers)
            if k >= 3 and k % 2:
                _numbers.append(Fraction(0))  # B_k vanishes for odd k >= 3
                continue
            acc = Fraction(0)
            for j in range(k):
                if j < 3 or j % 2 == 0:  # the odd B_j past B_1 add nothing
                    acc += comb(k + 1, j) * _numbers[j]
            _numbers.append(-acc / (k + 1))
        return _numbers[: m + 1]


def bernoulli_number(m: int) -> Fraction:
    """The single value B_m."""
    return bernoulli_numbers(m)[m]


@lru_cache(maxsize=1024)
def bernoulli_poly_eval(m: int, x: Fraction) -> Fraction:
    """B_m(x) = sum_k C(m, k) B_k x^(m-k), exactly."""
    if m < 0:
        raise ValueError("m must be >= 0")
    x = Fraction(x)
    numbers = bernoulli_numbers(m)
    total = Fraction(0)
    xpow = Fraction(1)
    for k in range(m, -1, -1):
        total += comb(m, k) * numbers[k] * xpow
        xpow *= x
    return total


def bernoulli_times_p_mod_p2(m: int, x: Fraction, p: int) -> Residue:
    """p*B_m(x) mod p^2 for x = a/b, as b^-m * sum_{k<p} (a+bk)^m.

    That sum is sum_{j>=1} C(m, j-1)/j * p^j * B_{m+1-j}(x).  For m <= p-2
    every B_i(x) with i <= m is p-integral by von Staudt-Clausen, and j < p,
    so only the j = 1 term p*B_m(x) survives mod p^2.  Needs p prime to b.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m >= p - 1:
        raise IndexTooLarge(f"B_{m}(x) mod {p} needs m <= {p - 2}")
    a, b = Fraction(x).as_integer_ratio()
    if b % p == 0:
        raise DenominatorDivisibleByP(f"denominator {b} is divisible by {p}")
    power_sum = sum(pow(a + b * k, m, p * p) for k in range(p))
    return Residue(power_sum * pow(b, -m, p * p), p, 2)


def bernoulli_value_mod(m: int, x: Fraction, p: int) -> Residue:
    """B_m(x) reduced mod p, under the guards of :func:`bernoulli_times_p_mod_p2`."""
    return Residue(bernoulli_times_p_mod_p2(m, x, p).value // p, p, 1)


def check_bernoulli_identities(m: int, a: int, x: Fraction) -> bool:
    """True iff the reflection and multiplication identities hold at (m, a, x).

    Reflection: B_m(1-x) = (-1)^m B_m(x).
    Multiplication: B_m(a*x) = a^(m-1) * sum_{k<a} B_m(x + k/a).
    """
    if m < 0 or a < 1:
        raise ValueError("need m >= 0 and a >= 1")
    x = Fraction(x)
    reflection = bernoulli_poly_eval(m, 1 - x) == (-1) ** m * bernoulli_poly_eval(m, x)
    spread = sum(bernoulli_poly_eval(m, x + Fraction(k, a)) for k in range(a))
    multiplication = bernoulli_poly_eval(m, a * x) == Fraction(a) ** (m - 1) * spread
    return reflection and multiplication
