"""Exact arithmetic: rationals, reduction into Z/p^e, and per-prime int tables.

Every quantity in this package is exact; there is no floating point.
Rationals are stdlib ``fractions.Fraction`` values.  Modular work is done
on plain ints: ``mod_reduce`` takes a rational into Z/p^e, and each
prime's tables (``_PrimeContext``) hold ints mod p^MAX_EXPONENT.  A
``Residue`` is only the value a verifier reports, an int in [0, p^e) with
its ring (p, e); it does no arithmetic.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Any, Callable

__all__ = [
    "Residue",
    "DenominatorDivisibleByP",
    "mod_reduce",
    "polymul_mod",
    "factorials_mod",
    "is_prime",
    "primes_between",
    "MAX_EXPONENT",
    "MAX_PRIME",
]

# Residue rings stop at p^3; nothing in the verification suite needs more.
MAX_EXPONENT = 3

# The largest prime any per-prime table or sum accepts, ten times the primes
# near 10**4 the checks are meant to reach.  Each of them holds p ints or
# takes p steps, so a prime such as 10**11 + 3 would run until killed.
MAX_PRIME = 10**5


class DenominatorDivisibleByP(ArithmeticError):
    """Reducing q mod p^e is undefined because p divides denominator(q)."""


# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10^24,
# which comfortably covers every 64-bit input.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# Bounded: Residue checks its prime on every construction, so the few primes
# in use stay cached, and no scan over a range can grow the cache.
@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for 64-bit inputs)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Refuse p unless it is a prime no larger than MAX_PRIME."""
    if p > MAX_PRIME:
        raise ValueError(f"p={p} is above the limit MAX_PRIME={MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending: a sieve of [lo, hi] that
    strikes the multiples n >= q^2 of every q <= sqrt(hi)."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    marks = bytearray([1]) * (hi - lo + 1)
    for q in range(2, isqrt(hi) + 1):
        first = max(q * q, -(-lo // q) * q)
        marks[first - lo :: q] = bytes(len(range(first, hi + 1, q)))
    return [lo + i for i, flag in enumerate(marks) if flag]


@dataclass(frozen=True, slots=True)
class Residue:
    """A reported value of Z/p^e: ``value`` in [0, p^e) with its ring (p, e).

    A value type only, compared and hashed as (value, prime, exponent): the
    kernels compute over plain ints and each side of a congruence makes one
    Residue.  Construction refuses a base that is not prime, an exponent
    outside 1..MAX_EXPONENT and a value that is not an int, and reduces the
    value mod p^e.
    """

    value: int
    prime: int
    exponent: int = 1

    def __post_init__(self) -> None:
        try:
            value = operator.index(self.value)
        except TypeError:
            raise TypeError(
                f"Residue value must be an int, got {type(self.value).__name__}; reduce a rational with mod_reduce"
            ) from None
        if not is_prime(self.prime):
            raise ValueError(f"modulus base {self.prime} is not prime")
        if not 1 <= self.exponent <= MAX_EXPONENT:
            raise ValueError(f"exponent must be in 1..{MAX_EXPONENT}, got {self.exponent}")
        object.__setattr__(self, "value", value % self.prime**self.exponent)

    @property
    def modulus(self) -> int:
        return self.prime**self.exponent

    def __str__(self) -> str:
        return f"{self.value} (mod {self.prime}^{self.exponent})"


def mod_reduce(q: Fraction | int, p: int, e: int = 1) -> Residue:
    """Reduce an exact rational into Z/p^e as numerator * denominator^{-1}.

    Raises :class:`DenominatorDivisibleByP` when p divides the denominator,
    i.e. when the congruence is not defined at this prime.
    """
    if not is_prime(p):
        raise ValueError(f"modulus base {p} is not prime")
    q = Fraction(q)
    if q.denominator % p == 0:
        raise DenominatorDivisibleByP(f"denominator {q.denominator} is divisible by {p}")
    inv = pow(q.denominator, -1, p**e)
    return Residue(q.numerator * inv, p, e)


def factorials_mod(count: int, m: int) -> tuple[list[int], list[int]]:
    """k! and 1/k! mod m for 0 <= k < count, from one modular inverse;
    (count-1)! must be a unit mod m, as every k! with k < p is mod p^e."""
    if count < 1:
        return [], []
    fact = [1] * count
    for k in range(1, count):
        fact[k] = fact[k - 1] * k % m
    inv_fact = [1] * count
    inv_fact[-1] = pow(fact[-1], -1, m)
    for k in range(count - 1, 1, -1):
        inv_fact[k - 1] = inv_fact[k] * k % m
    return fact, inv_fact


def polymul_mod(a: list[int], b: list[int], m: int, size: int | None = None) -> list[int]:
    """Coefficients of the product of two polynomials over Z/m, lowest first;
    only the lowest ``size`` of them when given (all by default).

    Kronecker substitution: each list is packed into one int with a slot
    per coefficient wide enough for any coefficient of the exact product,
    so one big-int multiply does all the work and no carry crosses a slot.
    A coefficient below ``size`` reads only inputs below ``size``, so the
    rest are neither packed nor unpacked.
    """
    full = len(a) + len(b) - 1 if a and b else 0
    size = full if size is None else min(size, full)
    if size <= 0:
        return []
    a = [x % m for x in a[:size]]
    b = [x % m for x in b[:size]]
    bits = 2 * (m - 1).bit_length() + min(len(a), len(b)).bit_length()
    width = (bits + 7) // 8
    packed_a = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in a), "little")
    packed_b = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in b), "little")
    low = (packed_a * packed_b) & ((1 << (8 * width * size)) - 1)
    data = low.to_bytes(width * size, "little")
    return [int.from_bytes(data[i : i + width], "little") % m for i in range(0, width * size, width)]


class _PrimeContext:
    """Tables at one prime as plain ints mod ``modulus`` = p^MAX_EXPONENT,
    which serves every e <= MAX_EXPONENT, each made once on first use and
    kept while p is the last prime its subclass was asked for.  Every
    subclass gets its own one-slot cache, so two subclasses share no entry.
    One lock guards every lookup and every entry made: ``lru_cache`` does
    not lock around a miss."""

    _lock = threading.RLock()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._made = lru_cache(maxsize=1)(cls)

    def __init__(self, p: int) -> None:
        self.prime = p
        self.modulus = p**MAX_EXPONENT
        self._entries: dict[tuple, Any] = {}

    @classmethod
    def at(cls, p: int):
        """The context at prime p, refused past MAX_PRIME before anything is made."""
        require_prime(p)
        with cls._lock:
            return cls._made(p)

    def entry(self, key: tuple, make: Callable[[], Any]) -> Any:
        """The value under ``key``, made by ``make()`` on first use only."""
        with self._lock:
            if key not in self._entries:
                self._entries[key] = make()
            return self._entries[key]

    def factorials(self) -> tuple[list[int], list[int]]:
        """k! and 1/k! mod p^MAX_EXPONENT for k < p."""
        return self.entry(("factorials",), lambda: factorials_mod(self.prime, self.modulus))

    def inverses(self) -> list[int]:
        """1/k mod m = p^MAX_EXPONENT for k < p (0 at index 0), in one pass:
        1/k = -(m // k) * 1/(m % k), where m % k is a unit below k."""

        def make() -> list[int]:
            m = self.modulus
            inv = [0, 1]
            for k in range(2, self.prime):
                inv.append(-(m // k) * inv[m % k] % m)
            return inv

        return self.entry(("inverses",), make)
