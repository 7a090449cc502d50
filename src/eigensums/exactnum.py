"""Exact arithmetic: arbitrary-precision rationals and residue rings Z/p^e.

Every quantity in this package is exact.  Rationals are stdlib
``fractions.Fraction`` values (always lowest terms, positive denominator);
modular values are ``Residue`` elements that carry their ring (p, e) with
them.  A congruence is decided by reducing exact rationals into Z/p^e.
There is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Residue",
    "DenominatorDivisibleByP",
    "NotAUnit",
    "RingMismatch",
    "mod_reduce",
    "mod_inverse",
    "is_prime",
    "primes_between",
    "MAX_EXPONENT",
]

# Residue rings stop at p^3; nothing in the verification suite needs more.
MAX_EXPONENT = 3


class DenominatorDivisibleByP(ArithmeticError):
    """Reducing q mod p^e is undefined because p divides denominator(q)."""


class NotAUnit(ArithmeticError):
    """Inversion of a residue that p divides."""


class RingMismatch(TypeError):
    """Arithmetic attempted between residues of different rings (p, e)."""


# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10^24,
# which comfortably covers every 64-bit input.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
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


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


@dataclass(frozen=True, slots=True)
class Residue:
    """A canonical element of Z/p^e with the ring carried alongside.

    ``value`` is always normalised into [0, p^e).  Two residues combine
    arithmetically only when both p and e agree; anything else raises
    :class:`RingMismatch` rather than coercing silently.
    """

    value: int
    prime: int
    exponent: int = 1

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError(f"modulus base {self.prime} is not prime")
        if not 1 <= self.exponent <= MAX_EXPONENT:
            raise ValueError(f"exponent must be in 1..{MAX_EXPONENT}, got {self.exponent}")
        object.__setattr__(self, "value", self.value % self.prime**self.exponent)

    @property
    def modulus(self) -> int:
        return self.prime**self.exponent

    def _coerce(self, other: Residue | int) -> Residue:
        if isinstance(other, Residue):
            if (other.prime, other.exponent) != (self.prime, self.exponent):
                raise RingMismatch(
                    f"cannot combine Z/{self.prime}^{self.exponent} "
                    f"with Z/{other.prime}^{other.exponent}"
                )
            return other
        if isinstance(other, int):
            return Residue(other, self.prime, self.exponent)
        raise RingMismatch(f"cannot combine Residue with {type(other).__name__}")

    def __add__(self, other: Residue | int) -> Residue:
        other = self._coerce(other)
        return Residue(self.value + other.value, self.prime, self.exponent)

    __radd__ = __add__

    def __sub__(self, other: Residue | int) -> Residue:
        other = self._coerce(other)
        return Residue(self.value - other.value, self.prime, self.exponent)

    def __rsub__(self, other: Residue | int) -> Residue:
        return self._coerce(other) - self

    def __mul__(self, other: Residue | int) -> Residue:
        other = self._coerce(other)
        return Residue(self.value * other.value, self.prime, self.exponent)

    __rmul__ = __mul__

    def __neg__(self) -> Residue:
        return Residue(-self.value, self.prime, self.exponent)

    def __pow__(self, k: int) -> Residue:
        base = self if k >= 0 else self.inverse()
        return Residue(pow(base.value, abs(k), self.modulus), self.prime, self.exponent)

    def __int__(self) -> int:
        return self.value

    def inverse(self) -> Residue:
        """The y with self * y = 1 in Z/p^e; raises NotAUnit when p | value."""
        if self.value % self.prime == 0:
            raise NotAUnit(f"{self.value} is not a unit mod {self.prime}^{self.exponent}")
        return Residue(pow(self.value, -1, self.modulus), self.prime, self.exponent)

    def reduce_exponent(self, e: int) -> Residue:
        """Project into the smaller ring Z/p^e (e <= current exponent)."""
        if e > self.exponent:
            raise ValueError(f"cannot lift exponent {self.exponent} to {e}")
        return Residue(self.value, self.prime, e)

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


def mod_inverse(x: Residue) -> Residue:
    """Modular inverse of a unit residue; raises NotAUnit otherwise."""
    return x.inverse()
