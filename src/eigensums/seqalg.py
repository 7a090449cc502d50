"""Sequences, the binomial transform, and eigenspace classification.

The transform T(a)_n = sum_k C(n,k) (-1)^k a_k is an involution, so every
sequence splits into a part it fixes (the "plus" eigenspace) and a part it
negates (the "minus" eigenspace).  This module provides the transform over
exact rationals, a catalogue of builtin sequences, classification against
a finite horizon, and the second-order recurrence family a_{k+1} = a_k +
c*a_{k-1} (a_0 = 0).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import comb, gcd
from typing import Callable, Iterator, Sequence

from .bernoulli import bernoulli_number
from .exactnum import factorials_mod, polymul_mod, require_prime

__all__ = [
    "BUILTIN_NAMES",
    "DEFAULT_HORIZON",
    "EigenKind",
    "SequenceSpec",
    "binomial_transform_prefix",
    "classify_prefix",
    "classify_eigenspace",
]

# Large enough to catch any plausible misclassification while keeping the
# exact transform instant.
DEFAULT_HORIZON = 48

_GROWTH = threading.Lock()  # held while a prefix is made or extended: no term is made or pushed twice


class EigenKind(Enum):
    PLUS = "plus"
    MINUS = "minus"
    NEITHER = "neither"


class _EigenCheck:
    """The right edge of a difference table, ``edge[i]`` = den * Delta^i a_{m-1-i}
    after m terms, kept in ints over ``den``, the running common denominator
    of the terms, and for each sign how many leading k have T(a)_k = +-a_k.
    ``image`` holds T(a) of the terms given to the constructor."""

    def __init__(self, terms: Sequence[Fraction | int] = ()) -> None:
        self.edge: list[int] = []
        self.den = 1
        self.plus = self.minus = 0
        self.image = [Fraction(self.push(Fraction(x)), self.den) for x in terms]

    def push(self, term: Fraction | int) -> int:
        """Append a_m and return den * T(a)_m = den * (-1)^m Delta^m a_0."""
        num, den = term.as_integer_ratio()
        if self.den % den:  # a new factor of the denominator scales the whole edge once
            scale = den // gcd(self.den, den)
            self.den *= scale
            self.edge = [x * scale for x in self.edge]
        m = len(self.edge)
        diff = scaled = num * (self.den // den)
        for i, below in enumerate(self.edge):  # Delta^i a_{m-i} = Delta^(i-1) (a_{m-i+1} - a_{m-i})
            self.edge[i], diff = diff, diff - below
        self.edge.append(diff)
        image = -diff if m % 2 else diff
        self.plus += self.plus == m and image == scaled
        self.minus += self.minus == m and image == -scaled
        return image

    def kind(self, length: int) -> EigenKind:
        """The eigenspace of the prefix a_0..a_{length-1}."""
        if self.plus >= length:
            return EigenKind.PLUS
        return EigenKind.MINUS if self.minus >= length else EigenKind.NEITHER


def binomial_transform_prefix(a: Sequence[Fraction | int]) -> list[Fraction]:
    """T(a)_n = sum_{k<=n} C(n,k) (-1)^k a_k for every n covered by the input."""
    if not a:
        raise ValueError("need at least one term")
    return _EigenCheck(a).image


def classify_prefix(a: Sequence[Fraction | int]) -> EigenKind:
    """Compare T(a) against +a and -a exactly over the given prefix."""
    if not a:
        raise ValueError("need at least one term")
    return _EigenCheck(a).kind(len(a))


def _recurrence(a0, a1, c: int) -> Iterator:
    """a_0, a_1, ... of a_{k+1} = a_k + c*a_{k-1}, without end."""
    prev, cur = a0, a1
    while True:
        yield prev
        prev, cur = cur, cur + c * prev


def _recurrence_mod(a0: int, a1: int, c: int, count: int, m: int) -> tuple[int, ...]:
    """a_0..a_{count-1} of a_{k+1} = a_k + c*a_{k-1} mod m (count >= 2)."""
    prev, cur = a0 % m, a1 % m
    out = [prev, cur]
    for _ in range(count - 2):
        prev, cur = cur, (cur + c * prev) % m
        out.append(cur)
    return tuple(out)


def _half_power_mod(p: int, m: int) -> tuple[int | None, ...]:
    if p == 2:  # 1/2 is the only term past a_0
        return (1, None)
    half = pow(2, -1, m)
    return tuple(pow(half, k, m) for k in range(p))


def _weighted_catalan_mod(p: int, m: int) -> tuple[int | None, ...]:
    """C(2k, k)/4^k by the term ratio (2k-1)/(2k), keeping the power of p
    apart from the unit part.  For k < p each of 2k-1 and 2k holds p at
    most once."""
    out: list[int | None] = [1]
    unit, val = 1, 0
    for k in range(1, p):
        num, den = 2 * k - 1, 2 * k
        if num % p == 0:
            num, val = num // p, val + 1
        if den % p == 0:
            den, val = den // p, val - 1
        unit = unit * num * pow(den, -1, m) % m
        out.append(None if val < 0 else unit * p**val % m)
    return tuple(out)


def _series_inverse(f: list[int], m: int) -> list[int]:
    """g with f*g = 1 mod (m, x^len(f)), for f[0] a unit mod m, by Newton's
    iteration g <- g*(2 - f*g), which doubles the precision each step."""
    g = [pow(f[0], -1, m)]
    while len(g) < len(f):
        size = min(2 * len(g), len(f))
        residual = [-x for x in polymul_mod(f, g, m, size)]
        residual[0] += 2
        g = polymul_mod(g, residual, m, size)
    return g


def _signed_bernoulli_mod(p: int, m: int) -> tuple[int | None, ...]:
    """(-1)^k B_k mod m for k <= p-2 from x/(e^x - 1) = sum_k B_k x^k/k!,
    the inverse of sum_k x^k/(k+1)! mod x^(p-1); every factorial below p
    is a unit.  B_{p-1} has p in its denominator (von Staudt-Clausen)."""
    fact, inv_fact = factorials_mod(p, m)
    scaled = _series_inverse(inv_fact[1:], m)  # B_k / k!
    signed = tuple((-fact[k] if k % 2 else fact[k]) * b % m for k, b in enumerate(scaled))
    return signed + (None,)


# name -> (a_0, a_1, ... exactly, without end; (p, p^e) -> a_0..a_{p-1} mod p^e)
_BUILTINS: dict[str, tuple[Callable[[], Iterator], Callable[[int, int], tuple[int | None, ...]]]] = {
    "step": (lambda: _recurrence(0, 1, 0), lambda p, m: _recurrence_mod(0, 1, 0, p, m)),
    "fibonacci": (lambda: _recurrence(0, 1, 1), lambda p, m: _recurrence_mod(0, 1, 1, p, m)),
    "lucas": (lambda: _recurrence(2, 1, 1), lambda p, m: _recurrence_mod(2, 1, 1, p, m)),
    "half_power": (lambda: (Fraction(1, 2**k) for k in count()), _half_power_mod),
    "signed_bernoulli": (lambda: ((-1) ** k * bernoulli_number(k) for k in count()), _signed_bernoulli_mod),
    # (n+1) * Catalan(n) / 4^n collapses to the central binomial over 4^n
    "weighted_catalan": (lambda: (Fraction(comb(2 * k, k), 4**k) for k in count()), _weighted_catalan_mod),
    # (-1)^(k-1) (k|3)
    "legendre3_signed": (lambda: _recurrence(0, 1, -1), lambda p, m: _recurrence_mod(0, 1, -1, p, m)),
    "power2_alt": (lambda: _recurrence(0, 3, 2), lambda p, m: _recurrence_mod(0, 3, 2, p, m)),  # 2^k - (-1)^k
}
BUILTIN_NAMES = tuple(_BUILTINS)


@dataclass(frozen=True, slots=True)
class SequenceSpec:
    """A description of a sequence: a builtin by name, or a second-order
    recurrence a_{k+1} = a_k + c*a_{k-1} with a_0 = 0 and the given a_1."""

    kind: str  # "builtin" | "second_order"
    name: str | None = None
    c: int | None = None
    a1: Fraction | None = None

    @classmethod
    def builtin(cls, name: str) -> SequenceSpec:
        if name not in _BUILTINS:
            raise ValueError(f"unknown builtin sequence {name!r}")
        return cls(kind="builtin", name=name)

    @classmethod
    def second_order(cls, c: int, a1: Fraction | int = 1) -> SequenceSpec:
        return cls(kind="second_order", c=int(c), a1=Fraction(a1))

    def describe(self) -> str:
        if self.kind == "builtin":
            return str(self.name)
        return f"second_order(c={self.c},a1={self.a1})"

    def terms(self, n_max: int) -> tuple[Fraction, ...]:
        """Exact terms a_0..a_{n_max}."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        with _GROWTH:
            return tuple(_prefix(self).extend(n_max + 1)[: n_max + 1])

    def terms_mod(self, p: int, e: int = 1) -> tuple[int | None, ...]:
        """a_0..a_{p-1} reduced into Z/p^e as ints in [0, p^e), with None
        where p divides a term's denominator.

        Equal to reducing ``terms(p - 1)`` term by term, but the builtins
        and a second-order recurrence whose a_1 is p-integral are computed
        mod p^e directly, without their exact values.
        """
        require_prime(p)
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got {e}")
        m = p**e
        if self.kind == "builtin":
            return _BUILTINS[self.name][1](p, m)
        num, den = self.a1.as_integer_ratio()
        if den % p:
            return _recurrence_mod(0, num * pow(den, -1, m), self.c, p, m)
        return tuple(
            None if t.denominator % p == 0 else t.numerator * pow(t.denominator, -1, m) % m
            for t in self.terms(p - 1)
        )


class _Prefix:
    """The exact terms of one sequence generated so far, each made once,
    and the eigenspace check over the first ``len(check.edge)`` of them.
    Extended only under ``_GROWTH``: a generator is not thread-safe."""

    def __init__(self, spec: SequenceSpec) -> None:
        builtin = spec.kind == "builtin"
        self.source = _BUILTINS[spec.name][0]() if builtin else _recurrence(Fraction(0), spec.a1, spec.c)
        self.terms: list[Fraction] = []
        self.check = _EigenCheck()

    def extend(self, length: int) -> list[Fraction]:
        """Generate terms up to a_{length-1}; return every term held."""
        missing = length - len(self.terms)
        if missing > 0:
            self.terms.extend(Fraction(t) for t in islice(self.source, missing))
        return self.terms


_prefix = lru_cache(maxsize=256)(_Prefix)  # one record per sequence


def classify_eigenspace(a: SequenceSpec, horizon: int = DEFAULT_HORIZON) -> EigenKind:
    """Classify a_0..a_horizon against the transform.  T(a)_k reads only
    a_0..a_k, so each sequence has one check, extended only past the terms
    it holds, that answers every horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    with _GROWTH:
        prefix = _prefix(a)
        check = prefix.check
        for t in prefix.extend(horizon + 1)[len(check.edge) : horizon + 1]:
            check.push(t)
        return check.kind(horizon + 1)
