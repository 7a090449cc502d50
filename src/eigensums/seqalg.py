"""Sequences, the binomial transform, and eigenspace classification.

The transform T(a)_n = sum_k C(n,k) (-1)^k a_k is an involution, so every
sequence splits into a part it fixes (the "plus" eigenspace) and a part it
negates (the "minus" eigenspace).  This module provides the transform over
exact rationals, a catalogue of builtin sequences and classification
against a finite horizon.  A sequence is a name and, for six of the eight
builtins and the whole second-order family (a_0 = 0), the start (a_0, a_1,
c) of its recurrence a_{k+1} = a_k + c*a_{k-1}, evaluated by one kernel
per ring: ``_recurrence`` exactly and ``_recurrence_mod`` mod p^e.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import comb, gcd
from typing import Iterator, Sequence

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


def _recurrence(a0, a1, c) -> Iterator:
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


def _weighted_catalan_mod(p: int, m: int) -> tuple[int | None, ...]:
    """C(2k, k)/4^k by the term ratio (2k-1)/(2k).  For odd p every 2k with
    k < p is a unit and a numerator 2k-1 = p is a plain factor; p = 2 is the
    one prime in a denominator, a_1 = 1/2."""
    if p == 2:
        return (1, None)
    out = [1]
    for k in range(1, p):
        out.append(out[-1] * (2 * k - 1) * pow(2 * k, -1, m) % m)
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


# name -> the start (a_0, a_1, c) of a_{k+1} = a_k + c*a_{k-1}, or for a
# series (a_0, a_1, ... exactly, without end; (p, p^e) -> a_0..a_{p-1} mod p^e)
_BUILTINS: dict[str, tuple] = {
    "step": (0, 1, 0),
    "fibonacci": (0, 1, 1),
    "lucas": (2, 1, 1),
    "half_power": (1, Fraction(1, 2), Fraction(-1, 4)),  # 2^-k
    "signed_bernoulli": (lambda: ((-1) ** k * bernoulli_number(k) for k in count()), _signed_bernoulli_mod),
    # (n+1) * Catalan(n) / 4^n collapses to the central binomial over 4^n
    "weighted_catalan": (lambda: (Fraction(comb(2 * k, k), 4**k) for k in count()), _weighted_catalan_mod),
    "legendre3_signed": (0, 1, -1),  # (-1)^(k-1) (k|3)
    "power2_alt": (0, 3, 2),  # 2^k - (-1)^k
}
BUILTIN_NAMES = tuple(_BUILTINS)


@dataclass(frozen=True, slots=True)
class SequenceSpec:
    """A sequence by name: the recurrence a_{k+1} = a_k + c*a_{k-1} from
    a_0 and a_1, or with c None a builtin series."""

    name: str
    a0: Fraction | int | None = None
    a1: Fraction | int | None = None
    c: Fraction | int | None = None

    @classmethod
    def builtin(cls, name: str) -> SequenceSpec:
        if name not in _BUILTINS:
            raise ValueError(f"unknown builtin sequence {name!r}")
        start = _BUILTINS[name]
        return cls(name, *start) if len(start) == 3 else cls(name)

    @classmethod
    def second_order(cls, c: int, a1: Fraction | int = 1) -> SequenceSpec:
        """a_{k+1} = a_k + c*a_{k-1} with a_0 = 0, the given a_1 and an integer c."""
        if Fraction(c).denominator != 1:
            raise ValueError(f"second_order needs an integer c, got c={c}")
        c, a1 = int(c), Fraction(a1)
        return cls(f"second_order(c={c},a1={a1})", 0, a1, c)

    def describe(self) -> str:
        return self.name

    def terms(self, n_max: int) -> tuple[Fraction, ...]:
        """Exact terms a_0..a_{n_max}."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        with _GROWTH:
            return tuple(_prefix(self).extend(n_max + 1)[: n_max + 1])

    def terms_mod(self, p: int, e: int = 1) -> tuple[int | None, ...]:
        """a_0..a_{p-1} reduced into Z/p^e as ints in [0, p^e), with None
        where p divides a term's denominator.

        Equal to reducing ``terms(p - 1)`` term by term, but the series and
        a recurrence whose start is p-integral are computed mod p^e
        directly, without their exact values.
        """
        require_prime(p)
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got {e}")
        m = p**e
        if self.c is None:
            return _BUILTINS[self.name][1](p, m)
        (n0, d0), (n1, d1), (nc, dc) = (x.as_integer_ratio() for x in (self.a0, self.a1, self.c))
        if d0 % p and d1 % p and dc % p:
            return _recurrence_mod(n0 * pow(d0, -1, m), n1 * pow(d1, -1, m), nc * pow(dc, -1, m), p, m)
        return tuple(
            None if t.denominator % p == 0 else t.numerator * pow(t.denominator, -1, m) % m
            for t in self.terms(p - 1)
        )


class _Prefix:
    """The exact terms of one sequence generated so far, each made once,
    and the eigenspace check over the first ``len(check.edge)`` of them.
    Extended only under ``_GROWTH``: a generator is not thread-safe."""

    def __init__(self, spec: SequenceSpec) -> None:
        self.source = _BUILTINS[spec.name][0]() if spec.c is None else _recurrence(spec.a0, spec.a1, spec.c)
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
