"""Independent oracles used by the tests: literal enumerations and
closed-form facts that never touch the library's table-based code paths.

It also pins the paper's conventions for the recurrence family
a_{k+1} = a_k + c*a_{k-1} with a_0 = 0, which the library needs only
through the terms of ``SequenceSpec.second_order``:

- the closed form sqrt(delta) * a_k = w_plus^k - w_minus^k (a_1 = 1) in
  Q(sqrt(delta)), delta = 1 + 4c, w = (1 +- sqrt(delta)) / 2
  (``QuadExt``, ``ClosedFormData``);
- the extension to negative indices a_{-k} = -a_k * (-c)^{-k}, which needs
  c != 0 (``second_order_terms``, ``ZeroCNegativeIndex``);
- C(n, k) generalised to negative n (``binom``), as lemma 2.1 states it;
- the map a_n -> n * a_{n-1}, which swaps the two eigenspaces
  (``shift_weight_map``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, prod

from eigensums.exactnum import factorials_mod
from eigensums.seqalg import EigenKind, SequenceSpec


def binomial_transform_literal(a: list[Fraction | int]) -> list[Fraction]:
    """T(a)_n = sum_{k<=n} C(n,k) (-1)^k a_k for every n < len(a), summed
    term by term with one binomial coefficient each."""
    return [
        sum((Fraction((-1) ** k * comb(n, k)) * a[k] for k in range(n + 1)), Fraction(0))
        for n in range(len(a))
    ]


def eigen_kind_literal(a: list[Fraction | int]) -> EigenKind:
    """PLUS if T(a) = a, else MINUS if T(a) = -a, else NEITHER, by the literal transform."""
    image = binomial_transform_literal(a)
    if image == [Fraction(x) for x in a]:
        return EigenKind.PLUS
    return EigenKind.MINUS if image == [-Fraction(x) for x in a] else EigenKind.NEITHER


def binom(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0, generalised to negative n."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if n >= 0:
        return comb(n, k) if k <= n else 0
    return (-1) ** k * comb(k - n - 1, k)


def lemma_2_1_sum_literal(a: SequenceSpec, m: int, n: int) -> Fraction:
    """sum_{k<=n} [C((m-1)n+k-1, k) + (-1)^(n-k) C(mn, k)] a_{n-k}, with two
    generalised binomial coefficients per term."""
    terms = a.terms(n)
    total = Fraction(0)
    for k in range(n + 1):
        total += (binom((m - 1) * n + k - 1, k) + (-1) ** (n - k) * binom(m * n, k)) * terms[n - k]
    return total


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


def theorem_3_2_half_range_fused(c: int, n: int, p: int) -> int:
    """The thm-3.2 closed form mod p^e (e = 2 for odd n, 1 for even n) by
    one fused loop over k = 1..(p-1)/2: k^-1 = (k-1)!/k! from fresh
    factorials, c^k as a running product and one pow per term, over a
    fresh ``terms_mod`` reduction, with nothing kept between calls."""
    if n % 2 == 1:
        e, factor, power = 2, -p * (n + 1), n + 1
    else:
        e, factor, power = 1, -2, n
    mod = p**e
    fact, inv_fact = factorials_mod((p + 1) // 2, mod)
    acc, c_power = 0, 1
    terms = SequenceSpec.second_order(c, 1).terms_mod(p, e)
    for f, i, a in zip(fact, inv_fact[1:], terms[p - 2 :: -2]):
        c_power = c_power * c % mod
        acc += c_power * a * pow(f * i, power, mod)
    return factor * acc % mod


def harmonic_rows_exact(p: int, depth: int) -> list[list[Fraction]]:
    """H_r^(d) for d <= depth and r < p as exact rationals, indexed [d][r],
    by the recursion H_r^(d) = H_{r-1}^(d) + H_{r-1}^(d-1) / r."""
    rows = [[Fraction(1)] * p]
    for _ in range(depth):
        below, row = rows[-1], [Fraction(0)]
        for r in range(1, p):
            row.append(row[r - 1] + below[r - 1] / r)
        rows.append(row)
    return rows


def reverse_rows_exact(p: int, depth: int) -> list[list[Fraction]]:
    """R_k^(d), the sum of 1/(i_1...i_d) over k < i_1 < ... < i_d < p, for
    d <= depth and k < p as exact rationals, indexed [d][k], by the
    recursion R_k^(d) = R_{k+1}^(d) + R_{k+1}^(d-1) / (k+1)."""
    rows = [[Fraction(1)] * p]
    for _ in range(depth):
        below, row = rows[-1], [Fraction(0)] * p
        for k in range(p - 2, -1, -1):
            row[k] = row[k + 1] + below[k + 1] / (k + 1)
        rows.append(row)
    return rows


def weighted_sums_exact(a: SequenceSpec, j: int, p: int) -> dict[str, Fraction]:
    """The four depth-j weighted sums as exact rationals, keyed by the
    corollary variant each one serves, from the exact depth-(j-1) rows."""
    terms = a.terms(p - 1)
    head = harmonic_rows_exact(p, j - 1)[j - 1]
    tail = reverse_rows_exact(p, j - 1)[j - 1]
    return {
        "minus_head": sum((head[k - 1] * terms[p - k] / k for k in range(j, p)), Fraction(0)),
        "minus_tail": sum((tail[k] * terms[k] / k for k in range(1, p - j + 1)), Fraction(0)),
        "plus_head": sum((head[k - 1] * terms[p - k - 1] for k in range(j, p)), Fraction(0)),
        "plus_tail": sum((tail[k] * terms[k - 1] for k in range(1, p - j + 1)), Fraction(0)),
    }


def lemma_3_1_mirror_horner(n: int, p: int) -> list[int]:
    """Coefficients mod p of (-1)^(n-1) sum_{k<p} (1-x)^k / k^n by Horner's
    rule: sum_k k^-n z^k evaluated at z = 1+y in one list mod p, O(p^2).
    The coefficient of y^j is sum_k C(k, j) k^-n, the mirror coefficient
    of x^j up to the sign (-1)^(n-1+j)."""
    shifted: list[int] = []
    for coeff in reversed([0] + [pow(k, -n, p) for k in range(1, p)]):
        shifted = [(a + b) % p for a, b in zip(shifted + [0], [0] + shifted)]  # times 1+y
        shifted[0] = (shifted[0] + coeff) % p
    return [-v % p if (n - 1 + j) % 2 else v for j, v in enumerate(shifted)]


def polymul_schoolbook(a: list[int], b: list[int], m: int) -> list[int]:
    """Coefficients of a*b mod m by the quadratic double loop."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [v % m for v in out]


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) for an odd prime p by Euler's criterion: a^((p-1)/2) mod p
    is 0, 1 or p-1."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def shift_weight_map(a: SequenceSpec, horizon: int) -> list[Fraction]:
    """The prefix of n * a_{n-1}, which swaps eigenspaces (plus <-> minus)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    terms = a.terms(horizon - 1)
    return [Fraction(0)] + [n * terms[n - 1] for n in range(1, horizon + 1)]


class ZeroCNegativeIndex(ValueError):
    """Negative recurrence indices requested with c = 0 (no inverse exists)."""


def second_order_terms(
    c: int, a1: Fraction | int, k_min: int, k_max: int
) -> list[Fraction]:
    """Terms a_{k_min}..a_{k_max} of the recurrence a_{k+1} = a_k + c*a_{k-1},
    run forward by its own loop.

    a_0 = 0 and a_1 is given; negative indices extend the sequence by
    a_{-k} = -a_k * (-c)^{-k}, which requires c != 0.
    """
    if k_min > k_max:
        raise ValueError("k_min must be <= k_max")
    if k_min < 0 and c == 0:
        raise ZeroCNegativeIndex("negative indices need c != 0")
    fwd = [Fraction(0), Fraction(a1)]
    while len(fwd) <= max(k_max, -k_min):
        fwd.append(fwd[-1] + c * fwd[-2])

    def term(k: int) -> Fraction:
        if k >= 0:
            return fwd[k]
        j = -k
        return -fwd[j] / Fraction((-c) ** j)

    return [term(k) for k in range(k_min, k_max + 1)]


@dataclass(frozen=True, slots=True)
class QuadExt:
    """Element rat + irr*sqrt(delta) of the quadratic extension Q(sqrt(delta))."""

    rat: Fraction
    irr: Fraction
    delta: int

    def _check(self, other: QuadExt) -> None:
        if self.delta != other.delta:
            raise ValueError("mixed extension rings")

    def __add__(self, other: QuadExt) -> QuadExt:
        self._check(other)
        return QuadExt(self.rat + other.rat, self.irr + other.irr, self.delta)

    def __sub__(self, other: QuadExt) -> QuadExt:
        self._check(other)
        return QuadExt(self.rat - other.rat, self.irr - other.irr, self.delta)

    def __mul__(self, other: QuadExt) -> QuadExt:
        self._check(other)
        return QuadExt(
            self.rat * other.rat + self.irr * other.irr * self.delta,
            self.rat * other.irr + self.irr * other.rat,
            self.delta,
        )

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.rat, -self.irr, self.delta)

    def inverse(self) -> QuadExt:
        norm = self.rat * self.rat - self.irr * self.irr * self.delta
        if norm == 0:
            raise ZeroDivisionError("element has zero norm")
        return QuadExt(self.rat / norm, -self.irr / norm, self.delta)

    def __pow__(self, k: int) -> QuadExt:
        base = self if k >= 0 else self.inverse()
        result = QuadExt(Fraction(1), Fraction(0), self.delta)
        for _ in range(abs(k)):
            result = result * base
        return result


@dataclass(frozen=True, slots=True)
class ClosedFormData:
    """The discriminant delta = 1 + 4c and the conjugate roots
    w = (1 +- sqrt(delta)) / 2 of the second-order recurrence.

    The closed form used here is sqrt(delta) * a_k = w_plus^k - w_minus^k
    (for a_1 = 1).  The plus-sign variant (w_plus^k + w_minus^k)/sqrt(delta)
    is sometimes quoted, but it evaluates to 1/sqrt(delta) at k = 1 and so
    cannot satisfy a_1 = 1; the difference form does.
    """

    c: int
    delta: int
    w_plus: QuadExt
    w_minus: QuadExt

    @classmethod
    def from_c(cls, c: int) -> ClosedFormData:
        delta = 1 + 4 * c
        half = Fraction(1, 2)
        w_plus = QuadExt(half, half, delta)
        w_minus = QuadExt(half, -half, delta)
        data = cls(c=c, delta=delta, w_plus=w_plus, w_minus=w_minus)
        one = QuadExt(Fraction(1), Fraction(0), delta)
        minus_c = QuadExt(Fraction(-c), Fraction(0), delta)
        if w_plus + w_minus != one or w_plus * w_minus != minus_c:
            raise ArithmeticError("root relations w+ + w- = 1, w+ w- = -c failed")
        return data

    def term(self, k: int) -> Fraction:
        """a_k for the a_1 = 1 recurrence, read off from w_plus^k - w_minus^k."""
        if k < 0 and self.c == 0:
            raise ZeroCNegativeIndex("negative indices need c != 0")
        diff = self.w_plus**k - self.w_minus**k
        if diff.rat != 0:
            raise ArithmeticError("closed-form difference has a rational part")
        return diff.irr
