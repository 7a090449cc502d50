"""Congruence verifiers: one per numbered result, each computing the two
sides of the claimed congruence by disjoint code paths and reporting both
residues.

The left side always goes through the harmonic-sum machinery; the right
side is evaluated from its closed form (a scaled deeper sum, a half-range
recurrence sum over sequence terms reduced straight into Z/p^e, or a
Bernoulli value at 1/3 from the mod-p^2 power sum at index <= p-2) and
touches no harmonic table.  The closed-form sides work over plain ints and
share one private per-prime context, an ``exactnum._PrimeContext`` of their
own (the last prime only, refused past MAX_PRIME), whose entries are each
made on first use, mod its one modulus p^3; it never reads the harmonic
store, nor the store it:

- Lemma 3.1's generating side reads the first differences of one depth-n
  harmonic row, H_k^(n) - H_{k-1}^(n) = H_{k-1}^(n-1)/k, with no inverse
  per coefficient.  Its mirror side is a Taylor shift done as one
  correlation of k! k^-n with the context's inverse factorials, a single
  polynomial product mod p by Kronecker substitution
  (``exactnum.polymul_mod``) of which only the p coefficients read are
  unpacked, in place of p^2 Horner steps.
- Theorem 3.2's half-range sum is one dot product of two context vectors:
  the weights c^k a_{p-2k}, from their own ``terms_mod`` call, for each c,
  and the powers k^-power for each power (n = 1, 2 share k^-2), every k^-1
  taken from the context's one-pass inverses.
- Theorem 3.3's power sum p B_m(1/3) mod p^2 is made once per index m, and
  depths n and n+1 read the same one (m = p-n-1 for odd n, p-n for even).

Reports keep both residues rather than collapsing to a boolean so that
failures are diagnosable and serialisable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Any

from .bernoulli import bernoulli_times_p_mod_p2
from .exactnum import MAX_EXPONENT, MAX_PRIME, Residue, _PrimeContext, mod_reduce, polymul_mod, require_prime
from .harmonic import (
    harmonic_table,
    head_shifted_sum,
    tail_shifted_sum,
    tail_weighted_sum,
    weighted_sum_S,
)
from .seqalg import (
    DEFAULT_HORIZON,
    EigenKind,
    SequenceSpec,
    classify_eigenspace,
)

__all__ = [
    "CongruenceReport",
    "EvenDepth",
    "PrimeTooSmall",
    "EigenspaceMismatch",
    "NotInvariantMinus",
    "NotInvariantPlus",
    "COROLLARY_VARIANTS",
    "MAX_PRIME",
    "MAX_HORIZON",
    "MAX_MATRIX_DIM",
    "MAX_CELLS",
    "MAX_TABLE_ENTRIES",
    "MAX_M",
    "verify_lemma_2_1",
    "verify_theorem_1_1",
    "verify_S_parity",
    "verify_corollary_1_2",
    "verify_lemma_3_1",
    "verify_theorem_3_2",
    "verify_theorem_3_3",
]


class EvenDepth(ValueError):
    """The depth n must be odd for this congruence."""


class PrimeTooSmall(ValueError):
    """The prime does not satisfy the result's lower bound."""


class EigenspaceMismatch(ValueError):
    """The sequence does not lie in the eigenspace the result requires."""


class NotInvariantMinus(EigenspaceMismatch):
    pass


class NotInvariantPlus(EigenspaceMismatch):
    pass


COROLLARY_VARIANTS = ("minus_head", "minus_tail", "plus_head", "plus_tail")

# Sizes the command line refuses up front, each set so that the largest
# accepted value finishes in a few seconds.  A classification's difference
# table is quadratic in exact terms (`classify --horizon 500` takes 0.2 s for
# fibonacci and 0.6 s for signed_bernoulli, the slowest builtin, on 2 vCPUs).
# MAX_HORIZON also bounds lemma 2.1's depth n, since that lemma classifies
# its sequence at horizon max(n, horizon) and sums n+1 terms per n
# (`sweep --theorem lemma-2.1 --sequence all --n 1..500` takes about 2 s).
# Each step of the matrix's row reduction is quadratic too (100 x 100 takes
# about 2 s).  MAX_CELLS bounds the cells of one sweep, counted from its
# axes before any is built, so a huge grid is refused, not run out of memory.
# MAX_TABLE_ENTRIES bounds the ints one prime's harmonic store holds, 8 bytes
# each (lemma-3.1 at p = 10007 and n = 300 builds 3 * 10**6 and peaks at
# 44 MB).  MAX_M bounds lemma 2.1's m, whose binomials grow with its digits
# (`sweep --theorem lemma-2.1 --sequence all --n 1..500` takes about 3 s at
# m = 10**6, and one n = 500 cell 35 s at a 4,001-digit m, on 2 vCPUs).
MAX_HORIZON = 500
MAX_MATRIX_DIM = 100
MAX_CELLS = 10**5
MAX_TABLE_ENTRIES = 10**7
MAX_M = 10**6


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of one congruence check.

    ``lhs`` and ``rhs`` are residues of the stated modulus p^e, except for
    exact identities where both sides are exact rationals and ``modulus``
    is None.  ``passed`` is true iff lhs equals rhs in that ring.
    """

    theorem: str
    sequence: str
    params: dict[str, Any] = field(compare=True)
    lhs: Residue | Fraction = Fraction(0)
    rhs: Residue | Fraction = Fraction(0)
    modulus: int | None = None
    passed: bool = False
    detail: str | None = None


def _report(
    theorem: str,
    sequence: str,
    lhs: Residue | Fraction,
    rhs: Residue | Fraction,
    passed: bool | None = None,
    detail: str | None = None,
    **params: Any,
) -> CongruenceReport:
    """A report whose modulus is lhs's ring (None for exact sides) and whose
    verdict is lhs == rhs unless ``passed`` is given."""
    return CongruenceReport(
        theorem=theorem,
        sequence=sequence,
        params=params,
        lhs=lhs,
        rhs=rhs,
        modulus=lhs.modulus if isinstance(lhs, Residue) else None,
        passed=lhs == rhs if passed is None else passed,
        detail=detail,
    )


def _require_cell(n: int, p: int, bound: int, odd: bool = False) -> None:
    """The guards the p-adic verifiers share, in the order that decides a
    sweep cell's skip reason: p prime, then the depth, then p > bound."""
    require_prime(p)
    if odd and (n < 1 or n % 2 == 0):
        raise EvenDepth(f"depth must be odd, got {n}")
    if n < 1:
        raise ValueError("need n >= 1")
    if p <= bound:
        raise PrimeTooSmall(f"need p > {bound}, got {p}")


def _require(a: SequenceSpec, kind: EigenKind, horizon: int) -> None:
    if classify_eigenspace(a, horizon) is not kind:
        error = NotInvariantMinus if kind is EigenKind.MINUS else NotInvariantPlus
        raise error(f"{a.describe()} is not {kind.value}-invariant at horizon {horizon}")


def lemma_2_1_sum(a: SequenceSpec, m: int, n: int) -> Fraction:
    """The exact value of sum_{k<=n} [C((m-1)n+k-1, k) + (-1)^(n-k) C(mn, k)] a_{n-k}."""
    if m < 0 or n < 0:
        raise ValueError("need m >= 0 and n >= 0")
    terms = a.terms(n)
    den = lcm(*(t.denominator for t in terms))
    # C(N+k-1, k) = N(N+1)...(N+k-1)/k! with N = (m-1)n, which holds for N <= 0
    # too, and C(mn, k) = mn(mn-1)...(mn-k+1)/k!, each an exact step from k
    total, rising, falling = 0, 1, 1
    for k, t in enumerate(reversed(terms)):
        total += (rising + (-1) ** (n - k) * falling) * t.numerator * (den // t.denominator)
        rising = rising * ((m - 1) * n + k) // (k + 1)
        falling = falling * (m * n - k) // (k + 1)
    return Fraction(total, den)


def verify_lemma_2_1(
    a: SequenceSpec,
    m: int,
    n: int,
    p: int | None = None,
    horizon: int = DEFAULT_HORIZON,
) -> CongruenceReport:
    """The finite binomial identity that characterises minus-invariance.

    This is an identity over the rationals: the sum must vanish exactly.
    When a prime is supplied the report carries both sides reduced mod p
    for uniform serialisation, but the pass flag is always the exact test.
    The sequence is classified at horizon max(n, horizon), past every term read.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    _require(a, EigenKind.MINUS, max(n, horizon))
    total = lemma_2_1_sum(a, m, n)
    detail = None if total == 0 else f"exact value {total}"
    if p is None:
        return _report("lemma-2.1", a.describe(), total, Fraction(0), detail=detail, n=n, m=m)
    require_prime(p)
    return _report(
        "lemma-2.1", a.describe(), mod_reduce(total, p, 1), Residue(0, p, 1), total == 0, detail,
        n=n, p=p, e=1, m=m,
    )


def verify_theorem_1_1(
    a: SequenceSpec, n: int, p: int, horizon: int = DEFAULT_HORIZON
) -> CongruenceReport:
    """Depth-n nested sum vs p(n+1)/2 times the depth-(n+1) sum, mod p^3.

    Requires odd n, prime p > n+1 and a minus-invariant sequence.
    """
    _require_cell(n, p, n + 1, odd=True)
    _require(a, EigenKind.MINUS, horizon)
    lhs = weighted_sum_S(a, n, p, 3)
    scale = mod_reduce(Fraction(p * (n + 1), 2), p, 3)
    rhs = scale * weighted_sum_S(a, n + 1, p, 3)
    return _report("thm-1.1", a.describe(), lhs, rhs, n=n, p=p, e=3)


def verify_S_parity(
    a: SequenceSpec, i: int, p: int, horizon: int = DEFAULT_HORIZON
) -> CongruenceReport:
    """The parity chain: S_{2i-1} = 0 (mod p) and S_{2i-1} = i*p*S_{2i} (mod p^3)."""
    _require_cell(i, p, 2 * i + 1)
    _require(a, EigenKind.MINUS, horizon)
    odd_sum = weighted_sum_S(a, 2 * i - 1, p, 3)
    even_sum = weighted_sum_S(a, 2 * i, p, 3)
    rhs = Residue(i * p, p, 3) * even_sum
    vanishes = odd_sum.reduce_exponent(1).value == 0
    detail = None if vanishes else f"S_{2 * i - 1} mod p = {odd_sum.reduce_exponent(1).value}"
    return _report(
        "s-parity", a.describe(), odd_sum, rhs, vanishes and odd_sum == rhs, detail, n=i, p=p, e=3
    )


def verify_corollary_1_2(
    a: SequenceSpec, n: int, p: int, variant: str, horizon: int = DEFAULT_HORIZON
) -> CongruenceReport:
    """The four mod-p vanishing statements for odd depth.

    minus_head / minus_tail apply to minus-invariant sequences and weight
    the full product by a_{p-k_n} / a_{k_1}; plus_head / plus_tail apply to
    plus-invariant sequences, shift the subscript down by one and omit the
    top / bottom index from the product.
    """
    if variant not in COROLLARY_VARIANTS:
        raise ValueError(f"variant must be one of {COROLLARY_VARIANTS}")
    _require_cell(n, p, n + 1, odd=True)
    _require(a, EigenKind.MINUS if variant.startswith("minus") else EigenKind.PLUS, horizon)
    evaluate = {
        "minus_head": weighted_sum_S,
        "minus_tail": tail_weighted_sum,
        "plus_head": head_shifted_sum,
        "plus_tail": tail_shifted_sum,
    }[variant]
    lhs = evaluate(a, n, p, 1)
    return _report("cor-1.2", a.describe(), lhs, Residue(0, p, 1), n=n, p=p, e=1, variant=variant)


class _ClosedForms(_PrimeContext):
    """The closed-form sides' ingredients at one prime, as ints mod p^3."""

    def half_range_weights(self, c: int) -> list[int]:
        """c^k a_{p-2k} mod p^3 for k = 1..(p-1)/2, with a = second_order(c, 1)."""

        def make() -> list[int]:
            p, mod = self.prime, self.modulus
            weights, c_power = [], 1
            for a in SequenceSpec.second_order(c, 1).terms_mod(p, MAX_EXPONENT)[p - 2 :: -2]:
                c_power = c_power * c % mod
                weights.append(c_power * a % mod)
            return weights

        return self.entry(("weights", c), make)

    def half_range_powers(self, power: int) -> list[int]:
        """k^-power mod p^3 for k = 1..(p-1)/2."""
        half = (self.prime + 1) // 2
        return self.entry(("powers", power), lambda: [pow(i, power, self.modulus) for i in self.inverses()[1:half]])

    def bernoulli_at_third(self, m: int) -> Residue:
        """p B_m(1/3) mod p^2, one power sum over k < p.  The one entry not
        held mod p^3: the power sum gives p B_m(1/3) exactly only mod p^2."""
        return self.entry(("bernoulli", m), lambda: bernoulli_times_p_mod_p2(m, Fraction(1, 3), self.prime))


def _mirror_coefficients(n: int, p: int) -> list[int]:
    """Coefficients mod p of (-1)^(n-1) sum_{k<p} (1-x)^k / k^n.

    A Taylor shift of sum_k k^-n z^k to z = 1+y: the coefficient of y^j is
    sum_k C(k, j) k^-n = (1/j!) sum_k (k! k^-n) / (k-j)!, one correlation
    of u_k = k! k^-n with the 1/i!, done as a single product mod p whose
    low p coefficients are read; it reduces the context's tables, mod p^3,
    mod p.  Every k! with k < p is a unit mod p.
    """
    forms = _ClosedForms.at(p)
    fact, inv_fact = forms.factorials()
    u = [0] + [f * pow(i, n, p) for f, i in zip(fact[1:], forms.inverses()[1:])]
    corr = polymul_mod(u[::-1], inv_fact, p, p)
    shifted = [inv_fact[j] * corr[p - 1 - j] % p for j in range(p)]
    return [-v % p if (n - 1 + j) % 2 else v for j, v in enumerate(shifted)]


def _polynomial_sides(n: int, p: int) -> tuple[list[int], list[int]]:
    """Coefficient vectors mod p of the two polynomials compared below.

    The generating side's coefficient of x^k is H_{k-1}^(n-1)/k, the
    increment H_k^(n) - H_{k-1}^(n) of one depth-n row, so it needs no
    inverse."""
    row = harmonic_table(p, n, 1).row(n)
    gen_coeffs = [0] + [(hi - lo) % p for lo, hi in zip(row, row[1:])]
    return gen_coeffs, _mirror_coefficients(n, p)


def verify_lemma_3_1(n: int, p: int) -> CongruenceReport:
    """Polynomial congruence mod p between the generating polynomial
    sum_k H_{k-1}^(n-1) x^k / k and (-1)^(n-1) sum_k (1-x)^k / k^n.

    Passes iff all p coefficients agree; on failure the report carries the
    first mismatching coefficient pair and its index.
    """
    _require_cell(n, p, n + 1)
    gen_coeffs, mirror_coeffs = _polynomial_sides(n, p)
    mismatch = next((j for j in range(p) if gen_coeffs[j] != mirror_coeffs[j]), None)
    if mismatch is None:
        lhs = rhs = Residue(0, p, 1)
        detail = f"all {p} coefficients agree"
    else:
        lhs = Residue(gen_coeffs[mismatch], p, 1)
        rhs = Residue(mirror_coeffs[mismatch], p, 1)
        detail = f"first mismatch at x^{mismatch}"
    return _report("lemma-3.1", "-", lhs, rhs, detail=detail, n=n, p=p, e=1)


def _half_range_side(c: int, n: int, p: int) -> Residue:
    """Theorem 3.2's closed-form side: -p(n+1) sum c^k a_{p-2k} / k^(n+1)
    mod p^2 for odd n, -2 sum c^k a_{p-2k} / k^n mod p for even n, over
    k = 1..(p-1)/2, as one dot product of the context's vectors."""
    if n % 2 == 1:
        e, factor, power = 2, -p * (n + 1), n + 1
    else:
        e, factor, power = 1, -2, n
    forms = _ClosedForms.at(p)
    acc = sum(map(mul, forms.half_range_weights(c), forms.half_range_powers(power)))
    return Residue(factor * acc, p, e)


def verify_theorem_3_2(c: int, n: int, p: int) -> CongruenceReport:
    """Nested sum over the recurrence family vs the half-range sum
    -p(n+1) sum c^k a_{p-2k} / k^(n+1) (mod p^2, odd n) or
    -2 sum c^k a_{p-2k} / k^n (mod p, even n).

    The guard refuses primes p <= n+1.  For odd n it admits p = n+2, where
    the exponent n+1 = p-1 degenerates the power sums and the congruence is
    known to fail at some cells (c=1, n=1, p=3 gives 6 vs 3 mod 9).  Such
    cells are computed and reported with ``passed`` false, not refused.
    """
    _require_cell(n, p, n + 1)
    seq = SequenceSpec.second_order(c, 1)
    rhs = _half_range_side(c, n, p)
    lhs = weighted_sum_S(seq, n, p, rhs.exponent)
    return _report("thm-3.2", seq.describe(), lhs, rhs, n=n, p=p, e=rhs.exponent, c=c)


def _bernoulli_side(n: int, p: int) -> Residue:
    """Theorem 3.3's closed-form side: -((2^(n+1)+2)/6^(n+1)) p B_{p-n-1}(1/3)
    mod p^2 for odd n, -((2^(n+1)+4)/(n 6^n)) B_{p-n}(1/3) mod p for even n,
    where B_m(1/3) mod p is p B_m(1/3) mod p^2 divided by p."""
    if n % 2 == 1:
        scale = -Fraction(2 ** (n + 1) + 2, 6 ** (n + 1))
        return mod_reduce(scale, p, 2) * _ClosedForms.at(p).bernoulli_at_third(p - n - 1)
    scale = -Fraction(2 ** (n + 1) + 4, n * 6**n)
    return mod_reduce(scale, p, 1) * Residue(_ClosedForms.at(p).bernoulli_at_third(p - n).value // p, p, 1)


def verify_theorem_3_3(n: int, p: int) -> CongruenceReport:
    """The alternating Legendre-weighted nested sum against a Bernoulli
    polynomial value at 1/3:

    -((2^(n+1)+2)/6^(n+1)) p B_{p-n-1}(1/3)  (mod p^2) for odd n,
    -((2^(n+1)+4)/(n 6^n)) B_{p-n}(1/3)      (mod p)   for even n.
    """
    _require_cell(n, p, max(n + 1, 3))
    seq = SequenceSpec.builtin("legendre3_signed")
    rhs = _bernoulli_side(n, p)
    lhs = weighted_sum_S(seq, n, p, rhs.exponent)
    return _report("thm-3.3", seq.describe(), lhs, rhs, n=n, p=p, e=rhs.exponent)
