"""Congruence verifiers: one per numbered result, each computing the two
sides of the claimed congruence by disjoint code paths and reporting both
residues.

The left side always goes through the harmonic-sum machinery; the right
side is evaluated from its closed form (a scaled deeper sum, a half-range
recurrence sum over sequence terms reduced straight into Z/p^e, or a
Bernoulli value at 1/3 from the mod-p^2 power sum at index <= p-2) and
touches no harmonic table.  Lemma 3.1's mirror side is a Taylor shift done
as one correlation with the inverse factorials, a single polynomial
product mod p by Kronecker substitution (``exactnum.polymul_mod``), in
place of p^2 Horner steps.  Reports keep both residues rather than
collapsing to a boolean so that failures are diagnosable and serialisable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .bernoulli import bernoulli_times_p_mod_p2, bernoulli_value_mod
from .exactnum import Residue, factorials_mod, is_prime, mod_reduce, polymul_mod
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
    binom,
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

# The largest prime a verifier accepts, ten times the primes near 10**4 the
# checks are meant to reach.  The harmonic store allocates rows of p ints up
# front, so a prime such as 10**11 + 3 would run until killed.
MAX_PRIME = 10**5


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


def _require_prime(p: int) -> None:
    if p > MAX_PRIME:
        raise ValueError(f"p={p} is above the limit MAX_PRIME={MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _require_cell(n: int, p: int, bound: int, odd: bool = False) -> None:
    """The guards the p-adic verifiers share, in the order that decides a
    sweep cell's skip reason: p prime, then the depth, then p > bound."""
    _require_prime(p)
    if odd and (n < 1 or n % 2 == 0):
        raise EvenDepth(f"depth must be odd, got {n}")
    if n < 1:
        raise ValueError("need n >= 1")
    if p <= bound:
        raise PrimeTooSmall(f"need p > {bound}, got {p}")


def _require_minus(a: SequenceSpec, horizon: int) -> None:
    if classify_eigenspace(a, horizon).kind is not EigenKind.MINUS:
        raise NotInvariantMinus(f"{a.describe()} is not minus-invariant at horizon {horizon}")


def _require_plus(a: SequenceSpec, horizon: int) -> None:
    if classify_eigenspace(a, horizon).kind is not EigenKind.PLUS:
        raise NotInvariantPlus(f"{a.describe()} is not plus-invariant at horizon {horizon}")


def lemma_2_1_sum(a: SequenceSpec, m: int, n: int) -> Fraction:
    """The exact value of sum_{k<=n} [C((m-1)n+k-1, k) + (-1)^(n-k) C(mn, k)] a_{n-k}."""
    if m < 0 or n < 0:
        raise ValueError("need m >= 0 and n >= 0")
    terms = a.terms(n)
    total = Fraction(0)
    for k in range(n + 1):
        coeff = binom((m - 1) * n + k - 1, k) + (-1) ** (n - k) * binom(m * n, k)
        total += coeff * terms[n - k]
    return total


def verify_lemma_2_1(
    a: SequenceSpec,
    m: int,
    n: int,
    p: int | None = None,
    horizon: int | None = None,
) -> CongruenceReport:
    """The finite binomial identity that characterises minus-invariance.

    This is an identity over the rationals: the sum must vanish exactly.
    When a prime is supplied the report carries both sides reduced mod p
    for uniform serialisation, but the pass flag is always the exact test.
    """
    if horizon is None:
        horizon = max(n, DEFAULT_HORIZON)
    _require_minus(a, horizon)
    total = lemma_2_1_sum(a, m, n)
    detail = None if total == 0 else f"exact value {total}"
    if p is None:
        return _report("lemma-2.1", a.describe(), total, Fraction(0), detail=detail, n=n, m=m)
    _require_prime(p)
    return _report(
        "lemma-2.1", a.describe(), mod_reduce(total, p, 1), Residue(0, p, 1), total == 0, detail,
        n=n, m=m, p=p, e=1,
    )


def verify_theorem_1_1(
    a: SequenceSpec, n: int, p: int, horizon: int = DEFAULT_HORIZON
) -> CongruenceReport:
    """Depth-n nested sum vs p(n+1)/2 times the depth-(n+1) sum, mod p^3.

    Requires odd n, prime p > n+1 and a minus-invariant sequence.
    """
    _require_cell(n, p, n + 1, odd=True)
    _require_minus(a, horizon)
    lhs = weighted_sum_S(a, n, p, 3)
    scale = mod_reduce(Fraction(p * (n + 1), 2), p, 3)
    rhs = scale * weighted_sum_S(a, n + 1, p, 3)
    return _report("thm-1.1", a.describe(), lhs, rhs, n=n, p=p, e=3)


def verify_S_parity(
    a: SequenceSpec, i: int, p: int, horizon: int = DEFAULT_HORIZON
) -> CongruenceReport:
    """The parity chain: S_{2i-1} = 0 (mod p) and S_{2i-1} = i*p*S_{2i} (mod p^3)."""
    _require_cell(i, p, 2 * i + 1)
    _require_minus(a, horizon)
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
    if variant.startswith("minus"):
        _require_minus(a, horizon)
    else:
        _require_plus(a, horizon)
    evaluate = {
        "minus_head": weighted_sum_S,
        "minus_tail": tail_weighted_sum,
        "plus_head": head_shifted_sum,
        "plus_tail": tail_shifted_sum,
    }[variant]
    lhs = evaluate(a, n, p, 1)
    return _report("cor-1.2", a.describe(), lhs, Residue(0, p, 1), n=n, p=p, e=1, variant=variant)


def _mirror_coefficients(n: int, p: int) -> list[int]:
    """Coefficients mod p of (-1)^(n-1) sum_{k<p} (1-x)^k / k^n.

    A Taylor shift of sum_k k^-n z^k to z = 1+y: the coefficient of y^j is
    sum_k C(k, j) k^-n = (1/j!) sum_k (k! k^-n) / (k-j)!, one correlation
    of u_k = k! k^-n with the 1/i!, done as a single product mod p.  Every
    k! with k < p is a unit mod p, and k^-1 = (k-1)! / k!.
    """
    fact, inv_fact = factorials_mod(p, p)
    u = [0] + [fact[k] * pow(fact[k - 1] * inv_fact[k], n, p) for k in range(1, p)]
    corr = polymul_mod(u[::-1], inv_fact, p)
    shifted = [inv_fact[j] * corr[p - 1 - j] % p for j in range(p)]
    return [-v % p if (n - 1 + j) % 2 else v for j, v in enumerate(shifted)]


def _polynomial_sides(n: int, p: int) -> tuple[list[int], list[int]]:
    """Coefficient vectors mod p of the two polynomials compared below."""
    table = harmonic_table(p, n - 1, 1)
    gen_coeffs = [0] * p
    for k in range(1, p):
        gen_coeffs[k] = table.value(k - 1, n - 1).value * pow(k, -1, p) % p
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
    if n % 2 == 1:
        e, factor, power = 2, -p * (n + 1), n + 1
    else:
        e, factor, power = 1, -2, n
    mod = p**e
    terms = seq.terms_mod(p, e)
    acc = 0
    for k in range(1, (p - 1) // 2 + 1):
        acc += pow(c, k, mod) * terms[p - 2 * k] * pow(k, -power, mod)
    lhs = weighted_sum_S(seq, n, p, e)
    rhs = Residue(factor * acc, p, e)
    return _report("thm-3.2", seq.describe(), lhs, rhs, n=n, p=p, e=e, c=c)


def verify_theorem_3_3(n: int, p: int) -> CongruenceReport:
    """The alternating Legendre-weighted nested sum against a Bernoulli
    polynomial value at 1/3:

    -((2^(n+1)+2)/6^(n+1)) p B_{p-n-1}(1/3)  (mod p^2) for odd n,
    -((2^(n+1)+4)/(n 6^n)) B_{p-n}(1/3)      (mod p)   for even n.
    """
    _require_cell(n, p, max(n + 1, 3))
    seq = SequenceSpec.builtin("legendre3_signed")
    if n % 2 == 1:
        e, scale = 2, -Fraction(2 ** (n + 1) + 2, 6 ** (n + 1))
        bernoulli_side = bernoulli_times_p_mod_p2(p - n - 1, Fraction(1, 3), p)
    else:
        e, scale = 1, -Fraction(2 ** (n + 1) + 4, n * 6**n)
        bernoulli_side = bernoulli_value_mod(p - n, Fraction(1, 3), p)
    lhs = weighted_sum_S(seq, n, p, e)
    rhs = mod_reduce(scale, p, e) * bernoulli_side
    return _report("thm-3.3", seq.describe(), lhs, rhs, n=n, p=p, e=e)
