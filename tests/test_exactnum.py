import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensums import harmonic
from eigensums.bernoulli import bernoulli_times_p_mod_p2
from eigensums.exactnum import (
    MAX_EXPONENT,
    MAX_PRIME,
    DenominatorDivisibleByP,
    Residue,
    _PrimeContext,
    factorials_mod,
    is_prime,
    mod_reduce,
    polymul_mod,
    primes_between,
)

from eigensums.seqalg import SequenceSpec

from oracles import polymul_schoolbook


def test_mod_reduce_worked_examples():
    assert mod_reduce(Fraction(35, 24), 5, 1).value == 0
    assert mod_reduce(Fraction(1, 2), 7, 1).value == 4
    assert mod_reduce(Fraction(-5, 12), 5, 2).value == 10


def test_mod_inverse_worked_examples():
    for p, e in ((5, 1), (7, 2), (13, 3)):
        assert mod_reduce(Fraction(1, 1), p, e).value == 1
    assert mod_reduce(Fraction(1, 3), 5, 2).value == 17
    assert mod_reduce(Fraction(1, 24), 5, 3).value == 99


def test_denominator_divisible_by_p():
    with pytest.raises(DenominatorDivisibleByP):
        mod_reduce(Fraction(1, 10), 5, 1)
    with pytest.raises(DenominatorDivisibleByP):
        mod_reduce(Fraction(3, 49), 7, 2)


def test_ring_validation():
    with pytest.raises(ValueError):
        Residue(1, 6, 1)  # composite base
    with pytest.raises(ValueError):
        Residue(1, 5, 4)  # exponent beyond the supported range
    with pytest.raises(ValueError):
        mod_reduce(Fraction(1), 9, 1)


def test_canonical_value_and_ops():
    r = Residue(-1, 5, 2)
    assert r.value == 24
    assert r.modulus == 25
    assert r == Residue(49, 5, 2) != Residue(24, 5, 3)
    assert str(r) == "24 (mod 5^2)"


@pytest.mark.parametrize("value", [Fraction(1, 2), 1.5])
def test_residue_refuses_a_value_that_is_not_an_int(value):
    with pytest.raises(TypeError, match="mod_reduce"):
        Residue(value, 7)


def test_factorials_mod_of_no_terms_is_empty():
    assert factorials_mod(0, 125) == ([], [])
    assert factorials_mod(1, 125) == ([1], [1])


def test_primes_between():
    assert primes_between(2, 13) == [2, 3, 5, 7, 11, 13]
    assert primes_between(24, 28) == []
    assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)


def test_primes_between_sieve_matches_primality_filter():
    def filtered(lo, hi):
        return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]

    for lo in range(-2, 40):
        for hi in range(-2, 130):
            assert primes_between(lo, hi) == filtered(lo, hi), (lo, hi)
    for lo, hi in ((99_000, 100_000), (10**9, 10**9 + 100)):
        assert primes_between(lo, hi) == filtered(lo, hi), (lo, hi)
    assert len(primes_between(2, 10**5)) == 9592
    info = is_prime.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@pytest.mark.parametrize("p,e", [(5, 1), (7, 3)])
@settings(max_examples=80, deadline=None)
@given(q=_fracs, r=_fracs)
def test_reduction_is_a_ring_homomorphism(p, e, q, r):
    if q.denominator % p == 0 or r.denominator % p == 0:
        return
    m = p**e
    x, y = mod_reduce(q, p, e).value, mod_reduce(r, p, e).value
    assert mod_reduce(q + r, p, e).value == (x + y) % m
    assert mod_reduce(q * r, p, e).value == x * y % m


@settings(max_examples=80, deadline=None)
@given(q=_fracs)
def test_reduction_consistent_across_exponents(q):
    p = 7
    if q.denominator % p == 0:
        return
    assert mod_reduce(q, p, 3).value % p == mod_reduce(q, p, 1).value


def test_polymul_mod_matches_schoolbook():
    rng = random.Random(20)
    primes = primes_between(2, 1009)
    cases = [(0, 0), (0, 5), (5, 0), (1, 1), (300, 300), (1, 300)]
    cases += [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(30)]
    for la, lb in cases:
        p = rng.choice(primes)
        m = p ** rng.randint(1, 3)
        a = [rng.randrange(m) for _ in range(la)]
        b = [rng.randrange(-m, 2 * m) for _ in range(lb)]  # unreduced inputs too
        want = polymul_schoolbook(a, b, m)
        assert polymul_mod(a, b, m) == want, (la, lb, m)
        for size in range(len(want) + 1):
            assert polymul_mod(a, b, m, size) == want[:size], (la, lb, m, size)


def test_polymul_mod_extreme_coefficients():
    # every coefficient at m-1 maximises each slot of the packed product
    for m in (2, 3, 1009**3):
        for length in (1, 2, 255, 256, 300):
            full = [m - 1] * length
            want = polymul_schoolbook(full, full, m)
            assert polymul_mod(full, full, m) == want, (m, length)
            for size in range(len(want) + 1):
                assert polymul_mod(full, full, m, size) == want[:size], (m, length, size)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1009, 10007])
def test_one_pass_inverses_match_pow(p):
    # one table mod the context's one modulus, which serves every e <= MAX_EXPONENT
    context = _PrimeContext(p)
    m = p**MAX_EXPONENT
    assert context.modulus == m
    assert context.inverses() == [0] + [pow(k, -1, m) for k in range(1, p)]


STEP = SequenceSpec.builtin("step")
PER_PRIME = {
    "weighted_sum_S": lambda p: harmonic.weighted_sum_S(STEP, 1, p),
    "tail_weighted_sum": lambda p: harmonic.tail_weighted_sum(STEP, 1, p),
    "head_shifted_sum": lambda p: harmonic.head_shifted_sum(STEP, 1, p),
    "tail_shifted_sum": lambda p: harmonic.tail_shifted_sum(STEP, 1, p),
    "harmonic_table": lambda p: harmonic.harmonic_table(p, 1),
    "terms_mod": lambda p: STEP.terms_mod(p),
    "bernoulli_times_p_mod_p2": lambda p: bernoulli_times_p_mod_p2(2, Fraction(1, 3), p),
    "restricted_power_sum": lambda p: harmonic.restricted_power_sum(p, 1, 1),
}


@pytest.mark.parametrize("name", PER_PRIME)
def test_per_prime_work_refuses_primes_above_max_prime(name):
    # 100003 is prime: refused for its size before any O(p) table or loop
    assert is_prime(100003) and 100003 > MAX_PRIME
    with pytest.raises(ValueError, match=f"MAX_PRIME={MAX_PRIME}"):
        PER_PRIME[name](100003)
