from fractions import Fraction

import pytest

from eigensums.bernoulli import (
    IndexTooLarge,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_poly_eval,
    bernoulli_times_p_mod_p2,
    bernoulli_value_mod,
    check_bernoulli_identities,
)
from eigensums.exactnum import DenominatorDivisibleByP, mod_reduce, primes_between

from oracles import staudt_clausen_denominator

F = Fraction


def test_number_worked_examples():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(7) == 0
    assert bernoulli_number(12) == F(-691, 2730)


def test_cache_extends_monotonically():
    first = bernoulli_numbers(10)
    later = bernoulli_numbers(24)
    assert later[:11] == first
    assert len(later) == 25


def test_odd_indices_vanish():
    for m in range(3, 31, 2):
        assert bernoulli_number(m) == 0, m


def test_staudt_clausen_denominators():
    for two_k in range(2, 31, 2):
        assert bernoulli_number(two_k).denominator == staudt_clausen_denominator(two_k)


def test_poly_eval_worked_examples():
    assert bernoulli_poly_eval(3, F(1, 3)) == F(1, 27)
    assert bernoulli_poly_eval(2, F(1, 3)) == F(-1, 18)
    for m in (0, 1, 4, 9):
        assert bernoulli_poly_eval(m, F(0)) == bernoulli_number(m)


def test_value_mod_worked_examples():
    assert bernoulli_value_mod(3, F(1, 3), 5).value == 3
    assert bernoulli_value_mod(1, F(1, 2), 7).value == 0
    with pytest.raises(IndexTooLarge):
        bernoulli_value_mod(4, F(1, 3), 5)
    with pytest.raises(DenominatorDivisibleByP):
        bernoulli_value_mod(2, F(1, 5), 5)


def test_identity_worked_examples():
    # reflection at 1/3 and the two-fold multiplication splitting through 1/6
    assert bernoulli_poly_eval(3, F(2, 3)) == -bernoulli_poly_eval(3, F(1, 3)) == F(-1, 27)
    assert bernoulli_poly_eval(3, F(1, 3)) == 4 * (
        bernoulli_poly_eval(3, F(1, 6)) + bernoulli_poly_eval(3, F(2, 3))
    )
    assert bernoulli_poly_eval(2, F(1, 3)) == 2 * (
        bernoulli_poly_eval(2, F(1, 6)) + bernoulli_poly_eval(2, F(2, 3))
    )
    assert check_bernoulli_identities(3, 2, F(1, 6))
    assert check_bernoulli_identities(2, 2, F(1, 6))
    assert check_bernoulli_identities(0, 3, F(1, 2))


def test_identities_hold_across_grid():
    points = (F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3))
    for m in range(31):
        for a in (2, 3, 6):
            for x in points:
                assert check_bernoulli_identities(m, a, x), (m, a, x)


def test_special_values_at_odd_degree():
    # for odd m: B_m(0) = B_m(1/2) = 0, B_m(2/3) = -B_m(1/3),
    # and B_m(1/6) = (1 + 2^(1-m)) B_m(1/3)
    for m in range(3, 30, 2):
        assert bernoulli_poly_eval(m, F(0)) == 0
        assert bernoulli_poly_eval(m, F(1, 2)) == 0
        third = bernoulli_poly_eval(m, F(1, 3))
        assert bernoulli_poly_eval(m, F(2, 3)) == -third
        assert bernoulli_poly_eval(m, F(1, 6)) == (1 + F(2) ** (1 - m)) * third
        assert bernoulli_poly_eval(m, F(5, 6)) == -bernoulli_poly_eval(m, F(1, 6))


def test_power_sum_matches_exact_path():
    # p*B_m(x) = sum_{k<p} (x+k)^m (mod p^2) for m <= p-2, against the exact values
    primes = primes_between(2, 199)
    for x in (F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 6)):
        for m in range(198):
            exact = bernoulli_poly_eval(m, x)
            for p in primes:
                if p < m + 2 or x.denominator % p == 0:
                    continue
                assert bernoulli_times_p_mod_p2(m, x, p) == mod_reduce(p * exact, p, 2), (m, x, p)
                assert bernoulli_value_mod(m, x, p) == mod_reduce(exact, p, 1), (m, x, p)


def test_power_sum_guards():
    with pytest.raises(IndexTooLarge):
        bernoulli_times_p_mod_p2(6, F(1, 3), 7)
    with pytest.raises(DenominatorDivisibleByP):
        bernoulli_times_p_mod_p2(2, F(1, 5), 5)
    with pytest.raises(ValueError):
        bernoulli_times_p_mod_p2(-1, F(1, 3), 7)


def test_power_sum_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for p in (211, 401):
        for m in (p - 2, p - 3):
            value = sympy.bernoulli(m, sympy.Rational(1, 3))
            exact = F(int(value.p), int(value.q))
            assert bernoulli_times_p_mod_p2(m, F(1, 3), p) == mod_reduce(p * exact, p, 2), (m, p)
            assert bernoulli_value_mod(m, F(1, 3), p) == mod_reduce(exact, p, 1), (m, p)
