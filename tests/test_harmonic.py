import sys
import threading
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensums import harmonic
from eigensums.exactnum import DenominatorDivisibleByP, mod_reduce, primes_between
from eigensums.harmonic import (
    SizeGuard,
    harmonic_table,
    head_shifted_sum,
    nested_sum_bruteforce,
    restricted_power_sum,
    tail_shifted_sum,
    tail_weighted_sum,
    weighted_sum_S,
)
from eigensums.seqalg import BUILTIN_NAMES, SequenceSpec

from oracles import brute_variant, harmonic_by_enumeration, weighted_sums_exact

F = Fraction
STEP = SequenceSpec.builtin("step")
FIB = SequenceSpec.builtin("fibonacci")


def test_table_worked_examples():
    assert harmonic_by_enumeration(4, 1) == F(25, 12)
    assert harmonic_by_enumeration(4, 2) == F(35, 24)
    table = harmonic_table(5, 4, 1)
    assert table.value(4, 1).value == 0  # 25/12 mod 5
    assert table.value(4, 2).value == 0  # 35/24 mod 5
    for r in range(5):
        assert table.value(r, 0).value == 1


def test_table_matches_enumeration():
    for p, e in ((5, 1), (7, 3), (11, 2)):
        table = harmonic_table(p, min(p - 1, 4), e)
        for r in range(p):
            for j in range(min(p - 1, 4) + 1):
                want = mod_reduce(harmonic_by_enumeration(r, j), p, e)
                assert table.value(r, j) == want, (p, e, r, j)


def test_table_vanishes_above_diagonal():
    table = harmonic_table(7, 6, 2)
    for r in range(7):
        for j in range(r + 1, 7):
            assert table.value(r, j).value == 0


def test_table_preconditions():
    with pytest.raises(ValueError):
        harmonic_table(8, 2, 1)
    with pytest.raises(ValueError):
        harmonic_table(5, 5, 1)


def test_weighted_sum_worked_examples():
    assert weighted_sum_S(STEP, 1, 5, 3).value == 75
    assert weighted_sum_S(STEP, 2, 5, 3).value == 90
    assert weighted_sum_S(FIB, 2, 7, 1).value == 2


def test_weighted_sum_order_bounds():
    with pytest.raises(ValueError):
        weighted_sum_S(STEP, 0, 5, 1)
    with pytest.raises(ValueError):
        weighted_sum_S(STEP, 5, 5, 1)


def test_bruteforce_worked_examples():
    assert nested_sum_bruteforce(STEP, 2, 5) == F(35, 24)
    # single admissible tuple at maximal depth
    assert nested_sum_bruteforce(FIB, 4, 5) == F(1, factorial(4))
    # empty index set once the depth reaches p
    assert nested_sum_bruteforce(FIB, 5, 5) == 0


def test_bruteforce_guard():
    with pytest.raises(SizeGuard):
        nested_sum_bruteforce(STEP, 2, 37)
    with pytest.raises(SizeGuard):
        nested_sum_bruteforce(STEP, 6, 13)


def test_weighted_sum_matches_bruteforce_oracle():
    for name in ("step", "fibonacci", "legendre3_signed", "half_power"):
        spec = SequenceSpec.builtin(name)
        for p in (5, 7):
            for n in range(1, 4):
                for e in (1, 2):
                    want = mod_reduce(nested_sum_bruteforce(spec, n, p), p, e)
                    assert weighted_sum_S(spec, n, p, e) == want, (name, p, n, e)


def test_variant_sums_match_enum_oracle():
    cases = [
        (STEP, "minus_tail", tail_weighted_sum),
        (FIB, "minus_tail", tail_weighted_sum),
        (SequenceSpec.builtin("half_power"), "plus_head", head_shifted_sum),
        (SequenceSpec.builtin("weighted_catalan"), "plus_tail", tail_shifted_sum),
        (SequenceSpec.builtin("signed_bernoulli"), "plus_head", head_shifted_sum),
        (SequenceSpec.builtin("signed_bernoulli"), "plus_tail", tail_shifted_sum),
    ]
    for spec, variant, func in cases:
        for p in (5, 7, 11):
            for n in (1, 2, 3):
                want = mod_reduce(brute_variant(spec, n, p, variant), p, 1)
                assert func(spec, n, p, 1) == want, (spec.describe(), variant, p, n)


def test_step_sums_reduce_to_plain_harmonic():
    # with the step sequence every weight is 1, so the head- and
    # tail-weighted sums both collapse to H_{p-1}^(n)
    for p in (7, 11):
        for n in (1, 2, 3):
            want = mod_reduce(harmonic_by_enumeration(p - 1, n), p, 3)
            assert weighted_sum_S(STEP, n, p, 3) == want
            assert tail_weighted_sum(STEP, n, p, 3) == want


def test_undefined_terms_only_raise_when_touched():
    signed = SequenceSpec.builtin("signed_bernoulli")
    # depth 1 touches a_{p-1} = +-B_{p-1}, whose denominator p divides
    with pytest.raises(DenominatorDivisibleByP):
        weighted_sum_S(signed, 1, 5, 1)
    # depth 2 structurally avoids it and matches the exact enumeration
    want = mod_reduce(nested_sum_bruteforce(signed, 2, 5), 5, 1)
    assert weighted_sum_S(signed, 2, 5, 1) == want


def test_wolstenholme_vanishing_full_range():
    for p in primes_between(5, 199):
        table = harmonic_table(p, p - 2, 1)
        for n in range(1, p - 1):
            assert table.value(p - 1, n).value == 0, (p, n)


def test_restricted_power_sum_worked_examples():
    assert restricted_power_sum(7, 1, 1).value == 1
    assert restricted_power_sum(7, 1, 2).value == 4
    assert restricted_power_sum(7, 1, 0).value == 6
    with pytest.raises(ValueError):
        restricted_power_sum(5, 4, 1)
    with pytest.raises(ValueError):
        restricted_power_sum(7, 1, 6)


def test_restricted_classes_cover_full_power_sum():
    for p in primes_between(5, 31):
        for n in range(1, 5):
            if p <= max(n + 1, 3):
                continue
            total = sum(restricted_power_sum(p, n, r).value for r in range(6)) % p
            want = sum(pow(k, -n, p) for k in range(1, p)) % p
            assert total == want, (p, n)


SUMS = {
    "minus_head": weighted_sum_S,
    "minus_tail": tail_weighted_sum,
    "plus_head": head_shifted_sum,
    "plus_tail": tail_shifted_sum,
}
KERNEL_SEQUENCES = [SequenceSpec.builtin(name) for name in BUILTIN_NAMES] + [
    SequenceSpec.second_order(c, 1) for c in range(-3, 4)
]


@st.composite
def kernel_cells(draw):
    p = draw(st.sampled_from(primes_between(3, 200)))
    return (
        draw(st.sampled_from(KERNEL_SEQUENCES)),
        draw(st.integers(min_value=1, max_value=min(6, p - 2))),
        p,
        draw(st.integers(min_value=1, max_value=3)),
    )


@settings(max_examples=80, deadline=None)
@given(cell=kernel_cells())
@example(cell=(SequenceSpec.builtin("signed_bernoulli"), 1, 199, 3))
@example(cell=(SequenceSpec.builtin("signed_bernoulli"), 1, 3, 2))
@example(cell=(SequenceSpec.second_order(-3, 1), 6, 197, 3))
def test_sums_match_exact_row_oracle(cell):
    a, j, p, e = cell
    exact = weighted_sums_exact(a, j, p)
    for variant, func in SUMS.items():
        try:
            want = mod_reduce(exact[variant], p, e)
        except DenominatorDivisibleByP:
            with pytest.raises(DenominatorDivisibleByP):
                func(a, j, p, e)
        else:
            assert func(a, j, p, e) == want, (a.describe(), variant, j, p, e)


def test_sums_independent_of_evaluation_order():
    seqs = (FIB, SequenceSpec.builtin("half_power"), SequenceSpec.second_order(2, 1))
    cells = [
        (variant, a, j, p, e)
        for p in (29, 31)
        for j in range(1, 7)
        for e in (1, 2, 3)
        for a in seqs
        for variant in SUMS
    ]
    harmonic_table.cache_clear()
    harmonic._prime_store.cache_clear()
    ascending = {cell: SUMS[cell[0]](*cell[1:]) for cell in cells}
    kept_table = harmonic_table(29, 5, 3)
    # Alternate the prime at every cell, with depths descending and e
    # alternating, after dropping the views and the store the first pass
    # cached; the table kept above outlives its cache entry and its store.
    harmonic_table.cache_clear()
    harmonic._prime_store.cache_clear()
    interleaved = {}
    for j in range(6, 0, -1):
        for e in (3, 1, 2):
            for a in seqs:
                for variant in SUMS:
                    for p in (31, 29):
                        cell = (variant, a, j, p, e)
                        interleaved[cell] = SUMS[variant](a, j, p, e)
    assert interleaved == ascending
    assert kept_table.value(28, 5) == mod_reduce(harmonic_by_enumeration(28, 5), 29, 3)


def test_store_builds_each_row_once_under_threads(monkeypatch):
    # Eight threads start together with no store cached for the prime; one store
    # must be made and each of its depth rows appended exactly once.
    p, depth, workers = 1009, 8, 8
    seqs = (FIB, SequenceSpec.builtin("weighted_catalan"))
    cells = [(variant, a, j, e) for j in range(1, depth + 1) for e in (1, 3) for a in seqs for variant in SUMS]
    built = Counter()
    row_above = harmonic._PrimeStore._row_above

    def counted(store, below, reverse):
        rows = store.reverse if reverse else store.forward
        built[id(store), reverse, len(rows)] += 1
        return row_above(store, below, reverse)

    def evaluate(order):
        return {cell: SUMS[cell[0]](cell[1], cell[2], p, cell[3]) for cell in order}

    monkeypatch.setattr(harmonic._PrimeStore, "_row_above", counted)
    harmonic._prime_store.cache_clear()
    start = threading.Barrier(workers, timeout=60)
    results = [None] * workers

    def work(i):
        # each thread starts at its own cell; odd threads walk the depths downwards
        shift = i * len(cells) // workers
        order = cells[shift:] + cells[:shift]
        start.wait()
        results[i] = evaluate(order[::-1] if i % 2 else order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so row growth interleaves
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    (store,) = {key[0] for key in built}
    assert built == Counter((store, reverse, d) for reverse in (False, True) for d in range(1, depth))
    harmonic._prime_store.cache_clear()
    serial = evaluate(cells)
    assert all(result == serial for result in results)
