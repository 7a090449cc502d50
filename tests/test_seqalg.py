import sys
import threading
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensums import seqalg
from eigensums.bernoulli import bernoulli_numbers
from eigensums.exactnum import DenominatorDivisibleByP, mod_reduce, primes_between
from eigensums.seqalg import (
    BUILTIN_NAMES,
    EigenKind,
    SequenceSpec,
    binomial_transform_prefix,
    classify_eigenspace,
    classify_prefix,
)

from oracles import (
    ClosedFormData,
    ZeroCNegativeIndex,
    binom,
    binomial_transform_literal,
    eigen_kind_literal,
    legendre_symbol,
    second_order_terms,
    shift_weight_map,
)

F = Fraction


def test_transform_worked_examples():
    assert binomial_transform_prefix([F(1), F(1, 2), F(1, 4), F(1, 8)]) == [
        F(1), F(1, 2), F(1, 4), F(1, 8)
    ]
    assert binomial_transform_prefix([0, 1, 1, 2, 3]) == [0, -1, -1, -2, -3]
    assert binomial_transform_prefix([1, 0, 0, 0]) == [1, 1, 1, 1]


def test_generalized_binomial():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3  # (-2)(-3)/2
    with pytest.raises(ValueError):
        binom(4, -1)


EXPECTED_CLASS = {
    "step": EigenKind.MINUS,
    "fibonacci": EigenKind.MINUS,
    "legendre3_signed": EigenKind.MINUS,
    "power2_alt": EigenKind.MINUS,
    "half_power": EigenKind.PLUS,
    "lucas": EigenKind.PLUS,
    "signed_bernoulli": EigenKind.PLUS,
    "weighted_catalan": EigenKind.PLUS,
}


def test_builtin_roster_classifies_as_expected():
    for name in BUILTIN_NAMES:
        assert classify_eigenspace(SequenceSpec.builtin(name), 48) is EXPECTED_CLASS[name], name


def test_delta_sequence_is_neither():
    assert classify_prefix([1] + [0] * 8) is EigenKind.NEITHER


def test_builtin_first_terms():
    expect = {
        "step": [0, 1, 1, 1, 1, 1, 1, 1],
        "fibonacci": [0, 1, 1, 2, 3, 5, 8, 13],
        "lucas": [2, 1, 3, 4, 7, 11, 18, 29],
        "half_power": [F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32), F(1, 64), F(1, 128)],
        "signed_bernoulli": [1, F(1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0],
        "weighted_catalan": [1, F(1, 2), F(3, 8), F(5, 16), F(35, 128), F(63, 256), F(231, 1024), F(429, 2048)],
        "legendre3_signed": [0, 1, 1, 0, -1, -1, 0, 1],
        "power2_alt": [0, 3, 3, 9, 15, 33, 63, 129],
    }
    for name, first in expect.items():
        assert list(SequenceSpec.builtin(name).terms(7)) == [F(x) for x in first], name


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        SequenceSpec.builtin("catalan")


def test_shift_weight_map():
    half = SequenceSpec.builtin("half_power")
    mapped = shift_weight_map(half, 32)
    assert mapped[:4] == [F(0), F(1), F(1), F(3, 4)]
    assert classify_prefix(mapped) is EigenKind.MINUS

    signed = shift_weight_map(SequenceSpec.builtin("signed_bernoulli"), 32)
    assert classify_prefix(signed) is EigenKind.MINUS

    for name in BUILTIN_NAMES:
        assert shift_weight_map(SequenceSpec.builtin(name), 4)[0] == 0


def test_second_order_terms_worked_examples():
    assert second_order_terms(1, 1, 0, 7) == [0, 1, 1, 2, 3, 5, 8, 13]
    assert second_order_terms(-1, 1, 0, 7) == [0, 1, 1, 0, -1, -1, 0, 1]
    assert second_order_terms(1, 1, -2, -1) == [-1, 1]
    with pytest.raises(ZeroCNegativeIndex):
        second_order_terms(0, 1, -1, 3)


def test_second_order_negative_extension_satisfies_recurrence():
    for c in (-3, -2, -1, 1, 2, 3):
        window = second_order_terms(c, F(2, 3), -8, 16)
        # window[i] is a_{i-8}; the forward recurrence must hold across k=0 too
        for i in range(1, len(window) - 1):
            assert window[i + 1] == window[i] + c * window[i - 1], (c, i - 8)


def test_legendre3_signed_matches_recurrence():
    builtin = SequenceSpec.builtin("legendre3_signed").terms(48)
    recurrence = second_order_terms(-1, 1, 0, 48)
    assert list(builtin) == recurrence


def test_closed_form_reproduces_recurrence():
    for c in (-3, -2, -1, 1, 2, 3):
        cf = ClosedFormData.from_c(c)
        assert cf.delta == 1 + 4 * c
        window = second_order_terms(c, 1, -8, 16)
        for i, k in enumerate(range(-8, 17)):
            assert cf.term(k) == window[i], (c, k)
    # c = 0 degenerates to the step sequence for k >= 0
    cf0 = ClosedFormData.from_c(0)
    assert [cf0.term(k) for k in range(5)] == second_order_terms(0, 1, 0, 4)
    with pytest.raises(ZeroCNegativeIndex):
        cf0.term(-1)


@pytest.mark.parametrize(
    "spec",
    [SequenceSpec.second_order(c, a1) for c in range(-3, 4) for a1 in (1, F(2, 3))],
    ids=lambda s: s.describe(),
)
def test_second_order_terms_match_the_oracles(spec):
    """The terms thm-3.2 and the harmonic store read, against the oracle's
    own recurrence loop and, for a_1 = 1, the closed form in Q(sqrt(1+4c))."""
    terms = list(spec.terms(40))
    assert terms == second_order_terms(spec.c, spec.a1, 0, 40)
    if spec.a1 == 1:
        closed = ClosedFormData.from_c(spec.c)
        assert terms == [closed.term(k) for k in range(41)]


_prefixes = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=30), min_size=1, max_size=16
)


@settings(max_examples=60, deadline=None)
@given(a=_prefixes)
def test_transform_is_an_involution(a):
    assert binomial_transform_prefix(binomial_transform_prefix(a)) == [F(x) for x in a]


@settings(max_examples=60, deadline=None)
@given(a=_prefixes)
def test_eigenspace_decomposition(a):
    transformed = binomial_transform_prefix(a)
    plus_part = [(F(x) + t) / 2 for x, t in zip(a, transformed)]
    minus_part = [(F(x) - t) / 2 for x, t in zip(a, transformed)]
    assert binomial_transform_prefix(plus_part) == plus_part
    assert binomial_transform_prefix(minus_part) == [-x for x in minus_part]
    if any(plus_part):
        assert classify_prefix(plus_part) is EigenKind.PLUS
    if any(minus_part):
        assert classify_prefix(minus_part) is EigenKind.MINUS


@settings(max_examples=60, deadline=None)
@given(a=_prefixes)
def test_transform_matches_literal_sum(a):
    assert binomial_transform_prefix(a) == binomial_transform_literal(a)


@settings(max_examples=80, deadline=None)
@given(b=_prefixes, sign=st.sampled_from((1, -1)), data=st.data())
def test_classify_prefix_locates_a_perturbed_term(b, sign, data):
    # An eigen-prefix a = (b +- T(b))/2 with a_k moved by delta.  T(a')_k
    # moves by (-1)^k delta, so a' keeps a's sign up to length k+1 exactly
    # when (-1)^k is that sign, and T(a')_{k+1} moves by (k+1)(-1)^k delta,
    # so no longer prefix has it (the other sign is possible, as for
    # a = (0, 0, 1), a' = (0, 1, 1)).  One check filled with all of a'
    # answers every length like a fresh check of that prefix.
    kind = EigenKind.PLUS if sign == 1 else EigenKind.MINUS
    a = [(F(x) + sign * t) / 2 for x, t in zip(b, binomial_transform_literal(b))]
    k = data.draw(st.integers(0, len(a) - 1), label="k")
    a[k] += data.draw(st.fractions(-5, 5, max_denominator=7).filter(bool), label="delta")
    whole = seqalg._EigenCheck(a)
    for length in range(1, len(a) + 1):
        got = classify_prefix(a[:length])
        assert got is eigen_kind_literal(a[:length]) is whole.kind(length), length
        if length <= k or (length == k + 1 and (-1) ** k == sign):
            assert got is (kind if any(a[:length]) else EigenKind.PLUS), length
        else:
            assert got is not kind, length


_CHECKED_SPECS = [SequenceSpec.builtin(name) for name in BUILTIN_NAMES] + [
    SequenceSpec.second_order(c, a1) for c in range(-3, 4) for a1 in (F(1), F(2, 3))
]
_HORIZONS = (1, 2, 3, 7, 8, 20, 47, 48, 60)


@pytest.mark.parametrize(
    "horizons",
    [_HORIZONS, _HORIZONS[::-1], (8, 8, 48, 3, 48, 60, 1, 60, 20, 7, 2, 47, 8, 1)],
    ids=["ascending", "descending", "repeated"],
)
def test_shared_check_answers_like_a_fresh_one(horizons):
    seqalg._prefix.cache_clear()
    for h in horizons:
        for spec in _CHECKED_SPECS:
            assert classify_eigenspace(spec, h) is classify_prefix(spec.terms(h)), (spec.describe(), h)


def test_shared_check_pushes_each_term_once_under_threads(monkeypatch):
    # Eight threads start together with no check cached; each sequence must
    # get one check, and each of its terms must be pushed exactly once.
    specs, top, workers = _CHECKED_SPECS[:4], 120, 8
    cells = [(spec, h) for h in range(1, top + 1, 7) for spec in specs] + [(spec, top) for spec in specs]
    pushed = Counter()
    push = seqalg._EigenCheck.push

    def counted(check, term):
        pushed[id(check), len(check.edge)] += 1
        return push(check, term)

    monkeypatch.setattr(seqalg._EigenCheck, "push", counted)
    seqalg._prefix.cache_clear()
    start = threading.Barrier(workers, timeout=60)
    results = [None] * workers

    def work(i):
        # each thread starts at its own cell; odd threads walk the horizons downwards
        shift = i * len(cells) // workers
        order = cells[shift:] + cells[:shift]
        start.wait()
        results[i] = {cell: classify_eigenspace(*cell) for cell in (order[::-1] if i % 2 else order)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so extensions interleave
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    checks = {id(seqalg._prefix(spec).check) for spec in specs}
    assert pushed == Counter((check, i) for check in checks for i in range(top + 1))
    serial = {cell: classify_prefix(cell[0].terms(cell[1])) for cell in cells}
    assert all(result == serial for result in results)


@pytest.mark.parametrize("name", ["half_power", "weighted_catalan", "signed_bernoulli"])
def test_scaled_edge_matches_literal_transform_on_rational_builtins(name):
    # the edge is kept in ints over a common denominator that grows with the terms
    spec = SequenceSpec.builtin(name)
    terms = list(spec.terms(80))
    assert binomial_transform_prefix(terms) == binomial_transform_literal(terms)
    seqalg._prefix.cache_clear()
    for h in (1, 2, 9, 80):
        assert classify_eigenspace(spec, h) is eigen_kind_literal(terms[: h + 1]), h


def _fibonacci(k: int) -> int:
    """F_k for k >= -1, as the sum of a shallow diagonal of Pascal's triangle."""
    if k < 1:
        return {0: 0, -1: 1}[k]
    return sum(comb(k - 1 - j, j) for j in range(k // 2 + 1))


_CLOSED_FORMULAS = {
    "step": lambda k: int(k > 0),
    "fibonacci": _fibonacci,
    "lucas": lambda k: _fibonacci(k - 1) + _fibonacci(k + 1),
    "half_power": lambda k: F(1, 2**k),
    "signed_bernoulli": lambda k: (-1) ** k * bernoulli_numbers(k)[k],
    "weighted_catalan": lambda k: F(comb(2 * k, k), 4**k),
    "legendre3_signed": lambda k: (-1) ** (k - 1) * legendre_symbol(k, 3),
    "power2_alt": lambda k: 2**k - (-1) ** k,
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_terms_match_closed_formulas_in_any_order(name):
    assert set(_CLOSED_FORMULAS) == set(BUILTIN_NAMES)
    want = tuple(F(_CLOSED_FORMULAS[name](k)) for k in range(201))
    spec = SequenceSpec.builtin(name)
    seqalg._prefix.cache_clear()
    for n in [*range(200, -1, -1), *range(201)]:
        got = spec.terms(n)
        assert got == want[: n + 1] and all(type(t) is F for t in got), n


def _count_generated(monkeypatch, name: str) -> Counter:
    """Count the exact terms the builtin ``name`` generates from now on."""
    generated = Counter()
    source, terms_mod = seqalg._BUILTINS[name]

    def counted():
        for term in source():
            generated[name] += 1
            yield term

    monkeypatch.setitem(seqalg._BUILTINS, name, (counted, terms_mod))
    seqalg._prefix.cache_clear()
    return generated


def test_terms_generates_each_term_once_under_threads(monkeypatch):
    # Eight threads ask one sequence for prefixes of mixed lengths at once.
    generated, workers = _count_generated(monkeypatch, "weighted_catalan"), 8
    spec = SequenceSpec.builtin("weighted_catalan")
    horizons = [*range(0, 300, 13), 300]
    start = threading.Barrier(workers, timeout=60)
    results = [None] * workers

    def work(i):
        order = horizons[i:] + horizons[:i]
        start.wait()
        results[i] = {h: spec.terms(h) for h in (order[::-1] if i % 2 else order)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so extensions interleave
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert generated == Counter(weighted_catalan=301)
    want = tuple(F(_CLOSED_FORMULAS["weighted_catalan"](k)) for k in range(301))
    assert all(result == {h: want[: h + 1] for h in horizons} for result in results)


def _reduced_or_none(q: Fraction, p: int, e: int) -> int | None:
    try:
        return mod_reduce(q, p, e).value
    except DenominatorDivisibleByP:
        return None


_MOD_SPECS = [SequenceSpec.builtin(name) for name in BUILTIN_NAMES] + [
    SequenceSpec.second_order(c, a1) for c in range(-3, 4) for a1 in (F(1), F(1, 7))
]


@pytest.mark.parametrize("spec", _MOD_SPECS, ids=lambda s: s.describe())
def test_terms_mod_equals_reduced_exact_terms(spec):
    # a1 = 1/7 sends p = 7 through the exact fallback, where every term
    # but a_0 has 7 in its denominator
    for p in primes_between(2, 199):
        exact = spec.terms(p - 1)
        for e in (1, 2, 3):
            want = tuple(_reduced_or_none(t, p, e) for t in exact)
            assert spec.terms_mod(p, e) == want, (p, e)


@pytest.mark.parametrize("p", [211, 1009])
def test_signed_bernoulli_series_matches_exact_numbers(p):
    got = SequenceSpec.builtin("signed_bernoulli").terms_mod(p, 3)
    want = [_reduced_or_none((-1) ** k * b, p, 3) for k, b in enumerate(bernoulli_numbers(p - 1))]
    assert list(got) == want
    assert got[-1] is None and None not in got[:-1]


def test_terms_mod_guards():
    step = SequenceSpec.builtin("step")
    with pytest.raises(ValueError):
        step.terms_mod(9, 1)
    with pytest.raises(ValueError):
        step.terms_mod(5, 0)
