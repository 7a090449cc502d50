import random
from fractions import Fraction

import pytest

from eigensums import bernoulli, congruence, harmonic
from eigensums.bernoulli import bernoulli_poly_eval, bernoulli_times_p_mod_p2, bernoulli_value_mod
from eigensums.congruence import (
    EvenDepth,
    NotInvariantMinus,
    NotInvariantPlus,
    PrimeTooSmall,
    _bernoulli_side,
    _half_range_side,
    _mirror_coefficients,
    _polynomial_sides,
    lemma_2_1_sum,
    verify_S_parity,
    verify_corollary_1_2,
    verify_lemma_2_1,
    verify_lemma_3_1,
    verify_theorem_1_1,
    verify_theorem_3_2,
    verify_theorem_3_3,
)
from eigensums.exactnum import mod_reduce, primes_between
from eigensums.harmonic import (
    head_shifted_sum,
    nested_sum_bruteforce,
    tail_shifted_sum,
    tail_weighted_sum,
    weighted_sum_S,
)
from eigensums.seqalg import BUILTIN_NAMES, SequenceSpec

from oracles import (
    brute_variant,
    harmonic_rows_exact,
    legendre_symbol,
    lemma_2_1_sum_literal,
    lemma_3_1_mirror_exact,
    lemma_3_1_mirror_horner,
    lemma_3_1_sides_exact,
    theorem_3_2_half_range_even,
    theorem_3_2_half_range_fused,
    theorem_3_2_half_range_odd,
)

F = Fraction
STEP = SequenceSpec.builtin("step")
FIB = SequenceSpec.builtin("fibonacci")
LEG = SequenceSpec.builtin("legendre3_signed")
HALF = SequenceSpec.builtin("half_power")


# --- lemma 2.1 -------------------------------------------------------------

def test_lemma_2_1_hand_expansion():
    # (step, m=2, n=2): coefficients 2, -2, 9 against terms a2, a1, a0
    report = verify_lemma_2_1(STEP, 2, 2)
    assert report.passed and report.lhs == 0 and report.modulus is None
    assert lemma_2_1_sum(STEP, 2, 2) == 2 * 1 - 2 * 1 + 9 * 0


@pytest.mark.parametrize(
    "spec",
    [SequenceSpec.builtin(name) for name in BUILTIN_NAMES]
    + [SequenceSpec.second_order(c, a1) for c in range(-3, 4) for a1 in (1, F(1, 2))],
    ids=lambda s: s.describe(),
)
def test_lemma_2_1_sum_matches_literal_binomials(spec):
    # m = 0 and m = 1 put the rising product's start (m-1)n at or below 0
    for m in range(5):
        for n in range(61):
            assert lemma_2_1_sum(spec, m, n) == lemma_2_1_sum_literal(spec, m, n), (m, n)


def test_lemma_2_1_depth_zero_is_trivial():
    for spec in (STEP, FIB, LEG):
        assert verify_lemma_2_1(spec, 3, 0).passed  # single term 2*a_0 = 0


def test_lemma_2_1_fibonacci():
    report = verify_lemma_2_1(FIB, 3, 5)
    assert report.passed and report.lhs == 0


def test_lemma_2_1_reduced_reporting():
    report = verify_lemma_2_1(FIB, 2, 4, p=7)
    assert report.passed and report.modulus == 7
    assert report.lhs.value == 0 and report.params["p"] == 7


def test_lemma_2_1_rejects_plus_sequences():
    with pytest.raises(NotInvariantMinus):
        verify_lemma_2_1(HALF, 2, 2)


@pytest.mark.parametrize("horizon", [0, -5])
def test_lemma_2_1_rejects_explicit_bad_horizon(horizon):
    with pytest.raises(ValueError, match="horizon"):
        verify_lemma_2_1(STEP, 2, 2, horizon=horizon)


# --- theorem 1.1 -----------------------------------------------------------

def test_theorem_1_1_worked_example():
    report = verify_theorem_1_1(STEP, 1, 5)
    assert (report.lhs.value, report.rhs.value, report.modulus) == (75, 75, 125)
    assert report.passed


def test_theorem_1_1_against_bruteforce():
    for spec in (FIB, LEG):
        for n, p in ((1, 7), (3, 11)):
            report = verify_theorem_1_1(spec, n, p)
            assert report.passed
            lhs_oracle = mod_reduce(nested_sum_bruteforce(spec, n, p), p, 3)
            rhs_oracle = mod_reduce(
                F(p * (n + 1), 2) * nested_sum_bruteforce(spec, n + 1, p), p, 3
            )
            assert report.lhs == lhs_oracle and report.rhs == rhs_oracle


def test_theorem_1_1_guards():
    with pytest.raises(EvenDepth):
        verify_theorem_1_1(STEP, 2, 7)
    with pytest.raises(PrimeTooSmall):
        verify_theorem_1_1(STEP, 3, 3)
    with pytest.raises(NotInvariantMinus):
        verify_theorem_1_1(HALF, 1, 7)


# --- parity chain ----------------------------------------------------------

def test_s_parity_worked_example():
    report = verify_S_parity(STEP, 1, 5)
    assert report.passed
    assert report.lhs.value == 75
    assert report.rhs == mod_reduce(F(5) * F(35, 24), 5, 3)


def test_s_parity_against_bruteforce():
    report = verify_S_parity(LEG, 1, 7)
    assert report.passed
    assert report.lhs == mod_reduce(nested_sum_bruteforce(LEG, 1, 7), 7, 3)


def test_s_parity_guards():
    with pytest.raises(PrimeTooSmall):
        verify_S_parity(STEP, 2, 5)
    with pytest.raises(NotInvariantMinus):
        verify_S_parity(HALF, 1, 7)


# --- corollary 1.2 ---------------------------------------------------------

def test_corollary_worked_examples():
    r = verify_corollary_1_2(STEP, 1, 5, "minus_head")
    assert r.passed and r.lhs.value == 0  # H_4 = 25/12 = 0 mod 5
    r = verify_corollary_1_2(HALF, 1, 5, "plus_head")
    assert r.passed  # 15/8 = 0 mod 5
    r = verify_corollary_1_2(FIB, 3, 7, "minus_tail")
    assert r.passed


def test_corollary_lhs_matches_enumeration():
    cases = [
        (STEP, "minus_head"),
        (FIB, "minus_tail"),
        (HALF, "plus_head"),
        (SequenceSpec.builtin("weighted_catalan"), "plus_tail"),
    ]
    for spec, variant in cases:
        for n, p in ((1, 7), (3, 11)):
            report = verify_corollary_1_2(spec, n, p, variant)
            want = mod_reduce(brute_variant(spec, n, p, variant), p, 1)
            assert report.lhs == want and report.passed, (spec.describe(), variant, n, p)


def test_corollary_guards():
    with pytest.raises(NotInvariantPlus):
        verify_corollary_1_2(STEP, 1, 5, "plus_head")
    with pytest.raises(NotInvariantMinus):
        verify_corollary_1_2(HALF, 1, 5, "minus_head")
    with pytest.raises(EvenDepth):
        verify_corollary_1_2(STEP, 2, 7, "minus_head")
    with pytest.raises(PrimeTooSmall):
        verify_corollary_1_2(STEP, 3, 3, "minus_head")
    with pytest.raises(ValueError):
        verify_corollary_1_2(STEP, 1, 5, "sideways")


def test_theorem_1_1_implies_minus_head_vanishing():
    # the deeper-sum side carries an explicit factor p, so a thm-1.1 pass
    # forces the depth-n sum to vanish mod p
    for spec in (STEP, FIB):
        for n, p in ((1, 11), (3, 13)):
            assert verify_theorem_1_1(spec, n, p).passed
            assert verify_corollary_1_2(spec, n, p, "minus_head").passed


# --- lemma 3.1 -------------------------------------------------------------

def test_lemma_3_1_coefficient_spot_checks():
    report = verify_lemma_3_1(1, 5)
    assert report.passed
    gen, mirror = lemma_3_1_sides_exact(1, 5)
    # x^1 coefficient: 1 on the generating side, -4 = 1 mod 5 on the mirror side
    assert gen[1] == 1 and mirror[1] == -4
    # constant terms: 0 against the vanishing full harmonic sum
    assert gen[0] == 0 and mod_reduce(mirror[0], 5, 1).value == 0


def test_lemma_3_1_matches_exact_polynomial_oracle():
    for n, p in ((1, 5), (2, 7), (3, 11), (4, 13)):
        report = verify_lemma_3_1(n, p)
        gen, mirror = lemma_3_1_sides_exact(n, p)
        agree = all(
            mod_reduce(a, p, 1) == mod_reduce(b, p, 1) for a, b in zip(gen, mirror)
        )
        assert report.passed == agree
        assert report.passed, (n, p)


def test_lemma_3_1_mirror_side_matches_binomial_expansion():
    # the Taylor-shifted mirror side against the literal expansion of (1-x)^k
    for p in primes_between(3, 43):
        for n in range(1, p - 1):
            want = [mod_reduce(v, p, 1).value for v in lemma_3_1_mirror_exact(n, p)]
            assert _polynomial_sides(n, p)[1] == want, (n, p)


def test_lemma_3_1_generating_side_matches_exact_harmonic_rows():
    # the increments of the depth-n row against H_{k-1}^(n-1)/k from exact rows
    for p in primes_between(3, 43):
        rows = harmonic_rows_exact(p, p - 3)
        for n in range(1, p - 1):
            want = [0] + [mod_reduce(rows[n - 1][k - 1] / k, p, 1).value for k in range(1, p)]
            assert _polynomial_sides(n, p)[0] == want, (n, p)


def test_lemma_3_1_taylor_shift_matches_horner():
    # the one-product shift against the O(p^2) Horner shift it replaced
    for p in primes_between(3, 211):
        for n in range(1, p - 1):
            assert _mirror_coefficients(n, p) == lemma_3_1_mirror_horner(n, p), (n, p)


def test_weighted_sum_matches_mirror_oracle_at_large_primes():
    # By lemma 3.1, S_n = sum_k H_{k-1}^(n-1) a_{p-k} / k is m_k a_{p-k}
    # summed mod p, with the m_k from the Taylor shift: no harmonic row.
    cells = 0
    for p in (1009, 2003):
        for name in BUILTIN_NAMES:
            seq = SequenceSpec.builtin(name)
            terms = seq.terms_mod(p, 1)
            if None in terms:
                continue
            for n in range(1, 5):
                mirror = _mirror_coefficients(n, p)
                want = sum(mirror[k] * terms[p - k] for k in range(1, p)) % p
                assert weighted_sum_S(seq, n, p, 1).value == want, (name, n, p)
                cells += 1
    assert cells == 56  # every builtin but signed_bernoulli, whose a_{p-1} has p in its denominator


@pytest.mark.parametrize("p", [1009, 2003, 10007])
def test_step_sums_match_bernoulli_closed_forms_at_large_primes(p):
    # For step, S_n = H(1^n; p-1).  Odd n: S_n = -((n+1)/(2(n+2))) p^2 B_{p-n-2}
    # mod p^3 (n = 1 is Glaisher's H_{p-1} = -p^2 B_{p-3}/3); even n:
    # S_n = -p B_{p-n-1}/(n+1) mod p^2.  B_m mod p is a power sum, so the
    # right side touches no harmonic table.
    for n in range(1, 7):
        if n % 2:
            b = bernoulli_value_mod(p - n - 2, F(0), p).value
            want = p * p * (-(n + 1) * b * pow(2 * (n + 2), -1, p) % p)
            assert weighted_sum_S(STEP, n, p, 3).value == want, (n, p)
        else:
            b = bernoulli_value_mod(p - n - 1, F(0), p).value
            want = p * (-b * pow(n + 1, -1, p) % p)
            assert weighted_sum_S(STEP, n, p, 2).value == want, (n, p)


def test_lemma_3_1_guard():
    with pytest.raises(PrimeTooSmall):
        verify_lemma_3_1(4, 5)


# --- theorem 3.2 -----------------------------------------------------------

def test_theorem_3_2_spot_residues():
    r = verify_theorem_3_2(1, 2, 7)
    assert (r.lhs.value, r.rhs.value, r.modulus) == (2, 2, 7) and r.passed
    r = verify_theorem_3_2(-1, 2, 5)
    assert (r.lhs.value, r.rhs.value, r.modulus) == (2, 2, 5) and r.passed


def test_theorem_3_2_c_zero_degenerates_to_step():
    # a_k = a_1 for k >= 1, and the closed-form side is an empty sum
    r = verify_theorem_3_2(0, 1, 5)
    assert r.passed
    assert r.lhs == weighted_sum_S(STEP, 1, 5, 2)
    assert r.rhs.value == 0


def test_theorem_3_2_rhs_matches_exact_half_range_oracle():
    # includes the boundary cells p = n+2
    for c in range(-6, 7):
        seq = SequenceSpec.second_order(c, 1)
        for n in range(1, 7):
            oracle = theorem_3_2_half_range_odd if n % 2 else theorem_3_2_half_range_even
            for p in primes_between(n + 2, 101):
                assert verify_theorem_3_2(c, n, p).rhs.value == oracle(seq, n, p), (c, n, p)


def test_theorem_3_2_guard():
    with pytest.raises(PrimeTooSmall):
        verify_theorem_3_2(1, 4, 5)


def test_theorem_3_2_holds_beyond_the_degenerate_boundary():
    # For odd n the closed-form side is derived through the even case at
    # depth n+1, which needs p > n+2; away from p = n+2 everything holds.
    for c in range(-3, 4):
        for n in range(1, 7):
            lo = n + 3 if n % 2 == 1 else n + 2
            for p in primes_between(lo, 31):
                assert verify_theorem_3_2(c, n, p).passed, (c, n, p)


def test_theorem_3_2_boundary_counterexample_is_genuine():
    # (c=1, n=1, p=3): the nested sum is F_2/1 + F_1/2 = 3/2 = 6 mod 9,
    # while the stated closed-form side is -6 = 3 mod 9.  The exponent
    # n+1 = p-1 degenerates the power sums, so the stated hypothesis
    # p > n+1 is not sufficient at p = n+2 for odd n.
    report = verify_theorem_3_2(1, 1, 3)
    assert not report.passed
    assert (report.lhs.value, report.rhs.value, report.modulus) == (6, 3, 9)
    assert nested_sum_bruteforce(SequenceSpec.second_order(1, 1), 1, 3) == F(3, 2)


def test_theorem_3_2_boundary_residual_is_half_p_times_legendre_symbol():
    # At odd n with p = n+2 the two sides differ by (p/2)((1+4c)/p) mod p^2,
    # so a boundary cell passes exactly when p divides 1+4c.
    for p in primes_between(3, 61):
        n, mod = p - 2, p * p
        for c in range(-6, 7):
            report = verify_theorem_3_2(c, n, p)
            want = p * pow(2, -1, mod) * legendre_symbol(1 + 4 * c, p) % mod
            assert (report.lhs.value - report.rhs.value) % mod == want, (c, n, p)
            assert report.passed == ((1 + 4 * c) % p == 0), (c, n, p)


def test_large_prime_sides_never_build_exact_terms(monkeypatch):
    exact_terms = SequenceSpec.terms

    def capped(self, n_max):
        if n_max > 48:
            raise AssertionError(f"exact terms up to index {n_max} requested")
        return exact_terms(self, n_max)

    monkeypatch.setattr(SequenceSpec, "terms", capped)
    harmonic._PrimeStore._made.cache_clear()
    assert [(r.lhs.value, r.rhs.value) for r in (verify_theorem_3_2(2, n, 1009) for n in (1, 2))] == [
        (908100, 908100),
        (900, 900),
    ]
    catalan = SequenceSpec.builtin("weighted_catalan")
    # values recorded from the exact terms before they were reduced mod p^e
    assert [weighted_sum_S(catalan, j, 1009, 3).value for j in (1, 2, 3)] == [
        375945153,
        1015944947,
        960083883,
    ]
    for variant in ("plus_head", "plus_tail"):
        assert verify_corollary_1_2(catalan, 1, 1009, variant).passed


def test_theorem_3_2_rhs_matches_fused_loop_as_the_context_is_evicted():
    # shuffled cells at two primes, so the one-prime context is dropped and
    # rebuilt between cells, against the loop that keeps nothing
    cells = [(c, n, p) for p in (1009, 2003) for c in range(-3, 4) for n in range(1, 7)]
    random.Random(19).shuffle(cells)
    assert sum(a[2] != b[2] for a, b in zip(cells, cells[1:])) > len(cells) // 4
    congruence._ClosedForms._made.cache_clear()
    for c, n, p in cells:
        assert verify_theorem_3_2(c, n, p).rhs.value == theorem_3_2_half_range_fused(c, n, p), (c, n, p)


def test_closed_form_sides_never_read_the_harmonic_store(monkeypatch):
    # aim 3: the closed-form kernels run with the harmonic store unreachable
    p = 1009

    def sides():
        congruence._ClosedForms._made.cache_clear()
        return (
            [_half_range_side(c, n, p) for c in (-3, 0, 2) for n in range(1, 5)],
            [_bernoulli_side(n, p) for n in range(1, 5)],
            [_mirror_coefficients(n, p) for n in (1, 2)],
        )

    def refuse(*args, **kwargs):
        raise AssertionError("harmonic store reached")

    want = sides()
    monkeypatch.setattr(harmonic._PrimeStore, "at", refuse)
    assert sides() == want
    with pytest.raises(AssertionError, match="harmonic store reached"):
        verify_theorem_3_2(2, 1, p)  # the nested side does read it


def test_harmonic_sides_never_read_the_closed_form_context(monkeypatch):
    # aim 3, the converse: the four weighted sums and lemma 3.1's generating
    # side run with the closed-form context unreachable
    p = 1009
    seqs = (SequenceSpec.builtin("fibonacci"), SequenceSpec.builtin("weighted_catalan"))
    sums = (weighted_sum_S, tail_weighted_sum, head_shifted_sum, tail_shifted_sum)

    def sides():
        harmonic._PrimeStore._made.cache_clear()
        return (
            [f(a, n, p, e) for f in sums for a in seqs for n in range(1, 5) for e in (1, 3)],
            [_polynomial_sides(n, p)[0] for n in (1, 2)],
        )

    def refuse(*args, **kwargs):
        raise AssertionError("closed-form context reached")

    want = sides()
    monkeypatch.setattr(congruence, "_mirror_coefficients", lambda n, q: None)
    monkeypatch.setattr(congruence._ClosedForms, "at", refuse)
    assert sides() == want
    with pytest.raises(AssertionError, match="closed-form context reached"):
        verify_theorem_3_2(2, 1, p)  # the half-range side does read it


def test_the_two_contexts_share_no_entry():
    p = 1009
    congruence._ClosedForms._made.cache_clear()
    harmonic._PrimeStore._made.cache_clear()
    for n in range(1, 5):
        verify_theorem_3_2(2, n, p)
        verify_theorem_3_3(n, p)
        verify_lemma_3_1(n, p)
    store, forms = harmonic._PrimeStore.at(p), congruence._ClosedForms.at(p)

    def held(context):
        values = list(context._entries.values())
        values += [part for v in values if isinstance(v, tuple) for part in v if isinstance(part, list)]
        return {id(v) for v in values}

    assert store is not forms and store._entries and forms._entries
    assert not held(store) & held(forms)
    assert not {id(row) for row in store.forward + store.reverse} & held(forms)


def test_closed_form_context_holds_each_table_once_mod_p_cubed():
    # one modulus for every table: the depths and exponents of thm-3.2 and
    # lemma 3.1 share one inverse and one factorial table, and n = 1, 2 (and
    # n = 3, 4) share one power vector
    p = 1009
    congruence._ClosedForms._made.cache_clear()
    for n in range(1, 5):
        verify_theorem_3_2(2, n, p)
        verify_lemma_3_1(n, p)
    forms = congruence._ClosedForms.at(p)
    assert forms.modulus == p**3
    assert set(forms._entries) == {("weights", 2), ("inverses",), ("factorials",), ("powers", 2), ("powers", 4)}
    values = list(forms._entries.values())
    ints = [x for v in values for part in (v if isinstance(v, tuple) else (v,)) for x in part]
    assert len(ints) == 3 * (p - 1) // 2 + 3 * p
    assert all(type(x) is int and 0 <= x < p**3 for x in ints)


def test_theorem_3_2_scaling_equivariance():
    # multiplying a_1 by a unit rational scales both sides linearly
    lam = F(3, 4)
    for c, n, p, e in ((2, 2, 11, 1), (-2, 1, 11, 2)):
        base = SequenceSpec.second_order(c, 1)
        scaled = SequenceSpec.second_order(c, lam)
        scale = mod_reduce(lam, p, e)
        assert weighted_sum_S(scaled, n, p, e) == scale * weighted_sum_S(base, n, p, e)
        power = n + 1 if n % 2 else n
        factor = F(-p * (n + 1)) if n % 2 else F(-2)
        rhs = [
            mod_reduce(
                factor
                * sum(
                    F(c**k) * spec.terms(p - 1)[p - 2 * k] / F(k**power)
                    for k in range(1, (p - 1) // 2 + 1)
                ),
                p,
                e,
            )
            for spec in (base, scaled)
        ]
        assert rhs[1] == scale * rhs[0]


# --- theorem 3.3 -----------------------------------------------------------

def test_theorem_3_3_spot_residues():
    r = verify_theorem_3_3(1, 5)
    assert (r.lhs.value, r.rhs.value, r.modulus) == (10, 10, 25) and r.passed
    r = verify_theorem_3_3(2, 5)
    assert (r.lhs.value, r.rhs.value, r.modulus) == (2, 2, 5) and r.passed


def test_theorem_3_3_exact_sides_of_worked_example():
    # lhs sums to -5/12 and the Bernoulli side to -5/162; both reduce to 10
    seq = LEG.terms(4)
    lhs_exact = sum(seq[5 - k] / F(k) for k in range(1, 5))
    assert lhs_exact == F(-5, 12)
    assert mod_reduce(lhs_exact, 5, 2).value == 10
    assert mod_reduce(F(-5, 162), 5, 2).value == 10


def test_theorem_3_3_rhs_matches_exact_bernoulli_formula():
    third = F(1, 3)
    for n in range(1, 7):
        for p in primes_between(max(n + 2, 5), 199):
            if n % 2:
                exact = -F(2 ** (n + 1) + 2, 6 ** (n + 1)) * p * bernoulli_poly_eval(p - n - 1, third)
            else:
                exact = -F(2 ** (n + 1) + 4, n * 6**n) * bernoulli_poly_eval(p - n, third)
            report = verify_theorem_3_3(n, p)
            assert report.rhs == mod_reduce(exact, p, 2 if n % 2 else 1), (n, p)


def test_theorem_3_3_never_reaches_the_exact_bernoulli_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact Bernoulli path reached")

    for name in ("bernoulli_numbers", "bernoulli_poly_eval"):
        monkeypatch.setattr(bernoulli, name, refuse)
        monkeypatch.setattr(congruence, name, refuse, raising=False)
    for n in range(1, 5):
        assert verify_theorem_3_3(n, 1009).passed, n


def test_theorem_3_3_shares_each_power_sum_between_depths(monkeypatch):
    # n = 1, 2 read p B_{p-2}(1/3) and n = 3, 4 read p B_{p-4}(1/3)
    p, third, calls = 1009, F(1, 3), []

    def counted(m, x, q):
        calls.append(m)
        return bernoulli_times_p_mod_p2(m, x, q)

    want = []
    for n in range(1, 5):
        if n % 2:
            scale = -F(2 ** (n + 1) + 2, 6 ** (n + 1))
            want.append(mod_reduce(scale, p, 2) * bernoulli_times_p_mod_p2(p - n - 1, third, p))
        else:
            scale = -F(2 ** (n + 1) + 4, n * 6**n)
            want.append(mod_reduce(scale, p, 1) * bernoulli_value_mod(p - n, third, p))
    monkeypatch.setattr(congruence, "bernoulli_times_p_mod_p2", counted)
    congruence._ClosedForms._made.cache_clear()
    assert [verify_theorem_3_3(n, p).rhs for n in range(1, 5)] == want
    assert calls == [p - 2, p - 4]


def test_theorem_3_3_guard():
    with pytest.raises(PrimeTooSmall):
        verify_theorem_3_3(4, 5)
    with pytest.raises(PrimeTooSmall):
        verify_theorem_3_3(1, 3)  # p must exceed max(n+1, 3)


def test_theorem_3_3_lhs_uses_proof_sign_convention():
    # the weight (-1)^(p-k) (k|3) equals the builtin for every odd p
    for p in (5, 7, 11):
        terms = LEG.terms(p - 1)
        explicit = [F((-1) ** (p - k) * (0, 1, -1)[k % 3]) for k in range(p)]
        assert list(terms) == explicit


def test_theorem_3_3_consistent_with_theorem_3_2():
    # at c = -1 the closed-form sides of the two results agree wherever
    # both congruences apply (p > n+2 keeps odd depths off the boundary)
    for n in range(1, 5):
        lo = max(n + 3, 5) if n % 2 else max(n + 2, 4)
        for p in primes_between(lo, 23):
            r32 = verify_theorem_3_2(-1, n, p)
            r33 = verify_theorem_3_3(n, p)
            assert r32.passed and r33.passed
            assert r32.rhs == r33.rhs, (n, p)


# --- verifier lhs vs brute force everywhere --------------------------------

def test_every_verifier_lhs_agrees_with_bruteforce():
    for spec in (STEP, FIB, LEG):
        for n, p in ((1, 5), (1, 7), (3, 11)):
            want3 = mod_reduce(nested_sum_bruteforce(spec, n, p), p, 3)
            assert verify_theorem_1_1(spec, n, p).lhs == want3
            want1 = want3.reduce_exponent(1)
            assert verify_corollary_1_2(spec, n, p, "minus_head").lhs == want1
    for n, p in ((1, 5), (2, 7), (3, 11)):
        e = 2 if n % 2 else 1
        want = mod_reduce(nested_sum_bruteforce(SequenceSpec.second_order(-1, 1), n, p), p, e)
        assert verify_theorem_3_2(-1, n, p).lhs == want
        assert verify_theorem_3_3(n, p).lhs == want


def test_second_order_distinct_c_values_give_distinct_reports():
    reports = {verify_theorem_3_2(c, 2, 11).sequence for c in range(-3, 4)}
    assert len(reports) == 7
