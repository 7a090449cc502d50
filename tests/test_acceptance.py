"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every congruence is exact, so the tolerance everywhere is zero residue
difference in the stated ring.  Run `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines as they complete.
"""

from fractions import Fraction
from time import perf_counter

from eigensums.bernoulli import (
    bernoulli_number,
    bernoulli_poly_eval,
    check_bernoulli_identities,
)
from eigensums.centralfact import (
    RationalMatrix,
    central_factorial_t,
    coefficient_matrix,
    row_reduce,
)
from eigensums.cli import main
from eigensums.congruence import (
    verify_S_parity,
    verify_corollary_1_2,
    verify_lemma_2_1,
    verify_lemma_3_1,
    verify_theorem_1_1,
    verify_theorem_3_2,
    verify_theorem_3_3,
)
from eigensums.exactnum import DenominatorDivisibleByP, mod_reduce, primes_between
from eigensums.harmonic import nested_sum_bruteforce, restricted_power_sum, weighted_sum_S
from eigensums.seqalg import BUILTIN_NAMES, EigenKind, SequenceSpec, classify_eigenspace

from oracles import staudt_clausen_denominator, theorem_3_2_half_range_odd

F = Fraction

MINUS_SET = ("step", "fibonacci", "legendre3_signed", "power2_alt")
PLUS_SET = ("half_power", "weighted_catalan", "signed_bernoulli")

ROSTER = {
    "half_power": EigenKind.PLUS,
    "lucas": EigenKind.PLUS,
    "signed_bernoulli": EigenKind.PLUS,
    "weighted_catalan": EigenKind.PLUS,
    "step": EigenKind.MINUS,
    "fibonacci": EigenKind.MINUS,
    "legendre3_signed": EigenKind.MINUS,
    "power2_alt": EigenKind.MINUS,
}


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")


def test_criterion_01_eigenspace_roster():
    start = perf_counter()
    got = {
        name: classify_eigenspace(SequenceSpec.builtin(name), 48)
        for name in BUILTIN_NAMES
    }
    elapsed = perf_counter() - start
    ok = got == ROSTER and elapsed < 5.0
    _line(1, ok, f"all eight builtins classify as listed at horizon 48 ({elapsed:.2f}s)")
    assert got == ROSTER
    assert elapsed < 5.0


def test_criterion_02_lemma_2_1_identity():
    specs = [SequenceSpec.builtin(name) for name in MINUS_SET]
    specs += [SequenceSpec.second_order(c, 1) for c in range(-3, 4)]
    bad = []
    for spec in specs:
        for m in range(0, 9):
            for n in range(0, 25):
                if not verify_lemma_2_1(spec, m, n).passed:
                    bad.append((spec.describe(), m, n))
    ok = not bad
    _line(2, ok, f"identity vanishes exactly for {len(specs)} sequences, m <= 8, n <= 24")
    assert not bad, bad[:5]


def test_criterion_03_theorem_1_1_grid():
    start = perf_counter()
    bad = []
    cells = 0
    for name in MINUS_SET:
        spec = SequenceSpec.builtin(name)
        for n in (1, 3, 5, 7):
            for p in primes_between(n + 2, 199):
                cells += 1
                if not verify_theorem_1_1(spec, n, p).passed:
                    bad.append((name, n, p))
    elapsed = perf_counter() - start
    ok = not bad and elapsed < 60.0
    _line(3, ok, f"mod p^3 congruence holds on all {cells} cells up to p = 199 ({elapsed:.1f}s)")
    assert not bad, bad[:5]
    assert elapsed < 60.0


def test_criterion_04_s_parity_chain():
    bad = []
    cells = 0
    for name in MINUS_SET:
        spec = SequenceSpec.builtin(name)
        for i in (1, 2, 3, 4):
            for p in primes_between(2 * i + 2, 199):
                cells += 1
                if not verify_S_parity(spec, i, p).passed:
                    bad.append((name, i, p))
    ok = not bad
    _line(4, ok, f"odd sums vanish mod p and chain to i*p*S_2i mod p^3 on {cells} cells")
    assert not bad, bad[:5]


def test_criterion_05_corollary_1_2():
    bad = []
    cells = 0
    for n in (1, 3, 5):
        for p in primes_between(n + 2, 101):
            for name in MINUS_SET:
                for variant in ("minus_head", "minus_tail"):
                    cells += 1
                    if not verify_corollary_1_2(SequenceSpec.builtin(name), n, p, variant).passed:
                        bad.append((name, n, p, variant))
            for name in PLUS_SET:
                for variant in ("plus_head", "plus_tail"):
                    cells += 1
                    if not verify_corollary_1_2(SequenceSpec.builtin(name), n, p, variant).passed:
                        bad.append((name, n, p, variant))
    ok = not bad
    _line(5, ok, f"all four vanishing variants hold mod p on {cells} cells up to p = 101")
    assert not bad, bad[:5]


def test_criterion_06_lemma_3_1_polynomials():
    bad = []
    cells = 0
    for n in range(1, 7):
        for p in primes_between(n + 2, 101):
            cells += 1
            if not verify_lemma_3_1(n, p).passed:
                bad.append((n, p))
    ok = not bad
    _line(6, ok, f"polynomial congruence holds coefficient-wise on {cells} cells")
    assert not bad, bad


def test_criterion_07_theorem_3_2_grid():
    # The verifier's guard p > n+1 admits p = n+2 for odd n, where the
    # exponent n+1 = p-1 degenerates the power sums and the congruence
    # genuinely fails at some cells.  Off that boundary every cell must
    # pass; on it both residues are checked against oracles that share no
    # table with the verifier, so a failure there is asserted, not assumed.
    bad = []
    boundary_mismatch = []
    cells = boundary_cells = 0
    for c in range(-3, 4):
        seq = SequenceSpec.second_order(c, 1)
        for n in range(1, 7):
            for p in primes_between(n + 2, 101):
                cells += 1
                r = verify_theorem_3_2(c, n, p)
                cell = (c, n, p, r.lhs.value, r.rhs.value, r.modulus)
                if not r.passed:
                    bad.append(cell)
                if n % 2 == 0 or p > n + 2:
                    continue
                boundary_cells += 1
                want_lhs = mod_reduce(nested_sum_bruteforce(seq, n, p), p, 2).value
                want_rhs = theorem_3_2_half_range_odd(seq, n, p)
                got = (r.lhs.value, r.rhs.value, r.modulus, r.passed)
                if got != (want_lhs, want_rhs, p * p, want_lhs == want_rhs):
                    boundary_mismatch.append((cell, want_lhs, want_rhs))
    spot1 = verify_theorem_3_2(1, 2, 7)
    spot2 = verify_theorem_3_2(-1, 2, 5)
    spots_ok = (
        spot1.passed and spot1.lhs.value == 2
        and spot2.passed and spot2.lhs.value == 2
    )
    off_boundary_bad = [cell for cell in bad if cell[1] % 2 == 0 or cell[2] > cell[1] + 2]
    counterexample = (1, 1, 3, 6, 3, 9)
    ok = (
        spots_ok
        and not off_boundary_bad
        and not boundary_mismatch
        and counterexample in bad
    )
    _line(
        7,
        ok,
        f"{cells - len(bad)}/{cells} cells pass; {len(bad)} failures, "
        f"{len(bad) - len(off_boundary_bad)} of them at the boundary p = n+2 with n odd; "
        f"{boundary_cells - len(boundary_mismatch)}/{boundary_cells} boundary cells "
        f"match the brute-force oracle (e.g. c=1, n=1, p=3: lhs 6 vs rhs 3 mod 9)",
    )
    assert spots_ok
    assert not off_boundary_bad, f"failures off the boundary (odd n, p = n+2): {off_boundary_bad}"
    assert not boundary_mismatch, f"boundary cells disagree with the oracles: {boundary_mismatch}"
    assert counterexample in bad, f"documented counterexample missing from failures: {bad}"


def test_criterion_08_theorem_3_3_grid():
    bad = []
    cells = 0
    for n in range(1, 7):
        for p in primes_between(max(n + 1, 3) + 1, 199):
            cells += 1
            if not verify_theorem_3_3(n, p).passed:
                bad.append((n, p))
    spot1 = verify_theorem_3_3(1, 5)
    spot2 = verify_theorem_3_3(2, 5)
    spots_ok = (
        (spot1.lhs.value, spot1.modulus) == (10, 25)
        and (spot2.lhs.value, spot2.modulus) == (2, 5)
    )
    ok = not bad and spots_ok
    _line(8, ok, f"Bernoulli-value congruence holds on all {cells} cells up to p = 199")
    assert not bad, bad[:5]
    assert spots_ok


FIRST_DISPLAY = [
    [1, -1, 1, -1, 1, -1, 1, -1],
    [3, -3, 9, -15, 33, -63, 129, -255],
    [5, -5, 35, -65, 275, -665, 2315, -6305],
    [7, -7, 91, -175, 1267, -3367, 18571, -58975],
    [9, -9, 189, -369, 4149, -11529, 94509, -325089],
]
SECOND_DISPLAY = [
    [1, -1, 1, -1, 1, -1, 1, -1],
    [0, 0, 1, -2, 5, -10, 21, -42],
    [0, 0, 0, 0, 1, -3, 14, -42],
    [0, 0, 0, 0, 0, 0, 1, -4],
    [0, 0, 0, 0, 0, 0, 0, 0],
]


def test_criterion_09_matrix_reproduction():
    matrix = coefficient_matrix(5, 8)
    ok_first = matrix == RationalMatrix.from_lists(FIRST_DISPLAY)
    ok_second = row_reduce(matrix) == RationalMatrix.from_lists(SECOND_DISPLAY)
    ok = ok_first and ok_second
    _line(9, ok, "5x8 coefficient matrix and its forward elimination match entry-for-entry")
    assert ok_first and ok_second


def test_criterion_10_triangle_structure():
    ok_vanish = all(
        central_factorial_t(i, 2 * j) == 0 for i in range(1, 13) for j in range(1, i)
    )
    ok_diag = all(central_factorial_t(i, 2 * i) == 1 for i in range(1, 13))
    reduced = row_reduce(coefficient_matrix(5, 8))
    ok_rows = True
    for i in range(1, 5):
        for col in range(1, 9):
            odd_col = col % 2 == 1
            j = (col + 1) // 2 if odd_col else col // 2
            want = F(0)
            if j >= i:
                t = central_factorial_t(i, 2 * j)
                want = t if odd_col else -i * t
            if reduced.entry(i, col) != want:
                ok_rows = False
    ok = ok_vanish and ok_diag and ok_rows
    _line(10, ok, "t(i,2j) vanishes for j < i <= 12, t(i,2i) = 1, reduced rows carry (t | -i*t)")
    assert ok_vanish and ok_diag and ok_rows


def test_criterion_11_oracle_equivalence():
    bad = []
    cells = 0
    for name in BUILTIN_NAMES:
        spec = SequenceSpec.builtin(name)
        for p in primes_between(2, 13):
            for n in range(1, min(5, p)):
                for e in (1, 2, 3):
                    cells += 1
                    exact = nested_sum_bruteforce(spec, n, p)
                    try:
                        want = mod_reduce(exact, p, e)
                    except DenominatorDivisibleByP:
                        want = "undefined"
                    try:
                        got = weighted_sum_S(spec, n, p, e)
                    except DenominatorDivisibleByP:
                        got = "undefined"
                    if got != want:
                        bad.append((name, p, n, e))
    ok = not bad
    _line(11, ok, f"table-based sums equal the brute-force oracle on all {cells} outcomes")
    assert not bad, bad[:5]


def test_criterion_12_bernoulli_suite():
    ok_values = (
        bernoulli_number(12) == F(-691, 2730)
        and all(bernoulli_number(m) == 0 for m in range(3, 31, 2))
        and all(
            bernoulli_number(m).denominator == staudt_clausen_denominator(m)
            for m in range(2, 31, 2)
        )
    )
    points = (F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3))
    ok_identities = all(
        check_bernoulli_identities(m, a, x)
        for m in range(31)
        for a in (2, 3, 6)
        for x in points
    )
    ok_special = True
    for m in range(3, 30, 2):
        third = bernoulli_poly_eval(m, F(1, 3))
        ok_special = ok_special and (
            bernoulli_poly_eval(m, F(0)) == 0
            and bernoulli_poly_eval(m, F(1, 2)) == 0
            and bernoulli_poly_eval(m, F(2, 3)) == -third
            and bernoulli_poly_eval(m, F(1, 6)) == (1 + F(2) ** (1 - m)) * third
        )
    ok = ok_values and ok_identities and ok_special
    _line(12, ok, "recurrence values, reflection/multiplication identities, odd special values")
    assert ok_values and ok_identities and ok_special


def test_criterion_13_restricted_sum_congruence():
    bad = []
    cells = 0
    for n in range(1, 5):
        for p in primes_between(max(n + 1, 3) + 1, 101):
            for r in range(6):
                cells += 1
                lhs = restricted_power_sum(p, n, r)
                near = bernoulli_poly_eval(p - n, F(r % 6, 6))
                far = bernoulli_poly_eval(p - n, F((r - p) % 6, 6))
                rhs = mod_reduce(F(1, n * 6**n) * (near - far), p, 1)
                if lhs != rhs:
                    bad.append((n, p, r))
    ok = not bad
    _line(13, ok, f"restricted power sums match the Bernoulli difference on {cells} cells")
    assert not bad, bad[:5]


def test_criterion_14_sweep_determinism(capsys):
    argv = [
        "sweep",
        "--theorem", "all",
        "--sequence", "step,fibonacci,half_power,signed_bernoulli",
        "--n", "1..3",
        "--primes", "5..13",
        "--format", "json",
    ]
    main(argv + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    main(argv + ["--jobs", "8"])
    out8 = capsys.readouterr().out
    ok = out1 == out8 and len(out1) > 0
    with capsys.disabled():
        _line(14, ok, "sweep output is byte-identical for --jobs 1 and --jobs 8")
    assert ok
