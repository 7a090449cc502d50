import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from eigensums import cli, congruence, seqalg
from eigensums.cli import (
    _THEOREMS,
    THEOREM_IDS,
    ConfigInvalid,
    SweepConfig,
    _Cell,
    _run_cell,
    emit_report,
    main,
    parse_reports,
    run_sweep,
)
from eigensums.congruence import CongruenceReport, verify_theorem_3_3
from eigensums.exactnum import MAX_PRIME, Residue
from eigensums.seqalg import DEFAULT_HORIZON, SequenceSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_cell_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm-1.1", "--sequence", "step",
        "--n", "1", "--p", "5", "--format", "json",
    )
    assert code == 0
    (obj,) = json.loads(out)
    assert obj["theorem"] == "thm-1.1"
    assert obj["params"] == {"n": "1", "p": "5", "e": "3"}
    assert obj["lhs"] == obj["rhs"] == "75"
    assert obj["modulus"] == "125"
    assert obj["pass"] is True


def test_verify_failing_cell_exits_one(capsys):
    # the degenerate boundary cell is a genuine failing congruence
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm-3.2", "--c", "1", "--n", "1", "--p", "3",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_lemma_2_1_exact_mode(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "lemma-2.1", "--sequence", "fibonacci", "--n", "6", "--m", "3")
    assert code == 0
    assert "exact" in out and "PASS" in out


def test_text_params_follow_the_csv_column_order(capsys):
    argv = ["verify", "--theorem", "lemma-2.1", "--sequence", "fibonacci", "--n", "6", "--m", "3", "--p", "7"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and " n=6 p=7 e=1 m=3 " in out
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert out.splitlines()[1] == "lemma-2.1,fibonacci,6,7,1,,3,,0,0,7,true"


def test_sweep_thm_1_1_two_primes(capsys):
    code, out, _ = run(
        capsys, "sweep", "--theorem", "thm-1.1", "--sequence", "step",
        "--n", "1..1", "--primes", "5..7", "--format", "json",
    )
    assert code == 0
    reports, meta = parse_reports(out)
    assert len(reports) == 2
    assert all(r.passed for r in reports)
    assert [r.params["p"] for r in reports] == [5, 7]
    assert meta["skipped"] == "0"


def test_sweep_thm_3_3_expected_residues(capsys):
    code, out, _ = run(
        capsys, "sweep", "--theorem", "thm-3.3", "--n", "1..2",
        "--primes", "5..5", "--format", "json",
    )
    assert code == 0
    reports, _ = parse_reports(out)
    assert [(str(r.lhs.value), str(r.modulus)) for r in reports] == [("10", "25"), ("2", "5")]


def test_sweep_counts_skipped_cells(capsys):
    # plus sequences are hypothesis violations for thm-1.1, as are even depths
    code, out, _ = run(
        capsys, "sweep", "--theorem", "thm-1.1", "--sequence", "step,lucas",
        "--n", "1..2", "--primes", "5..7", "--format", "json",
    )
    assert code == 0
    reports, meta = parse_reports(out)
    assert len(reports) == 2  # step at n=1, two primes
    assert meta["skipped"] == "6"
    # parity is checked before the eigenspace, so lucas at n=2 counts as EvenDepth
    assert meta["skip_reasons"] == {"EvenDepth": "4", "NotInvariantMinus": "2"}


def test_sweep_empty_prime_range_is_config_error(capsys):
    code, _, err = run(capsys, "sweep", "--theorem", "thm-1.1", "--primes", "24..28")
    assert code == 2
    assert "no primes" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "verify", "--theorem", "nope", "--p", "5")[0] == 2
    assert run(capsys, "verify", "--theorem", "thm-1.1")[0] == 2  # missing --p
    assert run(capsys, "verify", "--theorem", "cor-1.2", "--p", "5")[0] == 2  # missing --variant
    assert run(capsys, "sweep", "--theorem", "bogus", "--primes", "5..7")[0] == 2
    assert run(capsys, "sweep", "--theorem", "thm-1.1", "--primes", "5..x")[0] == 2


def test_json_round_trip_exact_and_residue_reports():
    config = SweepConfig(
        theorems=("lemma-2.1", "thm-1.1", "cor-1.2"),
        sequences=("step", "fibonacci", "half_power"),
        n_range=(1, 3),
        prime_range=(5, 11),
    )
    result = run_sweep(config)
    blob = emit_report(result.reports, "json", meta=result.meta())
    parsed, meta = parse_reports(blob)
    assert parsed == result.reports
    assert meta == result.meta()


def test_csv_and_text_formats():
    report = verify_theorem_3_3(1, 5)
    csv_blob = emit_report([report], "csv").decode()
    lines = csv_blob.strip().splitlines()
    assert lines[0] == "theorem,sequence,n,p,e,c,m,variant,lhs,rhs,modulus,pass"
    assert lines[1] == "thm-3.3,legendre3_signed,1,5,2,,,,10,10,25,true"
    text_blob = emit_report([report], "text").decode()
    assert "PASS" in text_blob and "thm-3.3" in text_blob
    assert emit_report([], "json") == b"[]\n"
    assert emit_report([], "csv").decode().strip() == "theorem,sequence,n,p,e,c,m,variant,lhs,rhs,modulus,pass"


def test_exit_code_one_surfaces_failures(capsys):
    # sweeping the degenerate boundary cell must flag the run as failing
    code, out, _ = run(
        capsys, "sweep", "--theorem", "thm-3.2", "--c", "1", "--n", "1..1",
        "--primes", "3..3", "--format", "text",
    )
    assert code == 1
    assert "FAIL" in out


def test_sweep_deterministic_across_jobs(capsys):
    argv = [
        "sweep", "--theorem", "thm-1.1,s-parity,cor-1.2", "--sequence",
        "step,fibonacci,half_power", "--n", "1..3", "--primes", "5..13",
        "--format", "json",
    ]
    _, out1, _ = run(capsys, *argv, "--jobs", "1")
    _, out8, _ = run(capsys, *argv, "--jobs", "8")
    assert out1 == out8


def test_matrix_command(capsys):
    code, out, _ = run(capsys, "matrix", "--rows", "5", "--cols", "8")
    assert code == 0
    assert "coefficient matrix:" in out and "row reduced:" in out
    assert "94509" in out  # bottom-left block of the raw matrix
    assert "\n0   0  1  -2  5  -10  21  -42\n" in out


def test_classify_and_transform_commands(capsys):
    code, out, _ = run(capsys, "classify", "--sequence", "fibonacci")
    assert code == 0 and out == "fibonacci: minus (horizon 48)\n"
    code, out, _ = run(capsys, "transform", "--sequence", "half_power", "--horizon", "3")
    assert code == 0 and out == "1 1/2 1/4 1/8\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--sequence", "fibonacci", "--horizon=-1"],
        ["classify", "--sequence", "nope"],
        ["transform", "--sequence", "half_power", "--horizon=-1"],
        ["transform", "--sequence", "nope"],
        ["matrix", "--rows", "0"],
        ["matrix", "--cols=-2"],
        ["classify", "--sequence", "fibonacci", "--horizon", "3000"],
        ["transform", "--sequence", "step", "--horizon", "3000"],
        ["matrix", "--rows", "400", "--cols", "400"],
        ["matrix", "--cols", "101"],
        ["transform", "--sequence", "step", "--horizon", "-3"],
    ],
)
def test_bad_classify_transform_matrix_inputs_give_one_error_line(capsys, argv):
    # an unknown --sequence is refused by argparse, which prints its usage
    # lines before the one error line
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert err.splitlines()[-1].count("error:") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "transform"])
def test_negative_horizon_is_config_error(capsys, command):
    code, out, err = run(capsys, command, "--sequence", "fibonacci", "--horizon", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: --horizon -1") and err.count("\n") == 1


@pytest.mark.parametrize(
    "bad",
    [
        ["--m", "-1"],
        ["--jobs", "0"],
        ["--horizon", "0"],
        ["--n", "2..1"],
        ["--primes", "1..1"],
        ["--horizon", "501"],
        ["--n", "1..501"],
    ],
)
def test_bad_sweep_inputs_give_one_error_line(capsys, bad):
    base = ["sweep", "--theorem", "lemma-2.1", "--sequence", "step", "--n", "1..2", "--primes", "5..7"]
    code, out, err = run(capsys, *base, *bad)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


_LEMMA_2_1 = ["--theorem", "lemma-2.1", "--sequence", "step", "--n", "2"]
_THM_3_3 = ["--theorem", "thm-3.3", "--n", "1", "--p", "7"]


@pytest.mark.parametrize(
    "bad",
    [
        [*_LEMMA_2_1, "--horizon", "0"],
        [*_LEMMA_2_1, "--horizon", "-5"],
        [*_LEMMA_2_1, "--m", "-1"],
        [*_LEMMA_2_1, "--p", "9"],
        [*_THM_3_3, "--m", "5"],
        [*_THM_3_3, "--horizon", "3"],
        [*_LEMMA_2_1, "--horizon", "501"],
        [*_LEMMA_2_1, "--n", "3000"],
        [*_LEMMA_2_1, "--n", "-1"],
    ],
)
def test_bad_verify_inputs_give_one_error_line(capsys, bad):
    code, out, err = run(capsys, "verify", *bad)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_refusals_name_the_value_that_is_wrong(capsys):
    assert run(capsys, "verify", *_LEMMA_2_1, "--n", "-1") == (2, "", "error: n must be >= 0, got -1\n")
    assert run(capsys, "transform", "--sequence", "step", "--horizon", "-3") == (
        2, "", "error: --horizon -3: must be >= 0\n"
    )


def test_negative_range_after_flag_matches_equals_form(capsys):
    base = ["sweep", "--theorem", "thm-3.2", "--n", "1..2", "--primes", "5..7", "--format", "json"]
    spaced = run(capsys, *base, "--c", "-3..3")
    assert spaced == run(capsys, *base, "--c=-3..3")
    code, out, _ = spaced
    assert code == 0
    assert sorted({r.params["c"] for r in parse_reports(out)[0]}) == [-3, -2, -1, 0, 1, 2, 3]
    single = ["verify", "--theorem", "thm-3.2", "--n", "1", "--p", "7"]
    assert run(capsys, *single, "--c", "-3") == run(capsys, *single, "--c=-3")


# Theorem id -> (verify flags, sweep flags) naming the same cell; the sweep
# of cor-1.2 also yields the other admissible variants.
_ONE_CELL = {
    "lemma-2.1": (["--sequence", "fibonacci", "--n", "3", "--m", "3"],
                  ["--sequence", "fibonacci", "--n", "3..3", "--m", "3", "--primes", "5..5"]),
    "thm-1.1": (["--sequence", "step", "--n", "3", "--p", "11"],
                ["--sequence", "step", "--n", "3..3", "--primes", "11..11"]),
    "s-parity": (["--sequence", "fibonacci", "--n", "2", "--p", "7"],
                 ["--sequence", "fibonacci", "--n", "2..2", "--primes", "7..7"]),
    "cor-1.2": (["--sequence", "half_power", "--n", "1", "--p", "7", "--variant", "plus_tail"],
                ["--sequence", "half_power", "--n", "1..1", "--primes", "7..7"]),
    "lemma-3.1": (["--n", "2", "--p", "7"], ["--n", "2..2", "--primes", "7..7"]),
    "thm-3.2": (["--c", "-2", "--n", "1", "--p", "7"], ["--c", "-2", "--n", "1..1", "--primes", "7..7"]),
    "thm-3.3": (["--n", "2", "--p", "7"], ["--n", "2..2", "--primes", "7..7"]),
}


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_matches_one_cell_sweep(capsys, theorem):
    verify_flags, sweep_flags = _ONE_CELL[theorem]
    code, out, _ = run(capsys, "verify", "--theorem", theorem, *verify_flags, "--format", "json")
    verified, _ = parse_reports(out)
    assert code == 0 and len(verified) == 1
    code, out, _ = run(capsys, "sweep", "--theorem", theorem, *sweep_flags, "--format", "json")
    swept, _ = parse_reports(out)
    assert code == 0
    variant = verified[0].params.get("variant")
    assert [r for r in swept if r.params.get("variant") == variant] == verified


def test_every_verifier_has_a_theorem_entry():
    verifiers = {name for name in congruence.__all__ if name.startswith("verify_")}
    called = {
        name for _, run_one in _THEOREMS.values() for name in run_one.__code__.co_names
        if name.startswith("verify_")
    }
    assert called == verifiers
    assert set(_ONE_CELL) == set(THEOREM_IDS)


# Recorded before the theorem table and the shared report constructor were
# introduced: per-theorem cell and skip accounting of a small grid, and one
# text row per theorem (params print in each verifier's own key order).
_SKIP_GRID = ["--sequence", "step,half_power,signed_bernoulli", "--n", "1..4", "--primes", "5..13", "--c=-3..3"]
_SKIP_ACCOUNTING = {
    "lemma-2.1": ("12", "4", {"NotInvariantMinus": "8"}),
    "thm-1.1": ("48", "8", {"EvenDepth": "24", "NotInvariantMinus": "16"}),
    "s-parity": ("48", "11", {"NotInvariantMinus": "22", "PrimeTooSmall": "15"}),
    "cor-1.2": ("192", "48", {"EvenDepth": "96", "NotInvariantMinus": "32", "NotInvariantPlus": "16"}),
    "lemma-3.1": ("16", "15", {"PrimeTooSmall": "1"}),
    "thm-3.2": ("112", "105", {"PrimeTooSmall": "7"}),
    "thm-3.3": ("16", "15", {"PrimeTooSmall": "1"}),
}
_TEXT_ROWS = [
    "lemma-2.1  step                     n=1 m=2                          0     0     exact    PASS",
    "thm-1.1    step                     n=1 p=5 e=3                      75    75    125      PASS",
    "s-parity   step                     n=1 p=5 e=3                      75    75    125      PASS",
    "cor-1.2    half_power               n=1 p=5 e=1 variant=plus_head    0     0     5        PASS",
    "lemma-3.1  -                        n=1 p=5 e=1                      0     0     5        PASS",
    "thm-3.2    second_order(c=-1,a1=1)  n=1 p=5 e=2 c=-1                 10    10    25       PASS",
    "thm-3.3    legendre3_signed         n=1 p=5 e=2                      10    10    25       PASS",
]


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_skip_accounting_per_theorem(capsys, theorem):
    _, out, _ = run(capsys, "sweep", "--theorem", theorem, *_SKIP_GRID, "--format", "json")
    _, meta = parse_reports(out)
    assert (meta["cells"], meta["reports"], meta["skip_reasons"]) == _SKIP_ACCOUNTING[theorem]


def test_skip_grid_text_rows_and_totals(capsys):
    code, out, _ = run(capsys, "sweep", "--theorem", "all", *_SKIP_GRID, "--format", "text")
    assert code == 1  # six thm-3.2 cells at the p = n+2 boundary
    lines = out.splitlines()
    assert [next(line for line in lines if line.startswith(t + " ")) for t in THEOREM_IDS] == _TEXT_ROWS
    assert lines[-1] == (
        "cells=444 reports=206 passed=200 failed=6 skipped=238 "
        "(EvenDepth=120, NotInvariantMinus=78, NotInvariantPlus=16, PrimeTooSmall=24)"
    )


def test_denominator_divisible_by_p_is_a_skip():
    # no builtin sequence reaches this guard in a sweep; a1 = 1/7 does at p = 7
    seq = SequenceSpec.second_order(1, Fraction(1, 7))
    assert _run_cell(_Cell("thm-1.1", sequence=seq, n=1, p=7)) == "DenominatorDivisibleByP"


def test_report_dataclass_equality_includes_params():
    a = CongruenceReport("x", "s", {"n": 1}, Residue(0, 5), Residue(0, 5), 5, True)
    b = CongruenceReport("x", "s", {"n": 1}, Residue(0, 5), Residue(0, 5), 5, True)
    c = CongruenceReport("x", "s", {"n": 2}, Residue(0, 5), Residue(0, 5), 5, True)
    assert a == b and a != c


def test_run_sweep_validates_config():
    with pytest.raises(ConfigInvalid):
        run_sweep(SweepConfig(theorems=(), sequences=("step",), n_range=(1, 2), prime_range=(5, 7)))
    with pytest.raises(ConfigInvalid):
        run_sweep(SweepConfig(theorems=("thm-1.1",), sequences=("step",), n_range=(2, 1), prime_range=(5, 7)))
    with pytest.raises(ConfigInvalid):
        run_sweep(SweepConfig(theorems=("thm-1.1",), sequences=("step",), n_range=(1, 2), prime_range=(1, 7)))


def test_verify_refuses_flags_the_theorem_does_not_read(capsys):
    code, out, err = run(
        capsys, "verify", "--theorem", "thm-3.3", "--sequence", "fibonacci", "--c", "5",
        "--variant", "plus_head", "--n", "1", "--p", "7",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --") and "thm-3.3" in err and err.count("\n") == 1


_AXIS_FLAGS = {"sequence": ["--sequence", "fibonacci"], "c": ["--c", "5"], "variant": ["--variant", "plus_head"]}


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_reads_exactly_its_axis_flags(capsys, theorem):
    verify_flags = _ONE_CELL[theorem][0]
    assert run(capsys, "verify", "--theorem", theorem, *verify_flags)[0] == 0
    axes = _THEOREMS[theorem][0]
    for flag, extra in _AXIS_FLAGS.items():
        if flag in axes:
            continue
        code, out, err = run(capsys, "verify", "--theorem", theorem, *verify_flags, *extra)
        assert code == 2 and out == "", flag
        assert err == f"error: --{flag} is not read by {theorem}\n"


# The theorems that read --m (a grid axis of lemma-2.1 alone) and --horizon
# (read by every theorem with a sequence axis).
_NON_AXIS_FLAGS = {
    "m": (["--m", "5"], {"lemma-2.1"}),
    "horizon": (["--horizon", "60"], {"lemma-2.1", "thm-1.1", "s-parity", "cor-1.2"}),
}


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_refuses_m_and_horizon_where_unread(capsys, theorem):
    verify_flags = _ONE_CELL[theorem][0]
    for flag, (extra, readers) in _NON_AXIS_FLAGS.items():
        code, out, err = run(capsys, "verify", "--theorem", theorem, *verify_flags, *extra)
        if theorem in readers:
            assert code == 0 and err == "", flag
        else:
            assert code == 2 and out == "", flag
            assert err == f"error: --{flag} is not read by {theorem}\n"


def test_primes_above_the_limit_are_refused(capsys):
    too_big = "100000000003"  # prime; the store would allocate rows of p ints
    for argv in (
        ["verify", "--theorem", "thm-1.1", "--sequence", "step", "--n", "1", "--p", too_big],
        ["sweep", "--theorem", "thm-1.1", "--sequence", "step", "--n", "1..1", "--primes", f"5..{too_big}"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv[0]
        assert err.startswith("error: ") and f"MAX_PRIME={MAX_PRIME}" in err and err.count("\n") == 1
    # 100003 is the first prime past the limit and 99991 the last one below it
    assert run(capsys, "verify", "--theorem", "thm-3.2", "--n", "1", "--p", "100003")[0] == 2
    assert run(capsys, "sweep", "--theorem", "thm-3.2", "--n", "1..1", "--primes", f"99991..{MAX_PRIME}")[0] == 0


def test_sizes_above_the_limits_are_refused_naming_the_limit(capsys):
    assert cli.MAX_HORIZON >= DEFAULT_HORIZON
    for argv, limit in (
        (["verify", "--theorem", "lemma-2.1", "--n", "3000"], "MAX_HORIZON"),
        (["verify", "--theorem", "thm-1.1", "--n", "1", "--p", "5", "--horizon", "3000"], "MAX_HORIZON"),
        (["classify", "--sequence", "fibonacci", "--horizon", "3000"], "MAX_HORIZON"),
        (["transform", "--sequence", "step", "--horizon", "3000"], "MAX_HORIZON"),
        (["matrix", "--rows", "400", "--cols", "400"], "MAX_MATRIX_DIM"),
        (["sweep", "--theorem", "all", "--n", "1..3000", "--primes", "5..7"], "MAX_HORIZON"),
        (["sweep", "--theorem", "thm-1.1", "--primes", "5..7", "--horizon", "3000"], "MAX_HORIZON"),
        # each value within its own limit, but 10**9 and 7.7 * 10**9 cells: refused before any is built
        (["sweep", "--theorem", "thm-3.2", "--n", "1..1", "--primes", "5..5", "--c=1..1000000000"], "MAX_CELLS"),
        (["sweep", "--theorem", "thm-1.1", "--n", "1..99999", "--primes", "5..99999"], "MAX_CELLS"),
        # within every other limit, but a harmonic store of about 10**10, 2 * 10**9 and 1.46 * 10**7
        # entries, the last counting cor-1.2's 48 reverse rows beside s-parity's 98 forward ones
        (["verify", "--theorem", "lemma-3.1", "--n", "99989", "--p", "99991"], "MAX_TABLE_ENTRIES"),
        (["sweep", "--theorem", "thm-1.1", "--sequence", "step", "--n", "1..9999", "--primes", "99991..99991"],
         "MAX_TABLE_ENTRIES"),
        (["sweep", "--theorem", "s-parity,cor-1.2", "--sequence", "fibonacci", "--n", "1..49",
          "--primes", "99991..99991"], "MAX_TABLE_ENTRIES"),
        (["verify", *_LEMMA_2_1, "--m", str(10**1000)], "MAX_M"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and f"{limit}={getattr(cli, limit)}" in err, argv
        assert err.count("\n") == 1


def test_verify_fills_defaults_only_for_flags_the_theorem_reads(capsys):
    def params(*argv):
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        (report,), _ = parse_reports(out)
        return report.sequence, report.params

    assert params("--theorem", "thm-1.1", "--n", "1", "--p", "5")[0] == "step"
    assert params("--theorem", "thm-3.2", "--n", "1", "--p", "7")[1]["c"] == 1
    assert params("--theorem", "thm-3.2", "--n", "1", "--p", "7", "--c", "0")[1]["c"] == 0
    assert "c" not in params("--theorem", "thm-3.3", "--n", "1", "--p", "7")[1]


def test_verify_and_sweep_refuse_a_negative_m_with_one_message(capsys):
    verify = run(capsys, "verify", *_LEMMA_2_1, "--m", "-1")
    sweep = run(capsys, "sweep", "--theorem", "lemma-2.1", "--sequence", "step", "--n", "2..2", "--primes", "5..5",
                "--m", "-1")
    assert verify == sweep == (2, "", "error: m must be >= 0, got -1\n")


def test_verify_and_sweep_refuse_an_m_above_max_m_with_one_message(capsys):
    m = str(cli.MAX_M + 1)
    verify = run(capsys, "verify", *_LEMMA_2_1, "--m", m)
    sweep = run(capsys, "sweep", "--theorem", "lemma-2.1", "--sequence", "step", "--n", "2..2", "--primes", "5..5",
                "--m", m)
    assert verify == sweep == (2, "", f"error: m {m} is above the limit MAX_M={cli.MAX_M}\n")
    assert run(capsys, "verify", *_LEMMA_2_1, "--m", str(cli.MAX_M))[0] == 0


def test_sweep_depth_above_every_admissible_prime_is_refused(capsys):
    # every p-adic cell needs p > n + 1, so no prime up to MAX_PRIME admits it
    code, out, err = run(capsys, "sweep", "--theorem", "thm-3.3", "--n", f"{MAX_PRIME + 1}..{MAX_PRIME + 1}",
                         "--primes", "5..7")
    assert code == 2 and out == ""
    assert err == f"error: depth n {MAX_PRIME + 1} is above the limit MAX_PRIME={MAX_PRIME}\n"
    code, out, _ = run(capsys, "sweep", "--theorem", "thm-3.3", "--n", f"{MAX_PRIME}..{MAX_PRIME}",
                       "--primes", "5..7", "--format", "json")
    assert code == 0 and parse_reports(out)[1]["skip_reasons"] == {"PrimeTooSmall": "2"}


def test_lemma_sweep_pushes_each_term_once(capsys, monkeypatch):
    # Lemma 2.1 classifies at max(n, horizon) and sums a_0..a_n for each n.
    # The shared prefix generates a_0..a_150 once each and its check pushes
    # each once, where a check per horizon would take about 10**4 transform
    # terms.
    generated = Counter()
    recurrence = seqalg._recurrence

    def counted_recurrence(a0, a1, c):
        # any recurrence but step's is counted under its own start
        name = "step" if (a0, a1, c) == seqalg._BUILTINS["step"] else (a0, a1, c)
        for term in recurrence(a0, a1, c):
            generated[name] += 1
            yield term

    monkeypatch.setattr(seqalg, "_recurrence", counted_recurrence)
    pushes = []
    push = seqalg._EigenCheck.push

    def counted(check, term):
        pushes.append(term)
        return push(check, term)

    monkeypatch.setattr(seqalg._EigenCheck, "push", counted)
    seqalg._prefix.cache_clear()
    argv = ["sweep", "--theorem", "lemma-2.1", "--sequence", "step", "--n", "1..150", "--primes", "5..5"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out.count("\n") == 151
    assert len(pushes) == 151
    assert generated == Counter(step=151)
