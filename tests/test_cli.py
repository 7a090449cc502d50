import json
from fractions import Fraction

import pytest

from eigensums.cli import (
    ConfigInvalid,
    SweepConfig,
    emit_report,
    main,
    parse_reports,
    run_sweep,
)
from eigensums.congruence import CongruenceReport, verify_theorem_3_3
from eigensums.exactnum import Residue


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


@pytest.mark.parametrize("command", ["classify", "transform"])
def test_negative_horizon_is_config_error(capsys, command):
    code, out, err = run(capsys, command, "--sequence", "fibonacci", "--horizon", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: --horizon -1") and err.count("\n") == 1


@pytest.mark.parametrize(
    "bad",
    [["--m", "-1"], ["--jobs", "0"], ["--horizon", "0"], ["--n", "2..1"], ["--primes", "1..1"]],
)
def test_bad_sweep_inputs_give_one_error_line(capsys, bad):
    base = ["sweep", "--theorem", "lemma-2.1", "--sequence", "step", "--n", "1..2", "--primes", "5..7"]
    code, out, err = run(capsys, *base, *bad)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
