"""Smoke test of the benchmark harness on the p <= 31 version of each grid.

    python3 -m pytest -q bench/smoke.py

The file name keeps it out of the repository's own test suite, which
collects only ``test_*.py``.  Each test starts the harness as the
benchmark's command does and reads the JSON object on its last line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import METRICS  # noqa: E402
from run import WORKLOADS  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def harness(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_grid_reports_every_metric(workload, trace):
    proc = harness(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = [name for name, _, _ in METRICS] if trace else list(END_TO_END)
    assert list(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["congruence.reports"] > 0
        assert metrics["harmonic.table.calls"] > 0
        assert 0 <= metrics["harmonic.table.hit_ratio"] <= 1


def test_wrong_output_fails_rows(tmp_path):
    """A reference row that differs from the output counts as failed."""
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ref = tmp_path / "bench" / "reference" / "closed-form-p1009.smoke.csv"
    rows = ref.read_bytes().splitlines(keepends=True)
    rows[1] = rows[1].replace(b",true", b",false")
    ref.write_bytes(b"".join(rows))
    result = json.loads(harness(tmp_path, "closed-form-p1009", 0).stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // len(rows)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    proc = harness(tmp_path, "closed-form-p1009", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
