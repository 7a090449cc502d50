"""The names bench/layers.py wraps from outside must exist in the package:
a renamed function would read as a missing (null) per-layer metric only
in a traced benchmark run, so it fails here first.  One traced run of each
workload's smoke grid, and one of the full deep-p2003-jobs2 grid, must also
end in a well-formed report."""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from eigensums import harmonic
from eigensums.exactnum import Residue

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))  # run.py imports layers as a script in bench/ does
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


LAYERS = _load("layers")
RUN = _load("run")


def test_every_traced_name_resolves():
    spans = LAYERS.SPANS
    assert spans
    for span, targets in spans.items():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                assert hasattr(owner, part), f"{span}: {module_name}.{path} does not exist"
                owner = getattr(owner, part)
            assert callable(owner), f"{span}: {module_name}.{path}"


def test_counters_the_tracer_reads_exist():
    assert callable(harmonic.harmonic_table.cache_info)
    assert callable(Residue.__post_init__)


def _reject(constant):
    raise ValueError(f"{constant} is not a number JSON allows")


def _assert_traced_run_reports_every_metric(argv):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--trace", "--", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    stats = json.loads(proc.stderr.splitlines()[-1], parse_constant=_reject)
    metrics = stats["metrics"]
    assert metrics.pop("missing") == {}
    # trace.overhead_s is the one metric bench/run.py adds after the traced run
    assert sorted(metrics) == sorted(name for name, _, _ in LAYERS.METRICS if name != "trace.overhead_s")
    for name, value in metrics.items():
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
    assert metrics["harmonic.table.calls"] > 0


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_traced_smoke_run_reports_every_metric(workload):
    _assert_traced_run_reports_every_metric(RUN.grid(workload, smoke=True)[1])


def test_traced_deep_grid_reports_every_metric():
    # the full grid, at p = 2003 and 2011, not only its p <= 31 smoke version
    _assert_traced_run_reports_every_metric(RUN.grid("deep-p2003-jobs2", smoke=False)[1])
