"""The eigensums benchmark: three fixed sweep grids through the public CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Load model: a closed loop with one client.
Each iteration starts a fresh interpreter (``bench/child.py``) that imports
``eigensums.cli`` from ``src/`` and calls ``eigensums.cli.main`` on the
workload's arguments, because the Bernoulli list and the ``lru_cache``s
live for one process and a CLI user pays for filling them on every
invocation.  Iterations repeat until ``--seconds`` have passed, and every
iteration's stdout and exit code are compared row by row with the reference
recorded in ``bench/reference/``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` (mean over the window's iterations of the seconds around the
CLI entry), ``setup_s`` (median seconds to start the interpreter and
import ``eigensums.cli``) and
``peak_rss_mb`` (median peak resident memory of an iteration).  With
``--trace 1`` the same untraced loop runs, then one traced iteration, and
the last line reports the per-layer metrics of ``bench/layers.py``.

The grids hold no randomness: ``--seed`` is recorded but selects nothing.
``--smoke`` runs the p <= 31 version of each grid.  A run record with the
machine, the argv and every sample is written to ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
RECORDS = ROOT / ".bench_runs"

from layers import METRICS  # bench/ is sys.path[0] when run as a script

# Name -> (full grid, p <= 31 smoke grid), each the argv after `eigensums`.
# bench/README.md gives the reason for each grid.
WORKLOADS = {
    "sweep-small-primes": (
        "sweep --theorem all --sequence all --n 1..4 --primes 5..150 --c=-3..3 --format csv",
        "sweep --theorem all --sequence all --n 1..4 --primes 5..31 --c=-3..3 --format csv",
    ),
    "closed-form-p1009": (
        "sweep --theorem lemma-3.1,thm-3.2,thm-3.3 --n 1..4 --primes 1009..1009 --c=-3..3 --format csv",
        "sweep --theorem lemma-3.1,thm-3.2,thm-3.3 --n 1..4 --primes 31..31 --c=-3..3 --format csv",
    ),
    "deep-p2003-jobs2": (
        "sweep --theorem thm-1.1,s-parity,cor-1.2"
        " --sequence step,fibonacci,legendre3_signed,power2_alt,half_power,lucas,weighted_catalan"
        " --n 1..6 --primes 2003..2011 --jobs 2 --format csv",
        "sweep --theorem thm-1.1,s-parity,cor-1.2"
        " --sequence step,fibonacci,legendre3_signed,power2_alt,half_power,lucas,weighted_catalan"
        " --n 1..6 --primes 23..31 --jobs 2 --format csv",
    ),
}

SETUP_REPEATS = 15
# A run ends within this many seconds, iterations included.
RUN_BUDGET_S = 170.0


def grid(name: str, smoke: bool) -> tuple[str, list[str]]:
    """Reference key and CLI argv of a workload."""
    full, small = WORKLOADS[name]
    return (f"{name}.smoke" if smoke else name), (small if smoke else full).split()


def load_reference(key: str, argv: list[str]) -> tuple[list[bytes], int]:
    manifest = json.loads((REFERENCE / "manifest.json").read_text())
    entry = manifest[key]
    if entry["argv"] != argv:
        raise SystemExit(f"error: reference for {key} was recorded for another argv")
    return (REFERENCE / f"{key}.csv").read_bytes().splitlines(keepends=True), entry["exit_code"]


def child_cmd(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), *args]


def run_cli(argv: list[str], trace: bool, timeout: float) -> dict:
    """One fresh-interpreter CLI run: its stdout lines, exit code and stats."""
    cmd = child_cmd(*(["--trace"] if trace else []), "--", *argv)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "elapsed_s": time.perf_counter() - t0}
    sample = {"returncode": proc.returncode, "elapsed_s": time.perf_counter() - t0, "lines": proc.stdout.splitlines(keepends=True)}
    err = proc.stderr.decode("utf-8", "replace").rstrip().splitlines()
    try:
        sample.update(json.loads(err[-1]))
    except (IndexError, ValueError):
        sample["error"] = "\n".join(err[-5:]) or f"exit code {proc.returncode} and no stats"
    return sample


def failed_rows(sample: dict, reference: list[bytes], ref_code: int) -> int:
    """Reference rows the sample got wrong; a crash or wrong exit code fails all."""
    if "error" in sample or sample["returncode"] != ref_code or sample["exit_code"] != ref_code:
        return len(reference)
    lines = sample["lines"]
    wrong = sum(1 for i, row in enumerate(reference) if i >= len(lines) or lines[i] != row)
    return min(len(reference), wrong + max(0, len(lines) - len(reference)))


def measure_setup() -> list[float]:
    """Seconds to start the interpreter and import eigensums.cli, per repeat.

    Each start is timed until the child reports the import done on its
    stdout.  Waiting on the pipe returns as soon as the line arrives;
    waiting for the exit with a timeout would poll in sleeps of up to 50 ms
    and quantise the time.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(child_cmd("--setup"), cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - t0
            if line != b"ready\n":
                proc.kill()
            code = proc.wait()
        if line != b"ready\n" or code != 0:
            raise SystemExit(f"error: set-up run failed with exit code {code}")
        if i:  # the first start also writes bytecode caches
            times.append(elapsed)
    return times


def machine() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # never report the commit of an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="run the p <= 31 grid")
    args = parser.parse_args()

    budget_end = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "eigensums" / "cli.py").is_file():
        sys.stderr.write(f"error: no eigensums sources under {ROOT / 'src'}\n")
        return 2
    key, argv = grid(args.workload, args.smoke)
    reference, ref_code = load_reference(key, argv)
    record = {"workload": args.workload, "argv": ["eigensums", *argv], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke, **machine(),
              "loadavg_start": os.getloadavg()}

    setup = [] if args.trace else measure_setup()
    samples = []
    loop_end = time.monotonic() + args.seconds
    while True:
        sample = run_cli(argv, False, budget_end - time.monotonic())
        samples.append(sample)
        # Start another iteration only if it should end inside the measured
        # window, leaving room for the traced one in the run's budget.
        next_end = time.monotonic() + sample["elapsed_s"]
        reserve = 2 * sample["elapsed_s"] if args.trace else 0.0
        if "error" in sample or next_end > min(loop_end, budget_end - reserve):
            break
    traced = None
    if args.trace and "error" not in samples[-1]:
        traced = run_cli(argv, True, budget_end - time.monotonic())
        samples.append(traced)

    failed = [failed_rows(s, reference, ref_code) for s in samples]
    untraced = [s for s in samples if s is not traced and "error" not in s]
    # Each iteration already averages seconds of work, and the host's speed
    # drifts between iterations, so the mean over the whole window is the
    # steadier estimate: it is the window's CLI seconds per grid.
    wall = statistics.fmean(s["wall_s"] for s in untraced) if untraced else None
    if args.trace:
        layer = (traced or {}).get("metrics", {})
        missing = layer.get("missing", {})
        if traced is not None and "metrics" in traced and untraced:
            layer["trace.overhead_s"] = traced["wall_s"] - statistics.median(s["wall_s"] for s in untraced)
        metrics = {}
        for name, unit, _ in METRICS:
            metrics[name] = {"value": layer.get(name), "unit": unit}
            if layer.get(name) is None:
                metrics[name]["missing"] = missing.get(name, "traced run failed")
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(s["maxrss_kb"] / 1024 for s in untraced) if untraced else None,
                "unit": "MB",
            },
        }
    result = {
        "correct": not any(failed),
        "attempted": len(reference) * len(samples),
        "failed": sum(failed),
        "metrics": metrics,
    }

    record.update(
        loadavg_end=os.getloadavg(),
        reference_rows=len(reference),
        reference_exit_code=ref_code,
        failed_ratio=result["failed"] / result["attempted"],
        setup_s=setup,
        samples=[
            {"traced": s is traced, "failed_rows": f, **{k: v for k, v in s.items() if k != "lines"}}
            for s, f in zip(samples, failed)
        ],
        result=result,
    )
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{key}.trace{args.trace}.seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for s in samples:
        if "error" in s:
            sys.stderr.write(f"iteration failed: {s['error']}\n")
    sys.stderr.write(f"run record: {path.relative_to(ROOT)}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
