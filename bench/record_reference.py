"""Record the reference stdout and exit code of every benchmark grid.

    python3 bench/record_reference.py

Writes ``bench/reference/<name>.csv`` and ``<name>.smoke.csv`` with the
CLI's stdout bytes, and ``bench/reference/manifest.json`` with each grid's
argv, exit code and row count.  The references were recorded once, at the
commit that added the benchmark; re-recording them later would hide a
change in the program's output, which is what the benchmark checks.
"""

from __future__ import annotations

import json
import subprocess

from run import REFERENCE, ROOT, WORKLOADS, child_cmd, grid


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    manifest = {}
    for name in WORKLOADS:
        for smoke in (False, True):
            key, argv = grid(name, smoke)
            proc = subprocess.run(child_cmd("--", *argv), cwd=ROOT, capture_output=True, timeout=600)
            (REFERENCE / f"{key}.csv").write_bytes(proc.stdout)
            manifest[key] = {"argv": argv, "exit_code": proc.returncode, "rows": len(proc.stdout.splitlines())}
            print(f"{key}: exit {proc.returncode}, {manifest[key]['rows']} rows")
    (REFERENCE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
