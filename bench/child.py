"""Run one eigensums CLI invocation in a fresh interpreter and report on it.

    python3 bench/child.py --setup
    python3 bench/child.py [--trace] -- sweep ARGS...

The first form only imports ``eigensums.cli`` from ``src/``, prints
``ready`` and exits; the benchmark times it, up to that line, as set-up.
The second runs ``eigensums.cli.main`` on the arguments and leaves its
stdout untouched.  As the last line of stderr
it prints one JSON object: the exit code, wall and CPU seconds around the
CLI entry, peak resident memory, and with ``--trace`` the per-layer
metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _import_cli():
    if not (SRC / "eigensums" / "cli.py").is_file():
        sys.exit(f"error: no eigensums sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eigensums.cli

    if Path(eigensums.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported eigensums from {eigensums.cli.__file__}, not from {SRC}")
    return eigensums.cli


def _jobs(argv: list[str]) -> int:
    for i, arg in enumerate(argv):
        if arg.startswith("--jobs="):
            return int(arg.split("=", 1)[1])
        if arg == "--jobs":
            return int(argv[i + 1])
    return 1


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    args = sys.argv[1:]
    if args == ["--setup"]:
        _import_cli()
        sys.stdout.write("ready\n")
        return
    trace = args[0] == "--trace"
    argv = args[args.index("--") + 1:]
    cli = _import_cli()
    tracer = None
    if trace:
        from layers import Tracer  # bench/ is sys.path[0] when run as a script

        tracer = Tracer()
        tracer.install()

    cpu0 = time.process_time()
    children0 = _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    code = cli.main(argv)
    sys.stdout.flush()
    wall_s = time.perf_counter() - t0
    children_cpu_s = _cpu_s(resource.RUSAGE_CHILDREN) - children0
    cpu_s = time.process_time() - cpu0 + children_cpu_s

    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    stats = {"exit_code": code, "wall_s": wall_s, "cpu_s": cpu_s, "maxrss_kb": maxrss_kb}
    if tracer is not None:
        stats["metrics"] = tracer.metrics(wall_s, cpu_s, _jobs(argv), children_cpu_s)
        stats["layer_self_s"] = tracer.layer_self_s()
    sys.stderr.write("\n" + json.dumps(stats) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
