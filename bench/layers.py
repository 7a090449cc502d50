"""Per-layer spans and counts for one traced eigensums CLI run.

The tracer wraps public functions of each eigensums module from the
outside.  Every module attribute that refers to a wrapped function is
replaced, so a caller that imported the function by name sees the wrapper
too.  Each thread keeps its own span stack.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.

A span opened by a worker thread with an empty stack is a child of the
span open in the thread that installed the tracer: that is the sweep that
submitted the work.  Intervals of such spans are merged before they are
subtracted, so two overlapping workers are not counted twice.  With more
than one thread, a span's duration is wall time in that thread, including
time spent waiting for the interpreter lock.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import defaultdict
from functools import wraps
from time import perf_counter
from typing import Any, Callable

# (metric name, unit, better) for every per-layer metric, in report order.
# BENCHMARK.json lists the same names.
METRICS = (
    ("exactnum.residue_new.count", "count", "lower"),
    ("exactnum.mod_reduce.calls", "count", "lower"),
    ("exactnum.mod_reduce.self_s", "s", "lower"),
    ("seqalg.terms.calls", "count", "lower"),
    ("seqalg.terms.self_s", "s", "lower"),
    ("seqalg.classify.self_s", "s", "lower"),
    ("harmonic.table.calls", "count", "lower"),
    ("harmonic.table.hits", "count", "higher"),
    ("harmonic.table.hit_ratio", "ratio", "higher"),
    ("harmonic.table.entries", "count", "lower"),
    ("harmonic.table.self_s", "s", "lower"),
    ("harmonic.sums.calls", "count", "lower"),
    ("harmonic.sums.self_s", "s", "lower"),
    ("bernoulli.numbers.self_s", "s", "lower"),
    ("bernoulli.numbers.max_index", "index", "lower"),
    ("bernoulli.poly_eval.self_s", "s", "lower"),
    ("congruence.verify.self_s", "s", "lower"),
    ("congruence.reports", "count", "higher"),
    ("congruence.skipped", "count", "lower"),
    ("cli.sweep.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("cli.wall_s", "s", "lower"),
    ("cli.parallel_efficiency", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

LAYERS = ("exactnum", "seqalg", "harmonic", "bernoulli", "congruence", "cli")

# Span name -> (module, attribute path) of each wrapped function.
SPANS = {
    "exactnum.mod_reduce": [("eigensums.exactnum", "mod_reduce")],
    "seqalg.terms": [("eigensums.seqalg", "SequenceSpec.terms")],
    "seqalg.classify": [("eigensums.seqalg", "classify_eigenspace")],
    "harmonic.table": [("eigensums.harmonic", "harmonic_table")],
    "harmonic.sums": [
        ("eigensums.harmonic", name)
        for name in ("weighted_sum_S", "tail_weighted_sum", "head_shifted_sum", "tail_shifted_sum")
    ],
    "bernoulli.numbers": [("eigensums.bernoulli", "bernoulli_numbers")],
    "bernoulli.poly_eval": [("eigensums.bernoulli", "bernoulli_poly_eval")],
    "congruence.verify": [
        ("eigensums.congruence", name)
        for name in (
            "verify_lemma_2_1",
            "verify_theorem_1_1",
            "verify_S_parity",
            "verify_corollary_1_2",
            "verify_lemma_3_1",
            "verify_theorem_3_2",
            "verify_theorem_3_3",
        )
    ],
    "cli.sweep": [("eigensums.cli", "run_sweep")],
    "cli.emit": [("eigensums.cli", "emit_report")],
}


# Metrics that do not carry the name of the span or counter they come from.
_SOURCE = {
    "congruence.reports": "congruence.verify",
    "congruence.skipped": "congruence.verify",
    "harmonic.table.hit_ratio": "harmonic.table.hits",
}


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= cur_hi:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo = a
        cur_hi = b
    return total + cur_hi - cur_lo


class Tracer:
    """Span stacks, self times and counts for the eigensums layers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack = self._stack()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}
        self._residues = itertools.count()
        self._reports = self._skipped = 0
        self._max_bernoulli = 0
        self._tables: dict[Any, Any] = {}
        self._entries = 0
        self._table_cache: Any = None

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, func: Callable, on_result: Callable | None = None,
              on_error: Callable | None = None) -> Callable:
        @wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [perf_counter(), 0.0, []]  # start, same-thread child time, other-thread child intervals
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, stack, frame, end)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _close(self, name: str, stack: list[list], frame: list, end: float) -> None:
        start, covered, foreign = frame
        duration = end - start
        if foreign:
            covered += _union_length(foreign, start, end)
        if stack:
            stack[-1][1] += duration
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += max(0.0, duration - covered)
            if not stack and stack is not self._root_stack:
                try:
                    self._root_stack[-1][2].append((start, end))
                except IndexError:
                    pass

    # -- per-span hooks -------------------------------------------------

    def _on_report(self, args, kwargs, result) -> None:
        with self._lock:
            self._reports += 1

    def _on_skip(self) -> None:
        with self._lock:
            self._skipped += 1

    def _on_bernoulli(self, args, kwargs, result) -> None:
        m = args[0] if args else kwargs["m"]
        with self._lock:
            self._max_bernoulli = max(self._max_bernoulli, m)

    def _on_table(self, args, kwargs, result) -> None:
        # The lru_cache returns the stored object on a hit, so a table that is
        # not the last one seen for its key was built by this call.
        key = (args, tuple(sorted(kwargs.items())))
        with self._lock:
            if self._tables.get(key) is not result:
                self._tables[key] = result
                self._entries += result.prime * (result.j_max + 1)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every name that refers to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "eigensums" or name.startswith("eigensums."))]
        hooks = {
            "harmonic.table": (self._on_table, None),
            "bernoulli.numbers": (self._on_bernoulli, None),
            "congruence.verify": (self._on_report, self._on_skip),
        }
        for span, targets in SPANS.items():
            on_result, on_error = hooks.get(span, (None, None))
            for module_name, path in targets:
                owner = sys.modules.get(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing[span] = f"{module_name}.{path} does not exist"
                    continue
                wrapper = self._span(span, original, on_result, on_error)
                if owner_path:
                    setattr(owner, attr, wrapper)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                if span == "harmonic.table":
                    self._table_cache = original
        self._count_residues()

    def _count_residues(self) -> None:
        residue = getattr(sys.modules.get("eigensums.exactnum"), "Residue", None)
        post_init = getattr(residue, "__post_init__", None)
        if post_init is None:
            self.missing["exactnum.residue_new"] = "Residue.__post_init__ does not exist"
            return
        tick = self._residues.__next__

        def counted(obj) -> None:
            tick()
            post_init(obj)

        residue.__post_init__ = counted

    # -- results --------------------------------------------------------

    def metrics(self, wall_s: float, cpu_s: float, jobs: int, children_cpu_s: float) -> dict[str, Any]:
        """Per-layer metric values; None marks a metric that cannot be seen."""
        values: dict[str, Any] = {
            "exactnum.residue_new.count": next(self._residues),
            "exactnum.mod_reduce.calls": self.calls["exactnum.mod_reduce"],
            "exactnum.mod_reduce.self_s": self.self_s["exactnum.mod_reduce"],
            "seqalg.terms.calls": self.calls["seqalg.terms"],
            "seqalg.terms.self_s": self.self_s["seqalg.terms"],
            "seqalg.classify.self_s": self.self_s["seqalg.classify"],
            "harmonic.table.calls": self.calls["harmonic.table"],
            "harmonic.table.entries": self._entries,
            "harmonic.table.self_s": self.self_s["harmonic.table"],
            "harmonic.sums.calls": self.calls["harmonic.sums"],
            "harmonic.sums.self_s": self.self_s["harmonic.sums"],
            "bernoulli.numbers.self_s": self.self_s["bernoulli.numbers"],
            "bernoulli.numbers.max_index": self._max_bernoulli,
            "bernoulli.poly_eval.self_s": self.self_s["bernoulli.poly_eval"],
            "congruence.verify.self_s": self.self_s["congruence.verify"],
            "congruence.reports": self._reports,
            "congruence.skipped": self._skipped,
            "cli.sweep.self_s": self.self_s["cli.sweep"],
            "cli.emit.self_s": self.self_s["cli.emit"],
            "cli.cpu_s": cpu_s,
            "cli.wall_s": wall_s,
            "cli.parallel_efficiency": cpu_s / (wall_s * jobs),
        }
        info = getattr(self._table_cache, "cache_info", None)
        if info is None:
            self.missing["harmonic.table.hits"] = "harmonic_table has no cache_info()"
        else:
            stats = info()
            values["harmonic.table.hits"] = stats.hits
            values["harmonic.table.hit_ratio"] = stats.hits / max(1, stats.hits + stats.misses)
        reasons: dict[str, str] = {}
        for name, _, _ in METRICS:
            if children_cpu_s > 0 and not name.startswith(("cli.", "trace.")):
                reasons[name] = "work ran in child processes, which the tracer cannot see"
            source = _SOURCE.get(name, name.rsplit(".", 1)[0])
            if source in self.missing:
                reasons[name] = self.missing[source]
        for name in reasons:
            values[name] = None
        values["missing"] = reasons
        return values

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (module)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, seconds in self.self_s.items():
            totals[span.split(".", 1)[0]] += seconds
        return totals
