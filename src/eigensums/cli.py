"""Command-line surface: single verifications, parameter sweeps over
(theorem, sequence, n, prime) grids, eigenspace classification, transform
prefixes, and the coefficient-matrix display.

Each theorem is registered by one entry in ``_THEOREMS`` (the grid axes a
sweep crosses and a runner for one cell) plus its verifier in
``congruence``; ``verify`` and ``sweep`` both dispatch through that table.
The axes also decide which flags ``verify`` reads.  Both commands share
one limits check, and all three output formats one column builder.
Sweep cells that violate a result's hypotheses (wrong parity, prime too
small, sequence in the wrong eigenspace, a denominator divisible by p) are
skipped and counted rather than failed.  Cells run serially and the output
is sorted afterwards.  --jobs is accepted and validated only for
compatibility; it does nothing.

Exit codes: 0 when every report passes, 1 when any fails, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Any, Callable, Iterable, Sequence

from .centralfact import RationalMatrix, coefficient_matrix, row_reduce
from .congruence import (
    COROLLARY_VARIANTS,
    MAX_CELLS,
    MAX_HORIZON,
    MAX_M,
    MAX_MATRIX_DIM,
    MAX_PRIME,
    MAX_TABLE_ENTRIES,
    CongruenceReport,
    EigenspaceMismatch,
    EvenDepth,
    PrimeTooSmall,
    _report,
    verify_S_parity,
    verify_corollary_1_2,
    verify_lemma_2_1,
    verify_lemma_3_1,
    verify_theorem_1_1,
    verify_theorem_3_2,
    verify_theorem_3_3,
)
from .exactnum import DenominatorDivisibleByP, Residue, primes_between
from .seqalg import (
    BUILTIN_NAMES,
    DEFAULT_HORIZON,
    SequenceSpec,
    binomial_transform_prefix,
    classify_eigenspace,
)

FORMATS = ("text", "json", "csv")

# Hypothesis violations: a sweep cell hitting one of these is skipped, not failed.
_SKIP_EXCEPTIONS = (EvenDepth, PrimeTooSmall, EigenspaceMismatch, DenominatorDivisibleByP)


class ConfigInvalid(ValueError):
    """A sweep or verify configuration that cannot be run."""


def _within(what: str, value: int, limit: int, name: str) -> None:
    """Refuse a size above one of the limits in ``congruence``."""
    if value > limit:
        raise ConfigInvalid(f"{what} {value} is above the limit {name}={limit}")


def _check_limits(theorems: Iterable[str], n_hi: int, m: int | None, horizon: int | None) -> None:
    """Refuse what no cell of ``theorems`` up to depth ``n_hi`` can run in
    reasonable time.  ``m`` and ``horizon`` are None where none of the
    theorems reads them."""
    if m is not None:
        if m < 0:
            raise ConfigInvalid(f"m must be >= 0, got {m}")
        _within("m", m, MAX_M, "MAX_M")
    if horizon is not None:
        if horizon < 1:
            raise ConfigInvalid("horizon must be >= 1")
        _within("horizon", horizon, MAX_HORIZON, "MAX_HORIZON")
    # every p-adic cell needs p > n + 1, so a deeper n has no admissible prime
    _within("depth n", n_hi, MAX_PRIME, "MAX_PRIME")
    if "lemma-2.1" in theorems:  # it classifies its sequence at max(n, horizon)
        _within("lemma-2.1 depth n", n_hi, MAX_HORIZON, "MAX_HORIZON")


def _check_store(theorems: Iterable[str], n_hi: int, p_hi: int) -> None:
    """Refuse a grid whose harmonic store at p_hi would hold more than
    MAX_TABLE_ENTRIES ints: up to min(2 n_hi, p_hi) forward rows of p_hi
    each, since s-parity at i reads S_2i, and with cor-1.2 up to n_hi - 1
    reverse rows for its tail sums.  Lemma 2.1 reads no store, and a p past
    MAX_PRIME is left to the verifiers, which refuse it naming MAX_PRIME."""
    if p_hi <= MAX_PRIME and any(t != "lemma-2.1" for t in theorems):
        reverse = min(n_hi, p_hi) - 1 if "cor-1.2" in theorems else 0
        entries = (min(2 * n_hi, p_hi) + reverse) * p_hi
        _within("harmonic store size", entries, MAX_TABLE_ENTRIES, "MAX_TABLE_ENTRIES")


@dataclass(frozen=True)
class _Cell:
    theorem: str
    sequence: SequenceSpec | None = None
    n: int | None = None
    p: int | None = None
    variant: str | None = None
    c: int | None = None
    m: int | None = None
    horizon: int | None = DEFAULT_HORIZON


# Theorem id -> (grid axes a sweep crosses, outermost first; runner of one
# cell).  The runners look the verifiers up as module globals at call time,
# so a wrapper installed on those names later still sees every call.
_THEOREMS: dict[str, tuple[tuple[str, ...], Callable[[_Cell], CongruenceReport]]] = {
    "lemma-2.1": (
        ("sequence", "m", "n"),
        lambda cell: verify_lemma_2_1(cell.sequence, cell.m, cell.n, p=cell.p, horizon=cell.horizon),
    ),
    "thm-1.1": (
        ("sequence", "n", "p"),
        lambda cell: verify_theorem_1_1(cell.sequence, cell.n, cell.p, cell.horizon),
    ),
    "s-parity": (
        ("sequence", "n", "p"),
        lambda cell: verify_S_parity(cell.sequence, cell.n, cell.p, cell.horizon),
    ),
    "cor-1.2": (
        ("sequence", "n", "p", "variant"),
        lambda cell: verify_corollary_1_2(cell.sequence, cell.n, cell.p, cell.variant, cell.horizon),
    ),
    "lemma-3.1": (("n", "p"), lambda cell: verify_lemma_3_1(cell.n, cell.p)),
    "thm-3.2": (("c", "n", "p"), lambda cell: verify_theorem_3_2(cell.c, cell.n, cell.p)),
    "thm-3.3": (("n", "p"), lambda cell: verify_theorem_3_3(cell.n, cell.p)),
}

THEOREM_IDS = tuple(_THEOREMS)


@dataclass(frozen=True)
class SweepConfig:
    """A grid of verification cells: theorems x sequences x n x primes."""

    theorems: tuple[str, ...]
    sequences: tuple[str, ...]
    n_range: tuple[int, int]
    prime_range: tuple[int, int]
    c_values: Sequence[int] = (1,)
    m: int = 2
    horizon: int = DEFAULT_HORIZON

    def validate(self) -> None:
        if not self.theorems:
            raise ConfigInvalid("at least one theorem is required")
        for t in self.theorems:
            if t not in THEOREM_IDS:
                raise ConfigInvalid(f"unknown theorem id {t!r}")
        if not self.sequences:
            raise ConfigInvalid("at least one sequence is required")
        for s in self.sequences:
            if s not in BUILTIN_NAMES:
                raise ConfigInvalid(f"unknown sequence {s!r}")
        n_lo, n_hi = self.n_range
        if n_lo < 1 or n_lo > n_hi:
            raise ConfigInvalid(f"invalid n range {n_lo}..{n_hi}")
        p_lo, p_hi = self.prime_range
        if p_lo < 2 or p_hi < 2:
            raise ConfigInvalid("prime range bounds must be >= 2")
        if p_hi > MAX_PRIME:
            raise ConfigInvalid(f"prime range {p_lo}..{p_hi} goes above the limit MAX_PRIME={MAX_PRIME}")
        if not primes_between(p_lo, p_hi):
            raise ConfigInvalid(f"no primes in range {p_lo}..{p_hi}")
        if not self.c_values:
            raise ConfigInvalid("at least one c value is required")
        _check_limits(self.theorems, n_hi, self.m, self.horizon)
        values = _axis_values(self)
        cells = sum(prod(len(values[axis]) for axis in _THEOREMS[t][0]) for t in self.theorems)
        _within("cell count", cells, MAX_CELLS, "MAX_CELLS")
        _check_store(self.theorems, n_hi, p_hi)


@dataclass(frozen=True)
class SweepResult:
    reports: list[CongruenceReport]
    cells: int
    skipped: dict[str, int]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reports if not r.passed)

    def meta(self) -> dict[str, Any]:
        return {
            "cells": str(self.cells),
            "reports": str(len(self.reports)),
            "passed": str(sum(1 for r in self.reports if r.passed)),
            "failed": str(self.failed),
            "skipped": str(sum(self.skipped.values())),
            "skip_reasons": {k: str(v) for k, v in sorted(self.skipped.items())},
        }


def _axis_values(config: SweepConfig) -> dict[str, Sequence]:
    """The values a sweep crosses on each grid axis, none of them built cell by cell."""
    return {
        "sequence": [SequenceSpec.builtin(name) for name in config.sequences],
        "n": range(config.n_range[0], config.n_range[1] + 1),
        "p": primes_between(*config.prime_range),
        "variant": COROLLARY_VARIANTS,
        "c": config.c_values,
        "m": (config.m,),
    }


def _cells_for(config: SweepConfig) -> list[_Cell]:
    values = _axis_values(config)
    cells: list[_Cell] = []
    for theorem in config.theorems:
        axes = _THEOREMS[theorem][0]
        for point in itertools.product(*(values[axis] for axis in axes)):
            cells.append(_Cell(theorem, horizon=config.horizon, **dict(zip(axes, point))))
    return cells


def _run_cell(cell: _Cell) -> CongruenceReport | str:
    """Run one cell; a hypothesis violation returns the skip reason."""
    try:
        return _THEOREMS[cell.theorem][1](cell)
    except _SKIP_EXCEPTIONS as exc:
        return type(exc).__name__


def _sort_key(report: CongruenceReport) -> tuple:
    prm = report.params
    return (
        report.theorem,
        report.sequence,
        prm.get("c", 0),
        prm.get("m", -1),
        prm.get("n", -1),
        prm.get("p", -1),
        prm.get("variant", ""),
    )


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run every admissible cell of the grid serially."""
    config.validate()
    cells = _cells_for(config)
    outcomes = [_run_cell(cell) for cell in cells]
    reports = sorted((o for o in outcomes if isinstance(o, CongruenceReport)), key=_sort_key)
    skipped = Counter(o for o in outcomes if isinstance(o, str))
    return SweepResult(reports=reports, cells=len(cells), skipped=dict(skipped))


# ---------------------------------------------------------------------------
# Serialisation

_INT_PARAM_KEYS = ("n", "p", "e", "c", "m")
_PARAM_KEYS = (*_INT_PARAM_KEYS, "variant")


def _side_str(side: Residue | Fraction) -> str:
    return str(side.value) if isinstance(side, Residue) else str(side)


def _columns(report: CongruenceReport) -> tuple[dict[str, str], str, str, str | None]:
    """The report's params in ``_PARAM_KEYS`` order, both sides and the
    modulus (None for an exact report) as decimal strings: what every
    output format prints."""
    params = {k: str(report.params[k]) for k in _PARAM_KEYS if k in report.params}
    modulus = str(report.modulus) if report.modulus is not None else None
    return params, _side_str(report.lhs), _side_str(report.rhs), modulus


def _report_obj(report: CongruenceReport) -> dict[str, Any]:
    params, lhs, rhs, modulus = _columns(report)
    obj: dict[str, Any] = {"theorem": report.theorem, "sequence": report.sequence, "params": params,
                           "lhs": lhs, "rhs": rhs, "modulus": modulus, "pass": report.passed}
    if report.detail is not None:
        obj["detail"] = report.detail
    return obj


def emit_report(
    reports: Iterable[CongruenceReport],
    fmt: str = "text",
    meta: dict[str, Any] | None = None,
) -> bytes:
    """Serialise reports as JSON, CSV or an aligned text table.

    All numbers are emitted as decimal strings.  JSON appends the sweep
    metadata (cell/skip accounting) as a trailing {"meta": ...} object.
    """
    reports = list(reports)
    if fmt == "json":
        objs: list[Any] = [_report_obj(r) for r in reports]
        if meta is not None:
            objs.append({"meta": meta})
        return (json.dumps(objs, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["theorem", "sequence", *_PARAM_KEYS, "lhs", "rhs", "modulus", "pass"])
        for r in reports:
            params, lhs, rhs, modulus = _columns(r)
            writer.writerow(
                [r.theorem, r.sequence, *(params.get(k, "") for k in _PARAM_KEYS),
                 lhs, rhs, modulus or "exact", "true" if r.passed else "false"]
            )
        return out.getvalue().encode("utf-8")
    if fmt == "text":
        return _emit_text(reports, meta)
    raise ConfigInvalid(f"unknown format {fmt!r}")


def _emit_text(reports: list[CongruenceReport], meta: dict[str, Any] | None) -> bytes:
    headers = ("theorem", "sequence", "params", "lhs", "rhs", "modulus", "status")
    rows = []
    for r in reports:
        params, lhs, rhs, modulus = _columns(r)
        shown = " ".join(f"{k}={v}" for k, v in params.items())
        rows.append((r.theorem, r.sequence, shown, lhs, rhs, modulus or "exact", "PASS" if r.passed else "FAIL"))
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    if meta is not None:
        reasons = ", ".join(f"{k}={v}" for k, v in meta["skip_reasons"].items()) or "none"
        lines.append(
            f"cells={meta['cells']} reports={meta['reports']} passed={meta['passed']} "
            f"failed={meta['failed']} skipped={meta['skipped']} ({reasons})"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_reports(data: bytes | str) -> tuple[list[CongruenceReport], dict[str, Any] | None]:
    """Inverse of the JSON emitter: rebuild report objects and metadata."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    objs = json.loads(data)
    reports: list[CongruenceReport] = []
    meta: dict[str, Any] | None = None
    for obj in objs:
        if "meta" in obj:
            meta = obj["meta"]
            continue
        params: dict[str, Any] = {}
        for key, value in obj["params"].items():
            params[key] = int(value) if key in _INT_PARAM_KEYS else value
        if obj["modulus"] is None:
            lhs: Residue | Fraction = Fraction(obj["lhs"])
            rhs: Residue | Fraction = Fraction(obj["rhs"])
        else:
            p, e = params["p"], params["e"]
            lhs = Residue(int(obj["lhs"]), p, e)
            rhs = Residue(int(obj["rhs"]), p, e)
        reports.append(
            _report(obj["theorem"], obj["sequence"], lhs, rhs, obj["pass"], obj.get("detail"), **params)
        )
    return reports, meta


# ---------------------------------------------------------------------------
# Argument parsing and subcommands

def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise ConfigInvalid(f"cannot parse {what} range {text!r}; expected LO..HI") from exc
    return lo, hi


def _parse_int_list(text: str, what: str) -> Sequence[int]:
    try:
        if ".." in text:
            lo, hi = _parse_range(text, what)
            return range(lo, hi + 1)
        return tuple(int(part) for part in text.split(","))
    except (ValueError, ConfigInvalid) as exc:
        raise ConfigInvalid(f"cannot parse {what} list {text!r}") from exc


def _parse_names(text: str, universe: tuple[str, ...], what: str) -> tuple[str, ...]:
    if text == "all":
        return universe
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    for name in names:
        if name not in universe:
            raise ConfigInvalid(f"unknown {what} {name!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigensums",
        description="Exact verification of congruences for multiple sums over "
        "binomial-transform-invariant sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify a single (theorem, sequence, n, p) cell")
    verify.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    verify.add_argument("--sequence", choices=BUILTIN_NAMES, help="default step, where the theorem reads one")
    verify.add_argument("--n", type=int, default=1, help="depth (or index i for s-parity)")
    verify.add_argument("--p", type=int, help="prime modulus base")
    verify.add_argument("--c", type=int, help="recurrence coefficient for thm-3.2 (default 1)")
    verify.add_argument("--m", type=int, help="free parameter for lemma-2.1 (default 2)")
    verify.add_argument("--variant", choices=COROLLARY_VARIANTS, help="required for cor-1.2")
    verify.add_argument("--format", dest="fmt", choices=FORMATS, default="text")
    verify.add_argument("--horizon", type=int, help=f"classification horizon (default {DEFAULT_HORIZON})")

    sweep = sub.add_parser("sweep", help="verify a grid of cells")
    sweep.add_argument("--theorem", default="all", help="comma-separated theorem ids, or 'all'")
    sweep.add_argument("--sequence", default="all", help="comma-separated builtin names, or 'all'")
    sweep.add_argument("--n", default="1..2", help="depth range LO..HI")
    sweep.add_argument("--primes", required=True, help="prime range LO..HI (inclusive)")
    sweep.add_argument("--c", default="1", help="c values for thm-3.2: LO..HI or comma list, e.g. -3..3")
    sweep.add_argument("--m", type=int, default=2)
    sweep.add_argument("--jobs", type=int, default=1, help="accepted (>= 1) but unused: sweeps run serially")
    sweep.add_argument("--format", dest="fmt", choices=FORMATS, default="text")
    sweep.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)

    classify = sub.add_parser("classify", help="classify a sequence's eigenspace")
    classify.add_argument("--sequence", required=True, choices=BUILTIN_NAMES)
    classify.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)

    transform = sub.add_parser("transform", help="print the transform of a sequence prefix")
    transform.add_argument("--sequence", required=True, choices=BUILTIN_NAMES)
    transform.add_argument("--horizon", type=int, default=8)

    matrix = sub.add_parser("matrix", help="print the coefficient matrix and its reduction")
    matrix.add_argument("--rows", type=int, default=5)
    matrix.add_argument("--cols", type=int, default=8)

    return parser


# Flags of `verify` that only some theorems read, and the value one left out
# gets (None: it is required).  A theorem reads the flags its grid axes name,
# plus --horizon when it classifies a sequence, and refuses the others.  --p
# is read by every theorem: lemma-2.1, which has no p axis, reports over the
# rationals alone when --p is left out.
_VERIFY_FLAG_DEFAULTS = {"sequence": "step", "p": None, "c": 1, "variant": None, "m": 2, "horizon": DEFAULT_HORIZON}


def _cmd_verify(args: argparse.Namespace) -> int:
    axes = _THEOREMS[args.theorem][0]
    reads = {*axes, "horizon"} if "sequence" in axes else set(axes)
    for flag, default in _VERIFY_FLAG_DEFAULTS.items():
        given = getattr(args, flag)
        if flag in reads and given is None:
            if default is None:
                raise ConfigInvalid(f"--{flag} is required for {args.theorem}")
            setattr(args, flag, default)
        elif flag not in reads and given is not None and flag != "p":
            raise ConfigInvalid(f"--{flag} is not read by {args.theorem}")
    _check_limits((args.theorem,), args.n, args.m, args.horizon)
    if args.p is not None:
        _check_store((args.theorem,), args.n, args.p)
    cell = _Cell(
        theorem=args.theorem,
        sequence=SequenceSpec.builtin(args.sequence) if args.sequence else None,
        n=args.n,
        p=args.p,
        variant=args.variant,
        c=args.c,
        m=args.m,
        horizon=args.horizon,
    )
    try:
        outcome = _run_cell(cell)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    if isinstance(outcome, str):
        raise ConfigInvalid(f"hypotheses not satisfied: {outcome}")
    sys.stdout.write(emit_report([outcome], args.fmt).decode("utf-8"))
    return 0 if outcome.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigInvalid("jobs must be >= 1")
    config = SweepConfig(
        theorems=_parse_names(args.theorem, THEOREM_IDS, "theorem"),
        sequences=_parse_names(args.sequence, BUILTIN_NAMES, "sequence"),
        n_range=_parse_range(args.n, "n"),
        prime_range=_parse_range(args.primes, "prime"),
        c_values=_parse_int_list(args.c, "c"),
        m=args.m,
        horizon=args.horizon,
    )
    result = run_sweep(config)
    sys.stdout.write(emit_report(result.reports, args.fmt, meta=result.meta()).decode("utf-8"))
    return 0 if result.failed == 0 else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    _within("--horizon", args.horizon, MAX_HORIZON, "MAX_HORIZON")
    spec = SequenceSpec.builtin(args.sequence)
    try:
        kind = classify_eigenspace(spec, args.horizon)
    except ValueError as exc:
        raise ConfigInvalid(f"--horizon {args.horizon}: {exc}") from exc
    sys.stdout.write(f"{spec.describe()}: {kind.value} (horizon {args.horizon})\n")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    _within("--horizon", args.horizon, MAX_HORIZON, "MAX_HORIZON")
    spec = SequenceSpec.builtin(args.sequence)
    try:
        transformed = binomial_transform_prefix(spec.terms(args.horizon))
    except ValueError as exc:
        raise ConfigInvalid(f"--horizon {args.horizon}: {exc}") from exc
    sys.stdout.write(" ".join(str(x) for x in transformed) + "\n")
    return 0


def _format_matrix(matrix: RationalMatrix) -> str:
    cells = [[str(x) for x in row] for row in matrix.entries]
    widths = [max(len(cells[r][c]) for r in range(matrix.rows)) for c in range(matrix.cols)]
    return "\n".join(
        "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)) for row in cells
    )


def _cmd_matrix(args: argparse.Namespace) -> int:
    if args.rows < 1 or args.cols < 1:
        raise ConfigInvalid("need rows, cols >= 1")
    _within("--rows", args.rows, MAX_MATRIX_DIM, "MAX_MATRIX_DIM")
    _within("--cols", args.cols, MAX_MATRIX_DIM, "MAX_MATRIX_DIM")
    matrix = coefficient_matrix(args.rows, args.cols)
    sys.stdout.write("coefficient matrix:\n")
    sys.stdout.write(_format_matrix(matrix) + "\n")
    sys.stdout.write("row reduced:\n")
    sys.stdout.write(_format_matrix(row_reduce(matrix)) + "\n")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "transform": _cmd_transform,
    "matrix": _cmd_matrix,
}


_OPTION = re.compile(r"--\w[\w-]*")
_NEGATIVE_VALUE = re.compile(r"-\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--c -3..3`` into ``--c=-3..3``: argparse reads a value that
    starts with '-' and is not a plain number as an unknown option."""
    out: list[str] = []
    for arg in argv:
        if out and _OPTION.fullmatch(out[-1]) and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigInvalid as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
