"""The byte-for-byte stdout contract against the recorded benchmark references.

Each reference in ``bench/reference/`` is the CSV stdout and exit code of one
CLI run.  The smoke grids and the full ``closed-form-p1009`` grid are cheap
enough to replay in-process here; the larger full grids are replayed by the
benchmark itself.  ROADMAP.md's two hand-checked sweeps and a grid of
cor-1.2's tail sums are pinned by the md5 of their stdout, recorded once and
never re-recorded.
"""

import hashlib
import json
from pathlib import Path

import pytest

from eigensums.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
MANIFEST = json.loads((REFERENCE / "manifest.json").read_text())
REPLAYED = sorted(name for name in MANIFEST if name.endswith(".smoke") or name == "closed-form-p1009")


@pytest.mark.parametrize("name", REPLAYED)
def test_stdout_matches_reference_bytes(capsys, name):
    entry = MANIFEST[name]
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out.encode("utf-8")
    assert code == entry["exit_code"]
    assert out == (REFERENCE / f"{name}.csv").read_bytes()


HAND_CHECKED = {
    "reference sweep": (
        ["sweep", "--theorem", "thm-1.1,s-parity,cor-1.2,thm-3.2", "--sequence", "all", "--n", "1..4",
         "--primes", "5..400", "--c=-3..3", "--format", "csv"],
        "38a8f3c502875290c8497fa1f728588f",
        1,
    ),
    "lemma-2.1 sweep": (
        ["sweep", "--theorem", "lemma-2.1", "--sequence", "all", "--n", "1..500", "--primes", "5..5", "--format", "csv"],
        "9ce5889378aa40f0377792559b2bd5c8",
        0,
    ),
    "tail grid": (  # 860 minus_tail and 860 plus_tail rows
        ["sweep", "--theorem", "cor-1.2", "--sequence", "all", "--n", "1..9", "--primes", "5..200", "--format", "csv"],
        "26c7bbf05e75522469b934981d1d7bdd",
        0,
    ),
}


@pytest.mark.parametrize("name", HAND_CHECKED)
def test_stdout_matches_hand_checked_md5(capsys, name):
    argv, md5, exit_code = HAND_CHECKED[name]
    code = main(list(argv))
    out = capsys.readouterr().out.encode("utf-8")
    assert (hashlib.md5(out).hexdigest(), code) == (md5, exit_code)
