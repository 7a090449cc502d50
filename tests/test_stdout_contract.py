"""The byte-for-byte stdout contract against the recorded benchmark references.

Each reference in ``bench/reference/`` is the CSV stdout and exit code of one
CLI run.  The smoke grids and the full ``closed-form-p1009`` grid are cheap
enough to replay in-process here; the larger full grids are replayed by the
benchmark itself.
"""

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
