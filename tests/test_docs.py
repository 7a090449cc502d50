"""The README's limits table must name each limit of ``eigensums.cli``, and
``MAX_PRIME`` of ``eigensums.exactnum``, once, with the value the code defines."""

import re
from pathlib import Path

from eigensums import cli

README = Path(__file__).resolve().parents[1] / "README.md"
LIMITS = ("MAX_PRIME", "MAX_HORIZON", "MAX_MATRIX_DIM", "MAX_CELLS", "MAX_TABLE_ENTRIES", "MAX_M")
_ROW = re.compile(r"^\s*\| `(MAX_\w+)` \| ([^|]+?) \|", re.MULTILINE)
_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _value(text: str) -> int:
    """An int written as digits, or as a power such as 10⁵."""
    base, exponent = re.fullmatch(r"(\d+)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)", text).groups()
    return int(base) ** int(exponent.translate(_SUPERSCRIPTS)) if exponent else int(base)


def test_readme_limits_table_matches_the_code():
    rows = _ROW.findall(README.read_text(encoding="utf-8"))
    assert sorted(name for name, _ in rows) == sorted(LIMITS)
    for name, value in rows:
        assert _value(value) == getattr(cli, name), name
