"""Every Python file of the project parses at the oldest Python it
supports, the ``requires-python`` floor of pyproject.toml, so syntax that
came later (``except*``, for one) fails here and not only on that
Python.  The benchmark harness under ``perfbench/`` is included, since CI
runs it at the floor too."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    ).groups()
)
FILES = sorted(
    path
    for folder in ("src", "tests", "scripts", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
)


def test_the_floor_rejects_later_syntax():
    assert FLOOR == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


def test_every_file_parses_at_the_floor():
    assert FILES
    assert {path.parent.name for path in FILES} >= {"bmgon", "tests", "scripts", "perfbench"}
    for path in FILES:
        ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
