"""CLI outputs, byte for byte, against the files in ``tests/golden/``.

``tests/golden/make_golden.py`` wrote them; see its docstring for when to
regenerate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import make_golden  # noqa: E402

INDEX = json.loads((GOLDEN / "index.json").read_text())


def test_golden_index_covers_every_case(tmp_path):
    names = [fname for fname, _ in make_golden.cases(tmp_path)]
    assert len(names) == 44
    assert sorted(names) == sorted(INDEX)


@pytest.mark.parametrize("fname", sorted(INDEX))
def test_golden_cli_output(tmp_path, fname):
    argv = dict(make_golden.cases(tmp_path))[fname]
    code, out, err = make_golden.run_cli(argv)
    assert out.encode("utf-8") == (GOLDEN / fname).read_bytes()
    assert (code, err) == (INDEX[fname]["exit"], INDEX[fname]["stderr"])
