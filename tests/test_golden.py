"""CLI outputs, byte for byte, against the files in ``tests/golden/``.

``tests/golden/make_golden.py`` wrote them; see its docstring for when to
regenerate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent
sys.path.insert(0, str(GOLDEN))

import make_golden  # noqa: E402

INDEX = json.loads((GOLDEN / "index.json").read_text())


def test_golden_index_covers_every_case(tmp_path):
    names = [fname for fname, _ in make_golden.cases(tmp_path)]
    assert len(names) == 58
    assert sorted(names) == sorted(INDEX)


@pytest.mark.parametrize("fname", sorted(INDEX))
def test_golden_cli_output(tmp_path, fname):
    argv = dict(make_golden.cases(tmp_path))[fname]
    code, out, err = make_golden.run_cli(argv)
    assert (make_golden.mask(fname, out).encode("utf-8")
            == (GOLDEN / fname).read_bytes())
    assert (code, err) == (INDEX[fname]["exit"], INDEX[fname]["stderr"])


# One case of each subcommand on tower4, run as the user runs it: the
# suite has long since loaded every module, and so would hide a lazy
# import that breaks in a fresh interpreter.  A case with a golden file
# compares against it; verify at degree 2 and bset have none, so they
# compare against the in-process CLI.
FRESH = {
    "tower4.check.text": None,
    "tower4.basis.json": None,
    "tower4.certify.text": None,
    "tower4.verify.text": None,
    "tower4.normal-form.mixed.text": None,
    "tower4.normal-form-trace.mixed.json": None,
    "tower4.normal-form.unknown.text": None,
    "tower4.verify-degree2.text": ["verify", "--max-degree", "2",
                                   str(ROOT / "demos" / "families"
                                       / "tower4.json")],
    "bset.text": ["bset", "-n", "4", "x3*x4"],
}


@pytest.mark.parametrize("fname", FRESH)
def test_golden_cli_output_in_a_fresh_interpreter(tmp_path, fname):
    argv = FRESH[fname] or dict(make_golden.cases(tmp_path))[fname]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "reescert.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if FRESH[fname] is None:
        want = ((GOLDEN / fname).read_text(encoding="utf-8"),
                INDEX[fname]["exit"], INDEX[fname]["stderr"])
    else:
        code, out, err = make_golden.run_cli(argv)
        want = (make_golden.mask(fname, out), code, err)
    assert (make_golden.mask(fname, proc.stdout), proc.returncode,
            proc.stderr) == want
