"""Each demo's stdout, byte for byte, against
``tests/golden/demo.<name>.text``.

A demo runs as a user runs it: in a fresh interpreter, with warnings as
errors.  Regenerate a file only when a demo's output is meant to change,
and say so in the change log:

    PYTHONPATH=src python3 -W error demos/NAME.py > tests/golden/demo.NAME.text
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_has_a_golden_file():
    assert len(DEMOS) == 7
    assert (sorted(p.name for p in GOLDEN.glob("demo.*.text"))
            == [f"demo.{p.stem}.text" for p in DEMOS])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / f"demo.{demo.stem}.text").read_bytes()
