"""Write the golden CLI outputs that ``tests/test_golden.py`` compares.

Runs ``check``, ``basis`` and ``certify`` with ``--format text`` and
``--format json`` on the three demo families and on ``open_tower4()``,
and stores each command's stdout in ``<family>.<command>.<format>``
next to this file, plus the exit codes and stderr in ``index.json``.
It also runs ``normal-form`` on tower4 for each of ``NORMAL_FORMS``,
in both formats, with and without ``--trace``, into
``tower4.normal-form[-trace].<input>.<format>``.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Regenerate only when an output is meant to change, and say so in the
change log: the test exists to catch every change that is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

COMMANDS = ("check", "basis", "certify")
FORMATS = ("text", "json")
# normal-form inputs on tower4, by the name used in the golden file
NORMAL_FORMS = {
    "lead": "T[1,3]*T[1,4]",
    "cross": "T[0,1]*T[2,7]",
    "cancel": "T[1,3]*T[1,4] - T[1,2]*T[1,5]",
    "mixed": "2*T[1,3]*T[1,4]*T[2,7] + 1/2*T[0,1]^3"
             " - T[0,3]*T[1,2]*T[2,5]",
    "unknown": "T[9,1]",
}


def family_files(tmp: Path) -> dict[str, Path]:
    """Family name -> path of its JSON file."""
    from conftest import open_tower4

    files = {name: ROOT / "demos" / "families" / f"{name}.json"
             for name in ("tower4", "maxpowers3", "fiber_pair")}
    files["open_tower4"] = tmp / "open_tower4.json"
    files["open_tower4"].write_text(json.dumps(open_tower4()))
    return files


def run_cli(argv) -> tuple[int, str, str]:
    from reescert.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cases(tmp: Path):
    """(golden file name, argv) for every golden output."""
    files = family_files(tmp)
    for name, path in files.items():
        for cmd in COMMANDS:
            for fmt in FORMATS:
                yield f"{name}.{cmd}.{fmt}", [cmd, str(path), "--format", fmt]
    for key, expr in NORMAL_FORMS.items():
        for fmt in FORMATS:
            argv = ["normal-form", str(files["tower4"]), expr, "--format", fmt]
            yield f"tower4.normal-form.{key}.{fmt}", argv
            yield f"tower4.normal-form-trace.{key}.{fmt}", argv + ["--trace"]


def main() -> None:
    index = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fname, argv in cases(Path(tmp)):
            code, out, err = run_cli(argv)
            (HERE / fname).write_bytes(out.encode("utf-8"))
            index[fname] = {"exit": code, "stderr": err}
    (HERE / "index.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
