"""Write the golden CLI outputs that ``tests/test_golden.py`` compares.

Runs ``check``, ``basis`` and ``certify`` with ``--format text`` and
``--format json`` on the three demo families and on ``open_tower4()``,
and ``check`` and ``certify`` on ``open_nochain()``, whose closure scan
stops at its 33rd open pair, and ``check --all-witnesses`` on
``open_nochain()``, which classifies its whole pair table, into
``open_nochain.check-all.<format>``.  It stores each command's stdout in
``<family>.<command>.<format>`` next to this file, plus the exit codes
and stderr in ``index.json``.
It also runs ``normal-form`` on tower4 for each of ``NORMAL_FORMS``,
in both formats, with and without ``--trace``, into
``tower4.normal-form[-trace].<input>.<format>``, and ``verify
--max-degree 3`` on the three demo families and, with ``--drop-rule
17``, on tower4, into ``<family>.verify[-drop17].<format>``.  The
verify outputs hold timings, so ``mask`` replaces them before they are
written or compared.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Regenerate only when an output is meant to change, and say so in the
change log: the test exists to catch every change that is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

COMMANDS = ("check", "basis", "certify")
# families run through fewer than all of COMMANDS
COMMANDS_OF = {"open_nochain": ("check", "certify")}
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
DEMOS = ("tower4", "maxpowers3", "fiber_pair")
VERIFY = ["verify", "--max-degree", "3"]


def family_files(tmp: Path) -> dict[str, Path]:
    """Family name -> path of its JSON file."""
    from conftest import open_nochain, open_tower4

    files = {name: ROOT / "demos" / "families" / f"{name}.json"
             for name in DEMOS}
    for name, data in (("open_tower4", open_tower4()),
                       ("open_nochain", open_nochain())):
        files[name] = tmp / f"{name}.json"
        files[name].write_text(json.dumps(data))
    return files


def run_cli(argv) -> tuple[int, str, str]:
    from reescert.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def mask(fname: str, out: str) -> str:
    """``out`` with the timings of a verify case masked, else as it is:
    ``(0.01s)`` in text, the ``"seconds"`` values in json."""
    if ".verify" not in fname:
        return out
    out = re.sub(r"\(\d+\.\d+s\)", "(Xs)", out)
    return re.sub(r'"seconds": [^,\n]+', '"seconds": "X"', out)


def cases(tmp: Path):
    """(golden file name, argv) for every golden output."""
    files = family_files(tmp)
    for name, path in files.items():
        for cmd in COMMANDS_OF.get(name, COMMANDS):
            for fmt in FORMATS:
                yield f"{name}.{cmd}.{fmt}", [cmd, str(path), "--format", fmt]
    for fmt in FORMATS:
        yield (f"open_nochain.check-all.{fmt}",
               ["check", str(files["open_nochain"]), "--all-witnesses",
                "--format", fmt])
    for key, expr in NORMAL_FORMS.items():
        for fmt in FORMATS:
            argv = ["normal-form", str(files["tower4"]), expr, "--format", fmt]
            yield f"tower4.normal-form.{key}.{fmt}", argv
            yield f"tower4.normal-form-trace.{key}.{fmt}", argv + ["--trace"]
    for fmt in FORMATS:
        for name in DEMOS:
            yield (f"{name}.verify.{fmt}",
                   VERIFY + [str(files[name]), "--format", fmt])
        yield ("tower4.verify-drop17." + fmt,
               VERIFY + [str(files["tower4"]), "--drop-rule", "17",
                         "--format", fmt])


def main() -> None:
    index = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fname, argv in cases(Path(tmp)):
            code, out, err = run_cli(argv)
            (HERE / fname).write_bytes(mask(fname, out).encode("utf-8"))
            index[fname] = {"exit": code, "stderr": err}
    (HERE / "index.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
