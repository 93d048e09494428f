"""What ``import reescert`` loads: the certify path only, without
reduction and the ``fractions``/``decimal`` its polynomials need.

Each check runs in a fresh interpreter, since the suite itself has long
since loaded every module.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CERTIFY_PATH = ["reescert", "reescert.certify", "reescert.errors",
                "reescert.family", "reescert.monomials",
                "reescert.presentation"]
NOT_LOADED = ["dataclasses", "decimal", "fractions", "reescert.measure",
              "reescert.oracle", "reescert.reduction"]


def run_python(code: str):
    """Run ``code`` in a fresh interpreter that finds the package under
    ``src/``; return the JSON its last stdout line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# The interpreter's own start-up may load any module; what counts is
# what the package adds to it.  ``json`` is imported only once that is
# known, so that the package's own use of it shows.
FOOTPRINT = """
import sys
before = set(sys.modules)
import reescert
{after}
added = set(sys.modules) - before
import json
print(json.dumps({{
    "reescert": sorted(m for m in sys.modules if m.startswith("reescert")),
    "unwanted": sorted(m for m in added if m in {unwanted}),
}}))
"""


def test_import_loads_only_the_certify_path():
    # the CLI needs json for its output; the package alone does not
    got = run_python(FOOTPRINT.format(after="",
                                      unwanted=NOT_LOADED + ["json"]))
    assert got == {"reescert": CERTIFY_PATH, "unwanted": []}


# a listed level inside its Borel hull but not equal to it, every block
# of which keeps the scan; and B(x2*x3) less x2^2, whose blocks are
# classified from its hull
SCANNED_LISTED = {"mode": "rees", "variables": 3, "levels": [
    {"degree": 2, "generators": ["x1*x3", "x3^2"]}]}
ROUTED_DROP = {"mode": "rees", "variables": 3, "levels": [
    {"degree": 2, "generators": ["x1^2", "x1*x2", "x1*x3", "x2*x3"]}]}


def test_cli_certify_loads_only_the_certify_path(tmp_path):
    # ``hull`` too, exactly when a block takes the hull route
    cases = [("demos/families/tower4.json", 0, [])]
    for name, desc, code, more in (
            ("scanned", SCANNED_LISTED, 1, []),
            ("routed", ROUTED_DROP, 1, ["reescert.hull"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(desc))
        cases.append((str(path), code, more))
    for path, code, more in cases:
        after = ("import contextlib, io, reescert.cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = reescert.cli.main(\n"
                 f"        ['certify', {path!r}])\n"
                 f"assert code == {code}, code")
        got = run_python(FOOTPRINT.format(after=after, unwanted=NOT_LOADED))
        assert got == {
            "reescert": sorted(CERTIFY_PATH + ["reescert.cli"] + more),
            "unwanted": []}, path


def test_every_public_name_resolves_to_its_home_object():
    got = run_python("""
import importlib, json, reescert
bad = []
for name in reescert.__all__:
    obj = getattr(reescert, name)
    home = importlib.import_module(obj.__module__)
    if not obj.__module__.startswith("reescert.") or (
            getattr(home, name) is not obj):
        bad.append(name)
print(json.dumps({"bad": bad, "count": len(reescert.__all__),
                  "unknown": hasattr(reescert, "no_such_name")}))
""")
    assert got == {"bad": [], "count": 43, "unknown": False}


def test_public_names_are_listed_before_first_use():
    # and listing them loads no lazy module
    got = run_python(f"""
import json, sys, reescert
unlisted = sorted(set(reescert.__all__) - set(dir(reescert)))
print(json.dumps([unlisted, [m for m in {NOT_LOADED} if m in sys.modules]]))
""")
    assert got == [[], []]


def test_dir_lists_every_public_name():
    # in-process too, where the coverage report sees ``__dir__`` run
    import reescert
    assert set(reescert.__all__) <= set(dir(reescert))


def test_verification_submodules_load_on_first_access():
    got = run_python("""
import json, sys
import reescert
fn = reescert.oracle.enumerate_fibers
print(json.dumps([fn.__module__, reescert.measure.__name__,
                  "reescert.oracle" in sys.modules,
                  reescert.reduction.__name__,
                  reescert.normal_form.__module__]))
""")
    assert got == ["reescert.oracle", "reescert.measure", True,
                   "reescert.reduction", "reescert.reduction"]


def test_moved_names_still_resolve_through_presentation():
    # the three reduction functions the benchmark patches in presentation
    # still resolve there; the rest of reduction does not
    got = run_python("""
import json, sys
from reescert import presentation
loaded = "reescert.reduction" in sys.modules
from reescert import reduction
names = sorted(presentation._MOVED)
print(json.dumps({
    "loaded": loaded,
    "same": [getattr(presentation, n) is getattr(reduction, n)
             for n in names],
    "names": names,
    "hidden": [hasattr(presentation, n) for n in (
        "CRITICAL_PAIR_CAP", "MAX_TERM_DEGREE", "_normal_form",
        "TPolynomial", "normal_form", "parse_tpolynomial")]}))
""")
    assert got == {
        "loaded": False, "same": [True] * 3,
        "names": ["confluence_check", "reduce_step", "s_polynomial"],
        "hidden": [False] * 6}


def _without_definitions(text: str, names: set) -> str:
    """The source with the top-level statements that define ``names``
    left out."""
    lines = text.splitlines()
    for node in reversed(ast.parse(text).body):
        if getattr(node, "name", None) in names:
            del lines[node.lineno - 1:node.end_lineno]
    return "\n".join(lines)


def test_every_public_name_has_a_caller_outside_tests():
    # a public name that only tests reach is code to delete: each one
    # occurs in the package (outside __init__ and its own definition), a
    # demo or the benchmark.  A name whose only users are such names is
    # one too, so the definitions found unused are left out in turn.
    import reescert
    paths = [*(ROOT / "src" / "reescert").glob("*.py"),
             *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    sources = [p.read_text() for p in paths if p.name != "__init__.py"]
    unused = set()
    while True:
        more = {name for name in set(reescert.__all__) - unused if not any(
            re.search(rf"\b{name}\b",
                      _without_definitions(text, unused | {name}))
            for text in sources)}
        if not more:
            break
        unused |= more
    assert sorted(unused) == []
