"""What ``import reescert`` loads: the certify path only, without
reduction and the ``fractions``/``decimal`` its polynomials need.

Each check runs in a fresh interpreter, since the suite itself has long
since loaded every module.
"""

from __future__ import annotations

import json
import os
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


def test_cli_certify_loads_only_the_certify_path():
    after = ("import contextlib, io, reescert.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = reescert.cli.main(\n"
             "        ['certify', 'demos/families/tower4.json'])\n"
             "assert code == 0, code")
    got = run_python(FOOTPRINT.format(after=after, unwanted=NOT_LOADED))
    assert got == {"reescert": sorted(CERTIFY_PATH + ["reescert.cli"]),
                   "unwanted": []}


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
    assert got == {"bad": [], "count": 50, "unknown": False}


def test_public_names_are_listed_before_first_use():
    got = run_python("""
import json, reescert
print(json.dumps(sorted(set(reescert.__all__) - set(dir(reescert)))))
""")
    assert got == []


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
    # reduction's public functions and records are still read from
    # presentation (the benchmark patches some of them there); its caps
    # and private helpers are not
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
        "CRITICAL_PAIR_CAP", "MAX_TERM_DEGREE", "_normal_form")]}))
""")
    assert got == {
        "loaded": False, "same": [True] * 10,
        "names": ["ConfluenceReport", "PsiImage", "TPolynomial",
                  "confluence_check", "is_completely_reduced", "normal_form",
                  "parse_tpolynomial", "psi_eval", "reduce_step",
                  "s_polynomial"],
        "hidden": [False, False, False]}
