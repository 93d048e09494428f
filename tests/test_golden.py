"""CLI outputs, byte for byte, against the files in ``tests/golden/``.

``tests/golden/make_golden.py`` wrote them; see its docstring for when to
regenerate.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from reescert import build_certificate, build_family, family, oracle

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent
sys.path.insert(0, str(GOLDEN))

import make_golden  # noqa: E402
from conftest import open_tower4  # noqa: E402
from test_census import (  # noqa: E402
    _refuse,
    assert_routes_agree,
    route_counts,
)

INDEX = json.loads((GOLDEN / "index.json").read_text())


def test_golden_index_covers_every_case(tmp_path):
    names = [fname for fname, _ in make_golden.cases(tmp_path)]
    assert len(names) == 58
    assert sorted(names) == sorted(INDEX)


def assert_golden(fname, code, out, err):
    """An in-process CLI run's exit code, stdout and stderr against the
    golden file ``fname`` and its index entry."""
    assert (make_golden.mask(fname, out).encode("utf-8")
            == (GOLDEN / fname).read_bytes()), fname
    assert (code, err) == (INDEX[fname]["exit"],
                           INDEX[fname]["stderr"]), fname


@pytest.mark.parametrize("fname", sorted(INDEX))
def test_golden_cli_output(tmp_path, fname):
    argv = dict(make_golden.cases(tmp_path))[fname]
    assert_golden(fname, *make_golden.run_cli(argv))


def test_golden_cli_output_builds_no_borel_member(tmp_path, monkeypatch):
    """With ``family.borel_closure`` and ``Level.generators`` refusing,
    every golden case still prints its golden output: ``check``,
    ``basis``, ``certify``, ``verify`` and ``normal-form`` read a level
    as its count and its factorizations, and build none of its members.
    The fiber suites' one-slot memo is emptied once, before the first
    case, and then kept: comparing a held key's levels with a rebuilt
    family's reads their least generators, sizes and factorizations,
    not their members."""
    monkeypatch.setattr(family, "borel_closure", _refuse)
    monkeypatch.setattr(family.Level, "generators", property(_refuse))
    monkeypatch.setattr(oracle, "_last_pass", None)
    for fname, argv in make_golden.cases(tmp_path):
        assert_golden(fname, *make_golden.run_cli(argv))


def _unscanned(*args):
    raise AssertionError("classified a pair")


def test_a_hull_routed_certificate_classifies_no_pair(
        tmp_path, monkeypatch, bench_families):
    """Every open block of ``open_tower4`` and of a certify-mix
    ``rees-drop`` draw is classified from its levels' Borel hulls: with
    ``family._classify`` refusing, their certificates equal a full
    scan's, and ``open_tower4``'s certify cases print their golden
    output."""
    descs = (open_tower4(), bench_families.draw_family(
        random.Random(3), (20, 30), "rees-drop"))
    cases = dict(make_golden.cases(tmp_path))
    with monkeypatch.context() as patched:
        patched.setattr(family, "_classify", _unscanned)
        certs = [build_certificate(build_family(desc)) for desc in descs]
        for fname in ("open_tower4.certify.json", "open_tower4.certify.text"):
            assert_golden(fname, *make_golden.run_cli(cases[fname]))
    for desc, cert in zip(descs, certs):
        routed, scanned = route_counts(desc)
        assert routed and not scanned, desc
        assert not cert["closed_under_comparability"], desc
        assert cert == assert_routes_agree(desc, desc)


# One case of each subcommand on tower4, and the failing verify on tower4
# less rule 17, run as the user runs it: the suite has long since loaded
# every module, and so would hide a lazy import that breaks in a fresh
# interpreter.  A case with a golden file compares against it; verify at
# degree 2 and bset have none, so they compare against the in-process CLI.
FRESH = {
    "tower4.check.text": None,
    "tower4.basis.json": None,
    "tower4.certify.text": None,
    "tower4.verify.text": None,
    "tower4.verify-drop17.text": None,
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
