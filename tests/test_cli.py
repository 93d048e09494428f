from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from reescert.cli import main
from reescert.family import MAX_VARIABLES
from bruteforce import basis_by_public_constructor
from conftest import family_dict
from test_census import max_powers, max_powers_rule_count


@pytest.fixture
def tower4_file(tmp_path):
    path = tmp_path / "tower4.json"
    path.write_text(json.dumps(family_dict("tower4")))
    return str(path)


@pytest.fixture
def open_family_file(tmp_path):
    data = family_dict("tower4")
    gens = ["x1^2", "x2^2", "x1*x3", "x2*x3", "x3^2",
            "x1*x4", "x2*x4", "x3*x4"]
    data["levels"][0] = {"degree": 2, "generators": gens}
    path = tmp_path / "open.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ check

def test_check_closed(capsys, tower4_file):
    code, out, _ = run(capsys, "check", tower4_file)
    assert code == 0
    assert "closed under comparability: yes" in out
    assert "276 pairs" in out
    assert "structural conjunction: yes" in out
    assert "agrees with closure: yes" in out


def test_check_open_family(capsys, open_family_file):
    code, out, _ = run(capsys, "check", open_family_file)
    assert code == 1
    assert "closed under comparability: no" in out
    assert "witness" in out


def test_check_json(capsys, tower4_file):
    code, out, _ = run(capsys, "check", tower4_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["closed"] is True
    assert data["pairs_checked"] == 276
    assert data["characterization"]["conjunction"] is True


def test_check_all_witnesses(capsys, open_family_file):
    code, out, _ = run(capsys, "check", open_family_file,
                       "--format", "json", "--all-witnesses")
    assert code == 1
    data = json.loads(out)
    assert data["witnesses"]
    assert data["witnesses_truncated"] is False


# ------------------------------------------------------------------ basis

def test_basis_text(capsys, tower4_file):
    code, out, _ = run(capsys, "basis", tower4_file)
    assert code == 0
    assert "relations: 104" in out
    assert "T[1,3]*T[1,4] -> T[1,2]*T[1,5]" in out


def test_basis_json_round_trip(capsys, tower4_file):
    from reescert.family import family_from_file
    from reescert.presentation import MarkedBinomial, TMonomial

    code, out, _ = run(capsys, "basis", tower4_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    fam = family_from_file(tower4_file)
    assert tuple(
        MarkedBinomial(TMonomial(rel["lead"]), TMonomial(rel["trail"]))
        for rel in data["relations"]) == basis_by_public_constructor(fam)
    assert data["count"] == 104
    assert data["quadratic"] is True
    assert data["squarefree_leads"] is True


def test_basis_single_generator_family(capsys, tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({
        "mode": "rees", "variables": 3,
        "levels": [{"degree": 2, "generators": ["x1^2"]}]}))
    code, out, _ = run(capsys, "basis", str(path))
    assert code == 0
    assert "relations: 0" in out


def test_basis_not_closed_exits_1(capsys, open_family_file):
    code, _, err = run(capsys, "basis", open_family_file)
    assert code == 1
    assert "not closed" in err


# ---------------------------------------------------------------- certify

def test_certify_closed(capsys, tower4_file):
    code, out, _ = run(capsys, "certify", tower4_file)
    assert code == 0
    for word in ("koszul", "normal_domain", "cohen_macaulay",
                 "Froberg", "Sturmfels", "Hochster"):
        assert word in out


def test_certify_json(capsys, tower4_file):
    code, out, _ = run(capsys, "certify", tower4_file, "--format", "json")
    assert code == 0
    cert = json.loads(out)
    assert cert["closed_under_comparability"] is True
    assert cert["basis_size"] == 104
    assert cert["conclusions"] == ["koszul", "normal_domain",
                                   "cohen_macaulay"]
    assert cert["quadratic"] and cert["squarefree_leads"]


def test_certify_open_family(capsys, open_family_file):
    code, out, _ = run(capsys, "certify", open_family_file,
                       "--format", "json")
    assert code == 1
    cert = json.loads(out)
    assert cert["conclusions"] == []
    assert cert["witnesses"]


# ----------------------------------------------------------------- verify

def test_verify_passes(capsys, tower4_file):
    code, out, _ = run(capsys, "verify", tower4_file, "--max-degree", "2")
    assert code == 0
    assert "confluence: 5356 s-pairs, 0 failure(s), 1017 reduced, 4339 skipped" in out
    assert "normal forms: 324 monomials" in out
    assert "result: PASS" in out


def test_verify_json(capsys, tower4_file):
    code, out, _ = run(capsys, "verify", tower4_file,
                       "--max-degree", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["confluence"]["pairs"] == 5356
    assert data["confluence"]["pairs_reduced"] == 1017
    assert data["confluence"]["pairs_skipped"] == 4339
    assert data["confluence"]["normal_forms"] == 1048
    assert data["normal_forms"]["monomials"] == 324
    assert data["kernel"]["passed"] is True
    assert data["measure"]["passed"] is True


def test_verify_drop_rule_fails(capsys, tower4_file):
    code, out, _ = run(capsys, "verify", tower4_file,
                       "--max-degree", "2", "--drop-rule", "17")
    assert code == 1
    assert "result: FAIL" in out


def test_verify_drop_rule_out_of_range(capsys, tower4_file):
    code, _, err = run(capsys, "verify", tower4_file,
                       "--drop-rule", "4000")
    assert code == 2
    assert "drop-rule" in err


def test_verify_drop_rule_on_a_basis_with_no_rule(capsys, tmp_path):
    path = tmp_path / "x1.json"
    path.write_text(json.dumps({
        "mode": "fiber", "variables": 1, "embedding_degree": 2,
        "levels": [{"degree": 1, "generators": ["x1"]}]}))
    code, out, err = run(capsys, "verify", str(path), "--drop-rule", "0")
    assert code == 2
    assert err == "error: --drop-rule: the basis has no rule to drop\n"
    assert out == ""


# ------------------------------------------------------------ normal-form

def test_normal_form_plain(capsys, tower4_file):
    code, out, _ = run(capsys, "normal-form", tower4_file,
                       "T[1,3]*T[1,4]")
    assert code == 0
    assert out.strip() == "T[1,2]*T[1,5]"


def test_normal_form_zero(capsys, tower4_file):
    code, out, _ = run(capsys, "normal-form", tower4_file,
                       "T[1,3]*T[1,4] - T[1,2]*T[1,5]")
    assert code == 0
    assert out.strip() == "0"


def test_normal_form_trace(capsys, tower4_file):
    code, out, _ = run(capsys, "normal-form", tower4_file,
                       "T[1,3]*T[1,4]", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "input: T[1,3]*T[1,4]"
    assert lines[1] == "(c,e): 0 1"
    assert "T[1,3]*T[1,4] -> T[1,2]*T[1,5]" in lines[2]
    assert lines[3] == "(c,e): 0 0"
    assert lines[4] == "normal form: T[1,2]*T[1,5]"


def test_normal_form_trace_json(capsys, tower4_file):
    code, out, _ = run(capsys, "normal-form", tower4_file,
                       "T[0,1]*T[2,7]", "--trace", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["initial"] == {"c": 3, "e": 0}
    assert data["steps"][-1]["c"] == 0
    assert data["normal_form"] == "T[0,3]*T[2,3]"


@pytest.mark.parametrize("expr, text", [
    ("T[2,1]*T[2,2]", "T[2,1]*T[2,2]"),
    ("T[1,1]^0", "1"),
])
def test_normal_form_of_refs_outside_every_rule(capsys, expr, text):
    # fiber_pair's one rule is on level-1 refs: a monomial of level-2
    # refs and the empty monomial (fiber_pair has no level 0) come back
    # as they went in, traced or not
    path = str(Path(__file__).resolve().parent.parent / "demos" / "families"
               / "fiber_pair.json")
    code, out, err = run(capsys, "normal-form", path, expr)
    assert (code, out, err) == (0, text + "\n", "")
    code, out, err = run(capsys, "normal-form", path, expr, "--trace")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"input: {text}", "(c,e): 0 0",
                                f"normal form: {text}"]


def test_normal_form_power_over_cap_exits_3(capsys, tower4_file):
    code, out, err = run(capsys, "normal-form", tower4_file,
                         "T[0,1]^100000000")
    assert code == 3
    assert "resource cap" in err
    assert out == ""


def test_broken_invariant_exits_3(capsys, tower4_file, monkeypatch):
    # a step cap of 0 stands in for a reduction that would not end
    from reescert import reduction
    monkeypatch.setattr(reduction, "DEFAULT_STEP_CAP", 0)
    code, out, err = run(capsys, "normal-form", tower4_file, "T[1,3]*T[1,4]")
    assert (code, out) == (3, "")
    assert err == ("internal invariant violated: reduction exceeded 0 steps;"
                   " the termination measure should forbid this\n")


def test_closed_family_of_the_wrong_shape_exits_3(capsys, tmp_path,
                                                  monkeypatch):
    # fiber_pair is closed and scanned; a pair table of another shape
    # than quadratic with squarefree leads would be a bug
    from reescert import certify
    monkeypatch.setattr(certify, "basis_shape", lambda rules: {
        "count": len(rules), "quadratic": True, "squarefree_leads": False})
    path = _write(tmp_path, json.dumps(family_dict("fiber_pair")))
    code, out, err = run(capsys, "certify", path)
    assert (code, out) == (3, "")
    assert err == ("internal invariant violated: the marked basis of a"
                   " closed family is not quadratic with squarefree"
                   " leads\n")


def test_normal_form_bad_expression(capsys, tower4_file):
    code, _, err = run(capsys, "normal-form", tower4_file, "T[9,9]")
    assert code == 2
    assert "unknown T-variable" in err


# ------------------------------------------------------------------- bset

def test_bset_table(capsys):
    code, out, _ = run(capsys, "bset", "x3*x4", "-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert "9 member(s)" in lines[0]
    assert lines[1].split() == ["1", "x1^2"]
    assert lines[-1].split() == ["9", "x3*x4"]


def test_bset_json(capsys):
    code, out, _ = run(capsys, "bset", "x2^2*x3", "-n", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 7
    assert data["members"][0] == "x1^3"
    assert data["members"][-1] == "x2^2*x3"


def test_bset_bad_monomial(capsys):
    code, _, err = run(capsys, "bset", "x9", "-n", "4")
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------ file errors

BIG = "9" * 5000  # over Python's 4,300-digit limit on int() of a string


def _write(tmp_path, text) -> str:
    path = tmp_path / "input.json"
    if isinstance(text, str):
        text = text.encode()
    path.write_bytes(text)
    return str(path)


INPUT_ERRORS = {
    "long expression number": lambda tmp, tower4: [
        "normal-form", tower4, f"T[0,1]^{BIG}"],
    "long variables count": lambda tmp, _: [
        "check", _write(tmp, f'{{"mode": "rees", "variables": {BIG},'
                             ' "levels": []}')],
    "long borel exponent": lambda tmp, _: [
        "check", _write(tmp, '{"mode": "rees", "variables": 2, "levels":'
                             f' [{{"degree": 2, "borel": "x1^{BIG}"}}]}}')],
    "long generator index": lambda tmp, _: [
        "check", _write(tmp, '{"mode": "rees", "variables": 2, "levels":'
                             f' [{{"degree": 2, "generators": ["x{BIG}"]}}]}}')],
    "generator not a string": lambda tmp, _: [
        "check", _write(tmp, '{"mode": "rees", "variables": 2, "levels":'
                             ' [{"degree": 2, "generators": [3]}]}')],
    "borel not a string": lambda tmp, _: [
        "check", _write(tmp, '{"mode": "rees", "variables": 2, "levels":'
                             ' [{"degree": 2, "borel": null}]}')],
    "not utf-8": lambda tmp, _: [
        "check", _write(tmp, b'{"mode": "rees", \xff\xfe}')],
    "directory": lambda tmp, _: ["check", str(tmp)],
    "no variables": lambda tmp, _: ["bset", "-n", "0", "x1"],
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_2(capsys, tmp_path, tower4_file, case):
    code, out, err = run(capsys, *INPUT_ERRORS[case](tmp_path, tower4_file))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


RESOURCE_CAPS = {  # case: (stderr text, argv)
    # C(29, 10) = 20,030,010 members, over BOREL_CAP
    "bset": ("more than 100000 members",
             lambda tmp: ["bset", "-n", "20", "x20^10"]),
    # 39,810 members of 2,000 exponents each: ~640 MB if built
    "bset exponents": ("39810 members in 2000 variables", lambda tmp: [
        "bset", "-n", "2000", "x20*x2000"]),
    "borel level": ("more than 100000 members", lambda tmp: [
        "check", _write(tmp, '{"mode": "rees", "variables": 20, "levels":'
                             ' [{"degree": 10, "borel": "x20^10"}]}')]),
    # the 1,820 quartics in 13 variables make 1,655,290 pairs, over
    # PAIR_CAP
    "pair table": ("1655290 pairs", lambda tmp: [
        "check", _write(tmp, '{"mode": "fiber", "variables": 13,'
                             ' "embedding_degree": 5, "levels":'
                             ' [{"degree": 4, "borel": "x13^4"}]}')]),
    # level 0 and 1,414 one-member levels make 1,000,405 pairs of
    # levels, over PAIR_CAP: a certificate by the paper's theorem counts
    # one Borel set per pair, so it is refused too
    "level pairs": ("1415 levels make 1000405 pairs", lambda tmp: [
        "certify", _write(tmp, json.dumps({
            "mode": "rees", "variables": 1,
            "levels": [{"degree": 1, "borel": "x1"}] * 1414}))]),
    # over MAX_GENERATOR_DEGREE, refused before the level is parsed
    "generator degree": ("degree 3000000 is over 1000", lambda tmp: [
        "check", _write(tmp, '{"mode": "rees", "variables": 1, "levels":'
                             ' [{"degree": 3000000,'
                             ' "borel": "x1^3000000"}]}')]),
    # max(6,4): 18,908 rules, 3,391,240 critical pairs, over
    # CRITICAL_PAIR_CAP
    "critical pairs": ("3391240 critical pairs", lambda tmp: [
        "verify", _write(tmp, json.dumps({
            "mode": "rees", "variables": 6,
            "levels": [{"degree": d, "borel": f"x6^{d}"}
                       for d in range(1, 5)]}))]),
}


@pytest.mark.parametrize("case", sorted(RESOURCE_CAPS))
def test_resource_caps_exit_3(capsys, tmp_path, case):
    message, argv = RESOURCE_CAPS[case]
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 3
    assert err.startswith("resource cap: ")
    assert message in err
    assert out == ""


# Past PAIR_CAP, yet certified by the paper's theorem, which builds no
# ref or pair: (refs, pairs) of max(n, k)
CERTIFIED_PAST_PAIR_CAP = {(12, 4): (1831, 1675365), (20, 3): (1790, 1601155),
                           (60, 2): (1950, 1900275)}


@pytest.mark.parametrize("n, k", sorted(CERTIFIED_PAST_PAIR_CAP))
def test_certify_past_the_pair_cap(capsys, tmp_path, n, k):
    refs, pairs = CERTIFIED_PAST_PAIR_CAP[n, k]
    path = _write(tmp_path, json.dumps(max_powers(n, k)))
    code, out, err = run(capsys, "certify", path, "--format", "json")
    assert (code, err) == (0, "")
    cert = json.loads(out)
    assert cert["pairs_checked"] == pairs
    assert cert["basis_size"] == max_powers_rule_count(n, k)
    assert cert["conclusions"] == ["koszul", "normal_domain",
                                   "cohen_macaulay"]
    # a scan is still refused
    for command in ("check", "basis"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (3, "")
        assert err == (f"resource cap: {refs} generators make {pairs} pairs,"
                       " more than 1000000\n")


# characterize compares a listed level with the Borel set of its least
# generator, counting that set only as far as the level's size: a set
# over BOREL_CAP (C(34, 5) = 278,256 members of x30^5, C(29, 10) of
# x20^10) gets an answer, not a refusal
@pytest.mark.parametrize("command", ["check", "certify"])
def test_listed_level_of_a_huge_borel_set_fiber(capsys, tmp_path, command):
    path = _write(tmp_path, '{"mode": "fiber", "variables": 30,'
                            ' "embedding_degree": 6, "levels":'
                            ' [{"degree": 5, "generators": ["x30^5"]}]}')
    code, out, err = run(capsys, command, path, "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["characterization"]["borel_equal"] == [False]
    if command == "check":
        assert data["closed"] is True
    else:
        assert data["conclusions"] == ["koszul", "normal_domain",
                                       "cohen_macaulay"]


@pytest.mark.parametrize("command", ["check", "certify"])
def test_listed_level_of_a_huge_borel_set_rees(capsys, tmp_path, command):
    path = _write(tmp_path, '{"mode": "rees", "variables": 20, "levels":'
                            ' [{"degree": 10, "generators": ["x20^10"]}]}')
    code, out, err = run(capsys, command, path, "--format", "json")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["characterization"]["borel_equal"] == [False]
    assert data["characterization"]["borel_subset"] == [True]
    assert data["witnesses"]


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Each oversized input below is refused in well under a second; built
# before it is counted, each would take tens of seconds or more.
OVERSIZED_TIMEOUT_S = 10


def _cubics(n: int) -> list[str]:
    return ["*".join(f"x{i}" for i in fact)
            for fact in combinations_with_replacement(range(1, n + 1), 3)]


OVERSIZED = {  # case: (stderr text, argv)
    "fiber variables": ("10000000 variables are more than 2000", lambda tmp: [
        "certify", _write(tmp, '{"mode": "fiber", "variables": 10000000,'
                               ' "embedding_degree": 2, "levels":'
                               ' [{"degree": 1, "generators": ["x1"]}]}')]),
    "bset variables": ("10000000 variables are more than 2000",
                       lambda tmp: ["bset", "-n", "10000000", "x1"]),
    # level 0 alone: C(2000, 2) pairs
    "rees variables": ("2000 generators make 1999000 pairs", lambda tmp: [
        "check", _write(tmp, '{"mode": "rees", "variables": 2000,'
                             ' "levels": []}')]),
    # the 22,100 cubics in 50 variables, listed; a quadratic duplicate
    # check alone would take minutes
    "listed level": ("22100 generators make 244193950 pairs", lambda tmp: [
        "check", _write(tmp, json.dumps({
            "mode": "fiber", "variables": 50, "embedding_degree": 4,
            "levels": [{"degree": 3, "generators": _cubics(50)}]}))]),
    # the fiber suites count the T-monomials in closed form before they
    # enumerate any; a sum of one binomial per degree would run for
    # minutes
    "verify degree": ("T-monomials up to degree 100000000", lambda tmp: [
        "verify", str(ROOT / "demos" / "families" / "fiber_pair.json"),
        "--max-degree", "100000000"]),
    # a count with more digits than int's decimal-string limit is told
    # by its size
    "verify count": ("over 2^5454 T-monomials up to degree"
                     f" {10**18}", lambda tmp: [
        "verify", _write(tmp, '{"mode": "rees", "variables": 100,'
                              ' "levels": []}'),
        "--max-degree", str(10**18)]),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_input_refused_before_building(tmp_path, case):
    """Run as a child with a hard timeout, so that a family built before
    it is counted fails here in seconds rather than hanging the suite."""
    message, argv = OVERSIZED[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "reescert.cli", *argv(tmp_path)], env=env,
        capture_output=True, text=True, timeout=OVERSIZED_TIMEOUT_S)
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource cap: ")
    assert message in proc.stderr
    assert proc.stdout == ""


def test_trace_refuses_a_wide_high_degree_level_at_once(tmp_path):
    """Fifty listed generators of degree 1000 in one term: the measure
    refuses the 50-row level before it compares any pair of rows, which
    would take 1,225 comparisons of two 1000-entry rows.  A child with a
    hard timeout keeps a slow refusal from hanging the suite."""
    gens = ["x1^1000"] + [f"x1^{1000 - k}*x2^{k}" for k in range(1, 50)]
    path = _write(tmp_path, json.dumps({
        "mode": "rees", "variables": 2,
        "levels": [{"degree": 1000, "generators": gens}]}))
    term = "*".join(f"T[1,{i}]" for i in range(1, 51))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "reescert.cli", "normal-form", "--trace",
         path, term], env=env,
        capture_output=True, text=True, timeout=OVERSIZED_TIMEOUT_S)
    assert proc.returncode == 3
    assert proc.stderr == (
        "resource cap: level matrix has 50 rows, cap is 10\n")


def test_variable_cap_is_inclusive(capsys, tmp_path):
    cap = MAX_VARIABLES
    path = _write(tmp_path, json.dumps({
        "mode": "fiber", "variables": cap, "embedding_degree": 2,
        "levels": [{"degree": 1, "generators": [f"x{cap}", "x1"]}]}))
    code, out, _ = run(capsys, "check", path)
    assert code == 0 and "closed under comparability: yes" in out
    code, out, _ = run(capsys, "bset", "-n", str(cap), "x1")
    assert code == 0 and f"in {cap} variables: 1 member(s)" in out
    code, _, err = run(capsys, "bset", "-n", str(cap + 1), "x1")
    assert code == 3 and f"{cap + 1} variables" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/no/such/family.json")
    assert code == 2
    assert "error" in err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = _write(tmp_path, "[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "certify", path)
    assert code == 2
    assert err == f"error: {path}: not valid JSON (nested too deeply)\n"
    assert out == ""


def test_invalid_family_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "rees", "variables": 0,
                                "levels": []}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "variables" in err


def test_boolean_counts_exit_2(capsys, tmp_path):
    path = tmp_path / "bools.json"
    path.write_text(json.dumps({"mode": "rees", "variables": True,
                                "levels": [{"degree": True, "borel": "x1"}]}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "variables" in err


MALFORMED_FAMILIES = {  # case: (stderr text, description)
    "level not an object": ("level 1: expected an object",
                            {"mode": "rees", "variables": 2, "levels": [3]}),
    "unknown level keys": ("level 1: unknown keys ['color']", {
        "mode": "rees", "variables": 2,
        "levels": [{"degree": 2, "borel": "x1^2", "color": 1}]}),
    "generator of the wrong degree": (
        "level 1: generator x1^3 has degree 3, expected 2", {
            "mode": "rees", "variables": 2,
            "levels": [{"degree": 2, "generators": ["x1^3"]}]}),
    "description not an object": ("family description must be an object",
                                  []),
    "levels not a list": ("levels must be a list",
                          {"mode": "rees", "variables": 2, "levels": {}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FAMILIES))
def test_malformed_family_exits_2(capsys, tmp_path, case):
    message, desc = MALFORMED_FAMILIES[case]
    code, out, err = run(capsys, "check", _write(tmp_path, json.dumps(desc)))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_max_degree_below_one_exits_2(capsys, tower4_file):
    code, out, err = run(capsys, "verify", "--max-degree", "0", tower4_file)
    assert (code, out) == (2, "")
    assert err == "error: --max-degree must be at least 1\n"


LONG_COEFFICIENTS = {  # case: (position named, expression)
    # the product alone has 8,000 digits
    "product": (4001, f"{'9' * 4000}*{'9' * 4000}*T[0,1]"),
    # each denominator prints, but the two terms merge in the normal
    # form over a 6,000-digit one
    "merged sum": (3021, f"1/{'7' * 3000}*T[1,3]*T[1,4]"
                         f" + 1/{'3' * 2999}1*T[1,2]*T[1,5]"),
}


@pytest.mark.parametrize("case", sorted(LONG_COEFFICIENTS))
def test_long_coefficients_exit_2(case):
    """Coefficients past int's 4,300-digit string limit would end in a
    traceback when printed; run as a child, so that the interpreter's
    default limit holds."""
    position, expression = LONG_COEFFICIENTS[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "reescert.cli", "normal-form",
         str(ROOT / "demos" / "families" / "tower4.json"), expression],
        env=env, capture_output=True, text=True,
        timeout=OVERSIZED_TIMEOUT_S)
    assert proc.returncode == 2
    assert proc.stderr == ("error: coefficients over 4000 digits in all"
                           f" at position {position}\n")
    assert proc.stdout == ""
