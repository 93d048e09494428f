from __future__ import annotations

import json

import pytest

from reescert.cli import main
from conftest import family_dict


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
    from reescert.presentation import basis_from_json, build_basis

    code, out, _ = run(capsys, "basis", tower4_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    fam = family_from_file(tower4_file)
    assert basis_from_json(data, fam) == build_basis(fam)
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


def test_normal_form_power_over_cap_exits_3(capsys, tower4_file):
    code, out, err = run(capsys, "normal-form", tower4_file,
                         "T[0,1]^100000000")
    assert code == 3
    assert "resource cap" in err
    assert out == ""


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

def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/no/such/family.json")
    assert code == 2
    assert "error" in err


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
