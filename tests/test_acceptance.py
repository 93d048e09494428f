"""Acceptance gate: ten end-to-end criteria, one test each.

Every test enforces its runtime budget and prints a single pass line
(visible under ``pytest -s``); ``pytest -v`` shows the same ten verdicts
as PASSED/FAILED rows.  Frozen values were produced by the independent
brute-force oracles in bruteforce.py before the library existed.
"""
from __future__ import annotations

import random
import time

import pytest

from conftest import family_dict, trace_measures
from bruteforce import rand_rees_family

from reescert.certify import build_certificate
from reescert.family import (
    build_family,
    characterize,
    is_closed_under_comparability,
)
from reescert.measure import reduction_level, traced_normal_form
from reescert.monomials import borel_closure, ord_pair, parse_monomial, sort_pair
from reescert.oracle import (
    verify_kernel_generation,
    verify_unique_normal_forms,
)
from reescert.presentation import (
    TMonomial,
    build_basis,
)
from reescert.reduction import (
    TPolynomial,
    confluence_check,
    psi_eval,
)


def _passline(num: int, t0: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, (
        f"criterion {num:02d}: runtime {elapsed:.1f}s exceeds {budget:g}s")
    print(f"criterion {num:02d} PASS  {detail}  ({elapsed:.2f}s < {budget:g}s)")


@pytest.fixture(scope="module")
def tower():
    fam = build_family(family_dict("tower4"))
    return fam, build_basis(fam)


@pytest.fixture(scope="module")
def powers():
    fam = build_family(family_dict("maxpowers3"))
    return fam, build_basis(fam)


@pytest.fixture(scope="module")
def pair():
    fam = build_family(family_dict("fiber_pair"))
    return fam, build_basis(fam)


def test_criterion_01_ord_sort_fixtures():
    t0 = time.perf_counter()
    u = parse_monomial("x1^2*x3", 4)
    v = parse_monomial("x2*x3*x4", 4)
    a, b = ord_pair(u, v)
    assert (a.text(), b.text()) == ("x3^2*x4", "x1^2*x2")
    a, b = sort_pair(u, v)
    assert (a.text(), b.text()) == ("x1*x2*x3", "x1*x3*x4")
    _passline(1, t0, 1.0, "ord/sort rewrite fixtures match")


def test_criterion_02_borel_tables():
    t0 = time.perf_counter()
    tables = {
        "x3*x4": ["x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2",
                  "x1*x4", "x2*x4", "x3*x4"],
        "x2^2*x3": ["x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3",
                    "x1*x2*x3", "x2^2*x3"],
        "x1*x2^2": ["x1^3", "x1^2*x2", "x1*x2^2"],
        "x1^5": ["x1^5"],
    }
    for text, expect in tables.items():
        got = [m.text() for m in borel_closure(parse_monomial(text, 4))]
        assert got == expect
    _passline(2, t0, 1.0, "four B-set tables in exact revlex order")


def test_criterion_03_measure_fixture(tower):
    fam, _ = tower
    t0 = time.perf_counter()
    mono = TMonomial([(0, 1), (0, 1), (0, 4), (1, 1), (1, 6), (1, 8),
                      (2, 2), (2, 7)])
    assert reduction_level(mono, fam) == (25, 4)
    _passline(3, t0, 1.0, "worked measure equals (25, 4)")


def test_criterion_04_closure_vs_characterization(tower):
    fam, _ = tower
    t0 = time.perf_counter()
    assert is_closed_under_comparability(fam).closed
    assert characterize(fam).conjunction
    rng = random.Random(20260822)
    for _ in range(200):
        sample = build_family(rand_rees_family(rng))
        closed = is_closed_under_comparability(sample).closed
        assert closed == characterize(sample).conjunction
    _passline(4, t0, 60.0, "verdicts agree on fixture + 200 random families")


def test_criterion_05_groebner_suite(tower):
    fam, basis = tower
    t0 = time.perf_counter()
    assert len(basis) == 104
    for g in basis:
        assert g.lead.degree == 2
        assert len(set(g.lead.refs)) == 2
        assert psi_eval(g.lead, fam) == psi_eval(g.trail, fam)
    report = confluence_check(basis)
    assert report.pairs_total == 104 * 103 // 2
    assert report.pairs_reduced + report.pairs_skipped == report.pairs_total
    assert report.confluent
    _passline(5, t0, 60.0, "quadratic squarefree marked basis, confluent")


def test_criterion_06_exhaustive_oracle(tower):
    fam, basis = tower
    t0 = time.perf_counter()
    unique = verify_unique_normal_forms(fam, basis, 3)
    assert unique.passed
    # degrees 1..3 hold 24 + 300 + 2600 T-monomials
    assert unique.monomials == 2924
    kernel = verify_kernel_generation(fam, basis, 3)
    assert kernel.passed
    _passline(6, t0, 120.0, "unique reduced member per fiber through degree 3")


def test_criterion_07_termination_instrumentation(tower):
    fam, basis = tower
    t0 = time.perf_counter()
    refs = fam.refs()
    rng = random.Random(7)
    violations = 0
    for _ in range(1000):
        mono = TMonomial(rng.choices(refs, k=rng.randint(2, 6)))
        trace = traced_normal_form(TPolynomial.monomial(mono), basis, fam)
        measures = trace_measures(trace)
        for before, after in zip(measures, measures[1:]):
            if not after < before:
                violations += 1
    assert violations == 0
    _passline(7, t0, 120.0, "(c, e) strictly lex-decreases on 1000 reductions")


def test_criterion_08_fiber_counterexample(pair):
    fam, basis = pair
    t0 = time.perf_counter()
    assert is_closed_under_comparability(fam).closed
    chara = characterize(fam)
    assert chara.borel_equal[0] is False
    for g in basis:
        assert g.lead.degree == 2 and len(set(g.lead.refs)) == 2
        assert psi_eval(g.lead, fam) == psi_eval(g.trail, fam)
    assert confluence_check(basis).confluent
    assert verify_unique_normal_forms(fam, basis, 3).passed
    assert verify_kernel_generation(fam, basis, 3).passed
    _passline(8, t0, 30.0, "closed fiber family with non-Borel level verifies")


def test_criterion_09_negative_controls(tower):
    fam, basis = tower
    t0 = time.perf_counter()
    level1 = [m.text() for m in fam.level(1).generators]
    assert len(level1) == 9
    for drop in range(8):
        desc = family_dict("tower4")
        desc["levels"][0] = {
            "degree": 2,
            "generators": level1[:drop] + level1[drop + 1:],
        }
        assert not is_closed_under_comparability(build_family(desc)).closed
    for k in range(len(basis)):
        broken = basis[:k] + basis[k + 1:]
        caught = (not verify_unique_normal_forms(fam, broken, 2).passed
                  or not confluence_check(broken).confluent)
        assert caught
    _passline(9, t0, 60.0, "every deletion of a generator or rule is caught")


def test_criterion_10_powers_instance(powers):
    fam, basis = powers
    t0 = time.perf_counter()
    cert = build_certificate(fam)
    assert cert["conclusions"] == ["koszul", "normal_domain", "cohen_macaulay"]
    assert len(basis) == 121
    for g in basis:
        assert g.lead.degree == 2 and len(set(g.lead.refs)) == 2
        assert psi_eval(g.lead, fam) == psi_eval(g.trail, fam)
    report = confluence_check(basis)
    assert report.pairs_total == 121 * 120 // 2
    assert report.pairs_reduced + report.pairs_skipped == report.pairs_total
    assert report.confluent
    assert verify_unique_normal_forms(fam, basis, 2).passed
    assert verify_kernel_generation(fam, basis, 2).passed
    _passline(10, t0, 120.0, "full certificate with all three conclusions")
