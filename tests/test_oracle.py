from __future__ import annotations

import random

import pytest

from reescert.errors import ResourceCapError
from reescert.family import build_family
from reescert.oracle import (
    count_tmonomials,
    enumerate_fibers,
    normal_form_randomized,
    verify_kernel_generation,
    verify_unique_normal_forms,
)
from reescert.presentation import (
    TMonomial,
    TPolynomial,
    build_basis,
    is_completely_reduced,
    normal_form,
    parse_tpolynomial,
    psi_eval,
)


def test_count_matches_enumeration(tower4):
    assert count_tmonomials(tower4, 1) == 24
    assert count_tmonomials(tower4, 2) == 24 + 300
    assert count_tmonomials(tower4, 3) == 24 + 300 + 2600
    buckets = enumerate_fibers(tower4, 2)
    assert sum(len(v) for v in buckets.values()) == 324


def test_degree_one_fibers_are_singletons(tower4):
    buckets = enumerate_fibers(tower4, 1)
    assert len(buckets) == 24
    assert all(len(v) == 1 for v in buckets.values())


def test_known_pair_shares_a_fiber(tower4):
    buckets = enumerate_fibers(tower4, 2)
    f = parse_tpolynomial("T[1,3]*T[1,4]", tower4).support()[0]
    g = parse_tpolynomial("T[1,2]*T[1,5]", tower4).support()[0]
    image = psi_eval(f, tower4)
    assert psi_eval(g, tower4) == image
    assert f in buckets[image] and g in buckets[image]


def test_enumeration_cap():
    fam = build_family({"mode": "rees", "variables": 4,
                        "levels": [{"degree": 2, "borel": "x3*x4"}]})
    with pytest.raises(ResourceCapError):
        enumerate_fibers(fam, 3, cap=100)
    with pytest.raises(ValueError):
        enumerate_fibers(fam, 0)


def test_unique_normal_forms_tower4_degree2(tower4):
    basis = build_basis(tower4)
    report = verify_unique_normal_forms(tower4, basis, 2)
    assert report.passed
    assert report.monomials == 324
    assert report.reductions == 324
    assert report.largest_fiber >= 2
    assert report.fibers < report.monomials


def test_kernel_generation_tower4_degree2(tower4):
    basis = build_basis(tower4)
    report = verify_kernel_generation(tower4, basis, 2)
    assert report.passed
    assert report.differences == 324 - report.fibers


def test_fiber_counterexample_suites(fiber_pair):
    basis = build_basis(fiber_pair)
    assert verify_unique_normal_forms(fiber_pair, basis, 2).passed
    assert verify_kernel_generation(fiber_pair, basis, 2).passed


def test_dropped_rule_is_caught(tower4):
    basis = build_basis(tower4)
    broken = basis[:10] + basis[11:]
    report = verify_unique_normal_forms(tower4, broken, 2)
    assert not report.passed
    lead = basis[10].lead
    assert any(lead in fail.monomials for fail in report.failures)
    assert not verify_kernel_generation(tower4, broken, 2).passed


def test_wrong_trail_is_caught(tower4):
    from reescert.presentation import MarkedBinomial
    basis = list(build_basis(tower4))
    g = basis[5]
    basis[5] = MarkedBinomial(g.lead, TMonomial([(4, 1), (4, 1)]))
    report = verify_unique_normal_forms(tower4, tuple(basis), 2)
    assert not report.passed
    assert not verify_kernel_generation(tower4, tuple(basis), 2).passed


def test_representative_ignores_enumeration_order(tower4):
    # the completely reduced member is a property of the fiber set, so
    # shuffling changes nothing
    basis = build_basis(tower4)
    buckets = enumerate_fibers(tower4, 2)
    rng = random.Random(3)
    for image, members in list(buckets.items())[:40]:
        reduced = {m for m in members if is_completely_reduced(m, tower4)}
        shuffled = members[:]
        rng.shuffle(shuffled)
        assert reduced == {
            m for m in shuffled if is_completely_reduced(m, tower4)}
        assert len(reduced) == 1


def test_randomized_strategy_agrees(tower4):
    basis = build_basis(tower4)
    refs = tower4.refs()
    rng = random.Random(48)
    for _ in range(200):
        m = TMonomial(rng.choices(refs, k=rng.randint(1, 5)))
        f = TPolynomial.monomial(m)
        want = normal_form(f, basis)
        for seed in range(50):
            assert normal_form_randomized(
                f, basis, random.Random(seed)) == want
