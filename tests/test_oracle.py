from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from reescert import oracle
from reescert.errors import ResourceCapError
from reescert.family import build_family
from reescert.oracle import (
    count_tmonomials,
    enumerate_fibers,
    verify_kernel_generation,
    verify_measure_decrease,
    verify_unique_normal_forms,
)
from reescert.presentation import (
    MarkedBinomial,
    TMonomial,
    build_basis,
)
from reescert.reduction import (
    TPolynomial,
    normal_form,
    parse_tpolynomial,
    psi_eval,
)

from bruteforce import (
    fibers_by_psi,
    normal_form_randomized,
    pair_table_by_rewrite_images,
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


# Wide exponents for the packed image keys: a generator of degree 1000,
# and fiber mode padding a degree-2 level up to degree 1000.
WIDE = {
    "degree1000": {"mode": "rees", "variables": 3, "levels": [
        {"degree": 1000, "generators": [
            "x1^1000", "x1^999*x3", "x2^500*x3^500", "x3^1000"]}]},
    "embedding1000": {"mode": "fiber", "variables": 3,
                      "embedding_degree": 1000, "levels": [
                          {"degree": 2, "borel": "x2*x3"},
                          {"degree": 3, "generators": ["x1^3", "x2^3"]}]},
}


@pytest.mark.parametrize("name", ["tower4", "maxpowers3", "fiber_pair",
                                  *WIDE])
def test_enumerate_fibers_matches_naive_psi(name, request):
    # the same images in the same order, each with the same members in
    # the same order; fiber_pair pads with the auxiliary variables
    fam = (build_family(WIDE[name]) if name in WIDE
           else request.getfixturevalue(name))
    got = enumerate_fibers(fam, 3)
    want = fibers_by_psi(fam, 3)
    assert list(got) == list(want)
    assert list(got.values()) == list(want.values())
    assert all(type(image) is type(key) for image, key in zip(got, want))


def test_suites_take_one_enumeration(tower4, monkeypatch):
    # a bucket map handed in is used as it is, and the reports equal
    # those of a fresh enumeration
    from reescert import oracle
    basis = build_basis(tower4)
    buckets = enumerate_fibers(tower4, 2)
    want = (verify_unique_normal_forms(tower4, basis, 2),
            verify_kernel_generation(tower4, basis, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated again")

    monkeypatch.setattr(oracle, "enumerate_fibers", refuse)
    assert (verify_unique_normal_forms(tower4, basis, 2, buckets=buckets),
            verify_kernel_generation(tower4, basis, 2,
                                     buckets=buckets)) == want


@pytest.mark.parametrize("name,drop", [("tower4", None),
                                       ("maxpowers3", None),
                                       ("tower4", 17)])
def test_suites_share_one_normal_form_memo(name, drop, request):
    # one memo handed to both suites changes neither report, and the
    # kernel suite then finds every monomial it reduces already there
    fam = request.getfixturevalue(name)
    basis = build_basis(fam)
    if drop is not None:
        basis = basis[:drop] + basis[drop + 1:]
    buckets = enumerate_fibers(fam, 3)
    want = (verify_unique_normal_forms(fam, basis, 3, buckets=buckets),
            verify_kernel_generation(fam, basis, 3, buckets=buckets))
    memo = {}
    unf = verify_unique_normal_forms(fam, basis, 3, buckets=buckets,
                                     memo=memo)
    walked = len(memo)
    ker = verify_kernel_generation(fam, basis, 3, buckets=buckets,
                                   memo=memo)
    assert (unf, ker) == want
    assert len(memo) == walked >= unf.monomials
    assert want[0].passed == want[1].passed == (drop is None)


def test_enumeration_cap(monkeypatch):
    fam = build_family({"mode": "rees", "variables": 4,
                        "levels": [{"degree": 2, "borel": "x3*x4"}]})
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 100)
    with pytest.raises(ResourceCapError, match="cap is 100"):
        enumerate_fibers(fam, 3)
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
    table = pair_table_by_rewrite_images(tower4)

    def reduced(m):
        return not any(pair in table for pair in combinations(m.refs, 2))

    buckets = enumerate_fibers(tower4, 2)
    rng = random.Random(3)
    for image, members in list(buckets.items())[:40]:
        kept = set(filter(reduced, members))
        shuffled = members[:]
        rng.shuffle(shuffled)
        assert kept == set(filter(reduced, shuffled))
        assert len(kept) == 1


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


def test_measure_suite_reports_frozen(tower4, maxpowers3):
    basis = build_basis(tower4)
    report = verify_measure_decrease(tower4, basis)
    assert (report.samples, report.steps, report.failures) == (200, 254, ())
    assert report.passed
    report = verify_measure_decrease(maxpowers3, build_basis(maxpowers3))
    assert (report.steps, report.passed) == (328, True)
    # without this rule a sample stops at a monomial of nonzero measure
    assert basis[17].lead.text() == "T[0,2]*T[1,5]"
    report = verify_measure_decrease(tower4, basis[:17] + basis[18:])
    assert (report.steps, len(report.failures)) == (253, 1)
    assert not report.passed


def test_measure_suite_refuses_vacuous_input(tower4):
    # no sample, or no degree to draw one from, would pass vacuously
    basis = build_basis(tower4)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_measure_decrease(tower4, basis, samples, 3)
    with pytest.raises(ValueError, match="max_degree must be at least 1"):
        verify_measure_decrease(tower4, basis, 5, 0)
    assert verify_measure_decrease(tower4, basis, 1, 1).passed


def flipped(basis, k):
    """The basis with rule k's lead and trail swapped."""
    g = basis[k]
    return basis[:k] + (MarkedBinomial(g.trail, g.lead),) + basis[k + 1:]


def test_measure_suite_flags_a_flipped_rule(tower4):
    # rule 0's trail is squarefree, so the flipped basis is a valid one
    # whose rule climbs the measure: the suite at its defaults says so
    basis = build_basis(tower4)
    assert str(basis[0]) == "T[0,1]*T[1,2] - T[0,2]*T[1,1]"
    report = verify_measure_decrease(tower4, flipped(basis, 0))
    assert (report.steps, len(report.failures)) == (252, 5)
    assert not report.passed


SRC = Path(__file__).resolve().parent.parent / "src"
CYCLE_TIMEOUT_S = 10
CYCLE_SCRIPT = """
from conftest import family_dict
from reescert.errors import InternalInvariantError
from reescert.family import build_family
from reescert.oracle import verify_measure_decrease
from reescert.presentation import build_basis
from test_oracle import flipped

fam = build_family(family_dict("tower4"))
try:
    verify_measure_decrease(fam, flipped(build_basis(fam), 1))
except InternalInvariantError as exc:
    print(exc)
"""


def test_measure_suite_stops_at_a_rewrite_cycle():
    """Flipping rule 1 makes two rewrites undo each other.  The walk must
    name the cycle at once rather than spin to the step cap (10^6 steps,
    seconds); a child with a hard timeout keeps a spin from hanging the
    suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(Path(__file__).parent),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CYCLE_SCRIPT], env=env,
                          capture_output=True, text=True,
                          timeout=CYCLE_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("reduction cycles through 3 monomials")


def test_report_records_keep_their_fields(tower4):
    basis = build_basis(tower4)
    unf = verify_unique_normal_forms(tower4, basis, 2)
    ker = verify_kernel_generation(tower4, basis, 2)
    meas = verify_measure_decrease(tower4, basis, samples=5)
    assert type(unf)._fields == (
        "max_degree", "monomials", "fibers", "largest_fiber", "reductions",
        "failures", "truncated")
    assert type(ker)._fields == (
        "max_degree", "fibers", "differences", "failures", "truncated")
    assert type(meas)._fields == ("samples", "max_degree", "steps",
                                  "failures")
    assert unf.passed and ker.passed and meas.passed
    for record in (unf, ker, meas):
        with pytest.raises(AttributeError):
            record.failures = ()

    failed = verify_unique_normal_forms(tower4, basis[:17] + basis[18:], 2)
    fail = failed.failures[0]
    assert type(fail)._fields == ("image", "reason", "monomials")
    assert not failed.passed
    assert not failed._replace(failures=(), truncated=True).passed
    assert not type(ker)(2, 1, 1, (fail,), False).passed
    assert not type(meas)(1, 2, 3, (fail.monomials[0],)).passed
