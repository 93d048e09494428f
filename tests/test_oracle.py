from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from reescert import family, oracle, reduction
from reescert.errors import InternalInvariantError, ResourceCapError
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
    confluence_check,
    normal_form,
    parse_tpolynomial,
    psi_eval,
)

from conftest import family_dict, open_tower4
from bruteforce import (
    fiber_suites_by_chains,
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
    # the closed form against the sum by degree; level 0 alone has v
    # refs for v variables
    for v in range(1, 30):
        fam = build_family({"mode": "rees", "variables": v, "levels": []})
        for top in range(1, 12):
            assert count_tmonomials(fam, top) == sum(
                comb(v + d - 1, d) for d in range(1, top + 1))


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


@pytest.fixture(autouse=True)
def no_held_pass(monkeypatch):
    """Each test starts with no fiber pass held, whatever ran before."""
    monkeypatch.setattr(oracle, "_last_pass", None)


def count_passes(monkeypatch) -> list:
    """The degree of each fiber enumeration from here on, one per pass."""
    calls = []
    enumerate_members = oracle._fiber_members

    def counted(*args):
        calls.append(args[1])
        return enumerate_members(*args)

    monkeypatch.setattr(oracle, "_fiber_members", counted)
    return calls


def outcome(suite, *args) -> str:
    """The repr of what the call returns, or of what it raises."""
    try:
        return repr(suite(*args))
    except Exception as exc:  # noqa: BLE001
        return repr(exc)


def test_verify_enumerates_the_fibers_once(monkeypatch, capsys):
    # both fiber suites of `reescert verify` are one pass over one
    # enumeration
    from reescert.cli import main
    tower4_file = str(Path(__file__).resolve().parent.parent / "demos"
                      / "families" / "tower4.json")
    calls = count_passes(monkeypatch)
    assert main(["verify", tower4_file, "--max-degree", "2"]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert calls == [2]


def tower4_case():
    """A tower4 family and its basis, built afresh."""
    fam = build_family(family_dict("tower4"))
    return fam, build_basis(fam)


def test_suites_on_rebuilt_inputs_share_one_pass(monkeypatch):
    # the benchmark rebuilds every family and basis between the two
    # suites: equal content is enough (three held at once, so that no
    # two share an id)
    first, second, third = [tower4_case() for _ in range(3)]
    want = oracle._check_fibers(*first, 2)
    calls = count_passes(monkeypatch)
    assert verify_unique_normal_forms(*second, 2) == want[0]
    assert verify_kernel_generation(*third, 2) == want[1]
    assert verify_unique_normal_forms(*first, 2) == want[0]
    assert calls == [2]


def test_a_rebuilt_family_is_compared_without_building_a_level(
        monkeypatch):
    # counted levels compare by their least generators: a rebuilt family
    # whose counted levels hold no member yet still hits the held pass
    fam, basis = tower4_case()
    want = verify_unique_normal_forms(fam, basis, 2), \
        verify_kernel_generation(fam, basis, 2)
    rebuilt = build_family(family_dict("tower4"))
    assert all(lv._generators is None for lv in rebuilt.levels if lv.borel)

    def refuse(least):
        raise AssertionError(f"built the Borel set of {least}")

    monkeypatch.setattr(family, "borel_closure", refuse)
    calls = count_passes(monkeypatch)
    assert verify_kernel_generation(rebuilt, basis, 2) == want[1]
    assert verify_unique_normal_forms(rebuilt, basis, 2) == want[0]
    assert calls == []


@pytest.mark.parametrize("change", ["dropped rule", "flipped rule",
                                    "degree"])
def test_changed_inputs_run_the_pass_again(tower4, monkeypatch, change):
    basis = build_basis(tower4)
    case, degree = {"dropped rule": (basis[1:], 2),
                    "flipped rule": (flipped(basis, 0), 2),
                    "degree": (basis, 3)}[change]
    want = oracle._check_fibers(tower4, case, degree)[1]
    calls = count_passes(monkeypatch)
    verify_unique_normal_forms(tower4, basis, 2)
    assert verify_kernel_generation(tower4, case, degree) == want
    assert calls == [2, degree]


@pytest.mark.parametrize("module, cap, value", [
    (oracle, "ENUMERATION_CAP", 100),
    (oracle, "FAILURE_CAP", 0),
    (reduction, "DEFAULT_STEP_CAP", 0),
])
def test_each_cap_is_in_the_key(tower4, monkeypatch, module, cap, value):
    # each cap, lowered once a pass is held, changes what the suites
    # return or raise: they must not read the held pass
    basis = build_basis(tower4)
    dropped = basis[:10] + basis[11:]
    held = outcome(oracle._check_fibers, tower4, dropped, 2)
    assert verify_unique_normal_forms(tower4, dropped, 2).failures
    monkeypatch.setattr(module, cap, value)
    want = outcome(oracle._check_fibers, tower4, dropped, 2)
    assert want != held
    assert outcome(lambda *args: (verify_unique_normal_forms(*args),
                                  verify_kernel_generation(*args)),
                   tower4, dropped, 2) == want


def test_a_list_basis_mutated_in_place_is_read_again(tower4):
    basis = list(build_basis(tower4))
    assert verify_unique_normal_forms(tower4, basis, 2).passed
    rule = basis.pop(10)
    assert verify_kernel_generation(tower4, basis, 2) == \
        oracle._check_fibers(tower4, tuple(basis), 2)[1]
    assert not verify_kernel_generation(tower4, basis, 2).passed
    basis.insert(10, rule)
    assert verify_kernel_generation(tower4, basis, 2).passed


def test_a_pass_that_raises_stores_nothing(tower4, monkeypatch):
    # flipping rule 1 makes two rewrites undo each other at degree 3
    basis = build_basis(tower4)
    cyclic = flipped(basis, 1)
    assert verify_unique_normal_forms(tower4, basis, 3).passed
    calls = count_passes(monkeypatch)
    for suite in (verify_unique_normal_forms, verify_kernel_generation):
        with pytest.raises(InternalInvariantError,
                           match="cycles through 3 monomials"):
            suite(tower4, cyclic, 3)
    assert calls == [3, 3]
    # the pass held before the two that raised is still the one held
    assert verify_kernel_generation(tower4, basis, 3).passed
    assert calls == [3, 3]


def summary(unf, ker):
    """What the chain reference also computes: passed, counts, truncated
    and the failing images of both reports."""
    return ((unf.passed, unf.monomials, unf.fibers, unf.largest_fiber,
             unf.reductions, unf.truncated,
             [f.image for f in unf.failures]),
            (ker.passed, ker.fibers, ker.differences, ker.truncated,
             [f.image for f in ker.failures]))


def reference_summary(fam, basis, max_degree):
    counts, unique, kernel = fiber_suites_by_chains(fam, basis, max_degree)
    cap = oracle.FAILURE_CAP
    return ((not unique, counts["monomials"], counts["fibers"],
             counts["largest_fiber"], counts["monomials"],
             len(unique) > cap, unique[:cap]),
            (not kernel, counts["fibers"], counts["differences"],
             len(kernel) > cap, kernel[:cap]))


def wrong_trail(fam, basis):
    """The basis with rule 5's trail the square of the last ref, which
    lies in the top level: its walks leave their fiber."""
    top = fam.refs()[-1]
    return basis[:5] + (MarkedBinomial(basis[5].lead, TMonomial([top, top])),
                        ) + basis[6:]


def extra_lead(fam, basis):
    """The basis with one more rule: the first squarefree trail, a
    standard monomial of a fiber of two or more, rewriting to the
    square of the last ref.  Every pair-table key is then a lead, but
    not every lead a key."""
    top = fam.refs()[-1]
    trail = next(g.trail for g in basis if len(set(g.trail)) == 2)
    return basis + (MarkedBinomial(trail, TMonomial([top, top])),)


@pytest.mark.parametrize("name", ["tower4", "maxpowers3"])
def test_fiber_suites_match_chain_reference(name, request):
    # the full basis, every single-rule drop, one flipped rule, one
    # wrong trail and one extra lead at degree 2, and the full basis and
    # the wrong trail at degree 3: each fiber's own walk memo must not
    # change an answer where walks leave their fiber either, and a
    # member is reduced on the pair table, not on the basis's leads
    fam = request.getfixturevalue(name)
    basis = build_basis(fam)
    cases = [basis, flipped(basis, 0), wrong_trail(fam, basis),
             extra_lead(fam, basis)]
    cases += [basis[:k] + basis[k + 1:] for k in range(len(basis))]
    runs = [(case, 2) for case in cases] + [(basis, 3), (cases[2], 3)]
    for case, degree in runs:
        got = summary(verify_unique_normal_forms(fam, case, degree),
                      verify_kernel_generation(fam, case, degree))
        assert got == reference_summary(fam, case, degree)
    assert not reference_summary(fam, cases[2], 3)[0][0]
    # under the flipped rule a reduced member is not its own normal
    # form, yet every fiber difference reduces to zero: a pass that took
    # the representative for its normal form would fail the kernel here
    unique, kernel = reference_summary(fam, cases[1], 2)
    assert not unique[0] and kernel[0]


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak of one call, in bytes.  A trace hook, such as
    a coverage tracer, is suspended for the call and garbage is
    collected before it, so that neither the hook's records nor the
    cycles earlier tests left are counted."""
    hook = sys.gettrace()
    sys.settrace(None)
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.settrace(hook)


def index_and_fibers(fam, basis, max_degree):
    """What the fiber pass holds throughout: the basis's rule index and
    the enumeration on its positions."""
    refs = fam.refs()
    index = reduction._RuleIndex(basis, refs)
    return index, oracle._fiber_members(fam, max_degree,
                                        index.positions(refs))


@pytest.mark.parametrize("name", ["tower4", "maxpowers3", "max4_4"])
def test_the_fiber_pass_holds_one_fiber_at_a_time(name, bench_families):
    # the pass frees each fiber once checked and walks it through a memo
    # of its own, and reads the pair table in place, so its peak is its
    # rule index's and enumeration's plus one fiber's walks: one memo
    # for every fiber doubled it, and a second copy of the table's leads
    # added a fifth on max(4,4).  The index and the enumeration are held
    # together in one traced call, as the pass holds them, since a peak
    # taken alone depends on the tuples the allocator's free lists keep
    # from the call before.  A ratio, so that Python versions of
    # different object sizes agree
    fam = build_family(bench_families.LADDER[name])
    basis = build_basis(fam)
    degree = 2 if name == "max4_4" else 3
    # first unmeasured, so that what the family builds on first use is
    # not counted
    oracle._check_fibers(fam, basis, degree)
    held = traced_peak(index_and_fibers, fam, basis, degree)
    fiber_pass = traced_peak(oracle._check_fibers, fam, basis, degree)
    assert fiber_pass <= 1.1 * held, fiber_pass / held


@pytest.mark.parametrize("name, degree", [
    ("tower4", 3), ("maxpowers3", 3), ("fiber_pair", 3), ("max4_3", 3),
    ("max5_3", 2), ("max4_4", 2)])
def test_a_reversed_basis_gives_the_built_basis_reports(
        name, degree, bench_families, monkeypatch):
    # the leads are compared with the pair table by lookup, so rule
    # order cannot matter: the built basis, reversed too, settles every
    # fiber by the one count, and the reducedness test, the one reader
    # of combinations, is never reached
    def no_test(*args):
        raise AssertionError("a fiber reached the reducedness test")

    monkeypatch.setattr(oracle, "combinations", no_test)
    fam = build_family(bench_families.LADDER[name])
    basis = build_basis(fam)
    built = oracle._check_fibers(fam, basis, degree)
    assert built[0].passed and built[1].passed
    assert oracle._check_fibers(fam, basis[::-1], degree) == built


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


def test_fibers_with_no_reduced_member_fail():
    # with no rule, a member is completely reduced when no pair-table
    # lead divides it; on the open family some fibers have no such
    # member, and each failure carries the whole fiber
    fam = build_family(open_tower4())
    report = verify_unique_normal_forms(fam, (), 2)
    assert (report.passed, report.truncated) == (False, True)
    assert len(report.failures) == 32
    first = report.failures[0]
    assert first.reason == ("expected exactly one completely reduced"
                            " member, found 0")
    assert first.monomials == tuple(enumerate_fibers(fam, 2)[first.image])


def test_a_fiber_whose_walks_all_leave_it_still_fails(monkeypatch):
    # every lead of the open family's pair table rewrites to the square
    # of the last ref: the leads are the table's, so one count may settle
    # a fiber, yet each fiber with no reduced member sends every member
    # to that one monomial of another fiber, and must still fail
    fam = build_family(open_tower4())
    top = TMonomial([fam.refs()[-1]] * 2)
    basis = tuple(MarkedBinomial(TMonomial(pair), top)
                  for pair in fam.incomparable_pairs())
    monkeypatch.setattr(oracle, "FAILURE_CAP", 10**6)
    report = verify_unique_normal_forms(fam, basis, 2)
    assert sum(f.reason.endswith("found 0") for f in report.failures) == 10
    assert summary(report, verify_kernel_generation(fam, basis, 2)) == \
        reference_summary(fam, basis, 2)


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


# ------------------------------------------------- the collector's pause

def swap(a, b):
    """The two rules that rewrite a to b and b back to a."""
    a, b = TMonomial(a), TMonomial(b)
    return MarkedBinomial(a, b), MarkedBinomial(b, a)


def paused_passes(fam) -> list:
    """(label, call, whether it raises) of each pass that runs with the
    collector paused, on tower4 (``fam``): the fiber pass, the measure
    suite and confluence, on the basis and on the basis less rule 17,
    then each of the three on a basis whose walks cycle, which raises.
    Each fiber pass has inputs of its own, so none reads a held one."""
    basis = build_basis(fam)
    dropped = basis[:17] + basis[18:]
    # the two-rule cycle of test_presentation's step-cap test, and the
    # pair whose leads share T[1,3], so that confluence walks it
    cycling = swap(((1, 3), (1, 4)), ((1, 2), (1, 5)))
    overlapping = swap(((1, 3), (1, 4)), ((1, 3), (1, 5)))
    return [
        ("fiber pass", lambda: verify_unique_normal_forms(fam, basis, 3),
         False),
        ("fiber pass, dropped rule",
         lambda: verify_kernel_generation(fam, dropped, 3), False),
        ("measure", lambda: verify_measure_decrease(fam, basis), False),
        ("measure, dropped rule",
         lambda: verify_measure_decrease(fam, dropped), False),
        ("confluence", lambda: confluence_check(basis), False),
        ("confluence, dropped rule", lambda: confluence_check(dropped),
         False),
        ("fiber pass, flipped rule 1",
         lambda: verify_kernel_generation(fam, flipped(basis, 1), 3), True),
        ("measure, cycling rules",
         lambda: verify_measure_decrease(fam, cycling), True),
        ("confluence, cycling rules", lambda: confluence_check(overlapping),
         True),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_each_pass_pauses_the_collector_and_restores_it(
        tower4, monkeypatch, enabled):
    # every walk of a pass sees the collector paused; afterwards it is
    # as the caller left it, also when the pass raises
    seen = []
    for module in (oracle, reduction):
        def walk(*args, _walk=module._normal_form):
            seen.append(gc.isenabled())
            return _walk(*args)
        monkeypatch.setattr(module, "_normal_form", walk)
    cases = paused_passes(tower4)
    (gc.enable if enabled else gc.disable)()
    try:
        for label, run, raises in cases:
            seen.clear()
            if raises:
                with pytest.raises(InternalInvariantError, match="cycles"):
                    run()
            else:
                run()
            assert seen and not any(seen), label
            assert gc.isenabled() == enabled, label
    finally:
        gc.enable()


PAUSE_SCRIPT = """
import gc
from conftest import family_dict
from reescert.family import build_family
from test_oracle import paused_passes

cases = paused_passes(build_family(family_dict("tower4")))
gc.collect()
for label, run, raises in cases:
    if not raises:
        run()
        print(label, gc.collect(), sep=": ")
"""


def test_the_paused_passes_leave_no_cyclic_garbage(tower4):
    """The premise that makes the pause safe: nothing a pass leaves
    behind needs the cyclic collector.  A fresh interpreter, so that no
    other test's garbage is counted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(Path(__file__).parent),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PAUSE_SCRIPT], env=env,
                          capture_output=True, text=True,
                          timeout=CYCLE_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{label}: 0" for label, _, raises in paused_passes(tower4)
        if not raises]
