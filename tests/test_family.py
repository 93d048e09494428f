from __future__ import annotations

import json
import random
import re
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from reescert import family
from reescert.certify import build_certificate
from reescert.errors import FamilyError, ResourceCapError
from reescert.family import (
    GenRef,
    Level,
    Witness,
    build_family,
    characterize,
    comparable,
    family_from_file,
    is_closed_under_comparability,
    rewrite_images,
)
from reescert.monomials import Monomial, parse_monomial

from bruteforce import (
    borel_closure_by_filter,
    borel_closure_by_moves,
    order_by_exponents,
    pair_table_by_rewrite_images,
    rand_rees_family,
    sort_closed_form,
)
from conftest import (
    family_dict,
    open_nochain,
    open_pairs,
    open_tower4,
    reference_descs,
)
from test_census import census, max_powers


# ----------------------------------------------------------- construction

def test_tower4_shape(tower4):
    assert tower4.mode == "rees"
    assert tower4.n == 4
    assert [lv.index for lv in tower4.levels] == [0, 1, 2, 3, 4]
    assert [len(lv) for lv in tower4.levels] == [4, 9, 7, 3, 1]
    assert len(tower4) == 24
    assert tower4.top_level == 4
    assert [lv.degree for lv in tower4.levels] == [1, 2, 3, 3, 5]
    assert tower4.generator(GenRef(0, 2)) == parse_monomial("x2", 4)
    assert tower4.generator(GenRef(1, 3)) == parse_monomial("x2^2", 4)
    assert tower4.generator(GenRef(1, 2)) == parse_monomial("x1*x2", 4)
    assert parse_monomial("x4^2", 4) not in tower4.level(1).generators


def test_level_zero_always_injected(maxpowers3):
    # the description's first level repeats the variables; both survive
    assert [len(lv) for lv in maxpowers3.levels] == [3, 3, 6, 10]
    assert maxpowers3.level(0).generators == maxpowers3.level(1).generators
    assert len(maxpowers3) == 22


def test_fiber_shape(fiber_pair):
    assert fiber_pair.mode == "fiber"
    assert [lv.index for lv in fiber_pair.levels] == [1, 2]
    assert fiber_pair.embedding_degree == 4
    assert [g.text() for g in fiber_pair.level(1).generators] == [
        "x3^2", "x3*x4", "x3*x5", "x4*x5"]


def test_explicit_lists_are_revlex_sorted():
    fam = build_family({
        "mode": "rees", "variables": 3,
        "levels": [{"degree": 2,
                    "generators": ["x1*x3", "x1^2", "x2^2", "x1*x2"]}]})
    assert [g.text() for g in fam.level(1).generators] == [
        "x1^2", "x1*x2", "x2^2", "x1*x3"]


def test_duplicate_generators_warn_and_dedupe():
    with pytest.warns(UserWarning, match="duplicate"):
        fam = build_family({
            "mode": "rees", "variables": 2,
            "levels": [{"degree": 1, "generators": ["x1", "x1", "x2"]}]})
    assert len(fam.level(1)) == 2


def test_empty_levels_ok_in_rees():
    fam = build_family({"mode": "rees", "variables": 3, "levels": []})
    assert [lv.index for lv in fam.levels] == [0]
    assert len(fam) == 3


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(mode="weird"), "mode"),
    (lambda d: d.update(variables=0), "variables"),
    (lambda d: d.update(variables="4"), "variables"),
    (lambda d: d.update(extra=1), "unknown"),
    (lambda d: d.update(embedding_degree=9), "fiber"),
    (lambda d: d["levels"].append({"degree": 2, "borel": "x3*x4"}),
     "non-decreasing"),
    (lambda d: d["levels"].__setitem__(0, {"degree": 3, "borel": "x3*x4"}),
     "degree"),
    (lambda d: d["levels"].__setitem__(
        0, {"degree": 2, "borel": "x3*x4", "generators": ["x1^2"]}),
     "exactly one"),
    (lambda d: d["levels"].__setitem__(0, {"degree": 2}), "exactly one"),
    (lambda d: d["levels"].__setitem__(0, {"degree": 2, "generators": []}),
     "non-empty"),
    (lambda d: d["levels"].__setitem__(0, {"degree": 0, "borel": "1"}),
     "positive"),
    (lambda d: d.update(variables=True), "variables"),
    (lambda d: d.update(variables=True, levels=[{"degree": 1, "borel": "x1"}]),
     "variables"),
    (lambda d: d.update(variables=1, levels=[{"degree": True, "borel": "x1"}]),
     "positive integer"),
])
def test_rees_validation_errors(mutate, message):
    data = family_dict("tower4")
    mutate(data)
    with pytest.raises(FamilyError, match=message):
        build_family(data)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("embedding_degree"),
    lambda d: d.update(embedding_degree=3),
    lambda d: d.update(levels=[]),
    lambda d: d.update(embedding_degree=True),
    lambda d: d.update(variables=True),
    lambda d: d["levels"].__setitem__(
        0, {"degree": True, "generators": ["x1"]}),
])
def test_fiber_validation_errors(mutate):
    data = family_dict("fiber_pair")
    mutate(data)
    with pytest.raises(FamilyError):
        build_family(data)


def test_family_from_file(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family_dict("tower4")))
    fam = family_from_file(path)
    assert len(fam) == 24
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FamilyError, match="JSON"):
        family_from_file(bad)


# ---------------------------------------------------------- comparability

def test_comparable_frozen_pairs(tower4):
    assert not comparable(tower4, GenRef(1, 3), GenRef(1, 4))
    assert rewrite_images(tower4, GenRef(1, 3), GenRef(1, 4)) == (
        parse_monomial("x1*x2", 4), parse_monomial("x2*x3", 4))
    assert comparable(tower4, GenRef(0, 2), GenRef(3, 1))
    assert not comparable(tower4, GenRef(0, 1), GenRef(2, 7))
    assert rewrite_images(tower4, GenRef(0, 1), GenRef(2, 7)) == (
        parse_monomial("x3", 4), parse_monomial("x1*x2^2", 4))
    # identical monomials on different levels order to themselves
    assert comparable(tower4, GenRef(2, 1), GenRef(3, 1))


@pytest.mark.parametrize("name", ["tower4", "maxpowers3", "fiber_pair",
                                  "open_tower4"])
def test_pair_table_matches_definitions(name):
    data = open_tower4() if name == "open_tower4" else family_dict(name)
    fam = build_family(data)
    refs = fam.refs()
    incomparable = 0
    witnesses = []
    for i, a in enumerate(refs):
        for b in refs[i + 1:]:
            u, v = fam.generator(a), fam.generator(b)
            if a.level == b.level:
                images = sort_closed_form(u, v)
            else:
                images = order_by_exponents(u, v)
            assert comparable(fam, a, b) == (images == (u, v))
            if images == (u, v):
                continue
            incomparable += 1
            missing = tuple(
                k for k, ref in enumerate((a, b))
                if images[k] not in fam.level(ref.level).generators)
            if missing:
                witnesses.append(Witness((a, b), images, missing))
    assert incomparable == len(fam.incomparable_pairs())
    report = is_closed_under_comparability(fam, all_witnesses=True)
    assert report.witnesses == tuple(witnesses)
    assert report.closed == (name != "open_tower4")


ROOT = Path(__file__).resolve().parent.parent


# Families whose pair tables stress the product keys.
KEYED_FAMILIES = {
    # Two levels at MAX_GENERATOR_DEGREE: the product x1^1000 * x1^1000
    # puts 2000 on one variable, the packing's worst case.  With a width
    # of 10 bits x2^1025*x3^975 and x1^1024*x3^976 would share a key.
    "max degree": {"mode": "rees", "variables": 3, "levels": [
        {"degree": 1000, "generators": [
            "x1^1000", "x1^24*x3^976", "x2^1000", "x2^25*x3^975"]},
        {"degree": 1000, "generators": [
            "x1^1000", "x1^24*x3^976", "x2^1000", "x2^25*x3^975",
            "x1^500*x2^500"]},
    ]},
    # a cross-level pair of equal degrees orders, never sorts
    "equal degrees": {"mode": "rees", "variables": 4, "levels": [
        {"degree": 2, "borel": "x2*x4"},
        {"degree": 2, "generators": ["x1^2", "x1*x3", "x2*x3", "x3^2"]},
    ]},
    "fiber": {"mode": "fiber", "variables": 5, "embedding_degree": 4,
              "levels": [
                  {"degree": 2, "borel": "x2*x5"},
                  {"degree": 3, "generators": [
                      "x1^3", "x1^2*x3", "x1*x2*x4", "x2*x3*x5"]},
              ]},
    # too wide for packed keys: every pair is rewritten
    "wide": {"mode": "rees", "variables": 30, "levels": [
        {"degree": 2, "borel": "x2*x30"},
        {"degree": 3, "generators": ["x1^3", "x1*x2*x29", "x2*x30^2"]},
    ]},
}


def test_pack_width_follows_the_degree_cap():
    width = family.PACK_BITS
    assert 2 * family.MAX_GENERATOR_DEGREE < 1 << width
    assert width == (2 * family.MAX_GENERATOR_DEGREE).bit_length()
    assert 30 * width > family.MEMO_KEY_BITS  # "wide" takes the plain path


def test_pair_table_matches_monomial_route(monkeypatch):
    """The table built on factorizations equals, in content and order,
    the one built by ``rewrite_images`` and lookup by ``Monomial``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from families import KINDS, LADDER, STRATA, draw_family

    families = [family_from_file(path)
                for path in sorted((ROOT / "demos" / "families").glob("*.json"))]
    families.append(build_family(open_tower4()))
    families.extend(build_family(LADDER[name])
                    for name in ("max4_3", "max5_3", "max4_4"))
    rng = random.Random(20261018)
    for kind in KINDS:
        for stratum in STRATA[::4]:
            families.append(build_family(draw_family(rng, stratum, kind)))
    families.extend(build_family(KEYED_FAMILIES[name])
                    for name in sorted(KEYED_FAMILIES))
    assert len(families) == 7 + 5 * 5 + len(KEYED_FAMILIES)
    for fam in families:
        table = pair_table_by_rewrite_images(fam)
        assert list(fam.incomparable_pairs().items()) == list(table.items())
        assert open_pairs(fam) == tuple(
            key for key, positions in table.items() if None in positions)


def _generated_family(n: int, degree: int) -> dict:
    gens = ["*".join(f"x{i}" for i in fact)
            for fact in combinations_with_replacement(range(1, n + 1), degree)]
    return {"mode": "rees", "variables": n,
            "levels": [{"degree": degree, "generators": gens}]}


def test_pair_cap(monkeypatch):
    """The cap is checked where refs and pairs are built, before either
    is: the family is built, and counted, past it."""
    # 13 variables plus the 1,820 quartics in them: 1,833 refs, 1,679,028
    # pairs
    fam = build_family(_generated_family(13, 4))
    assert len(fam) == 1833
    for scan in (fam.refs, fam.incomparable_pairs):
        with pytest.raises(ResourceCapError, match="1833 generators"):
            scan()
    assert (fam._refs, fam._scan) == (None, None)
    # the cap is inclusive: tower4 has 24 refs, 276 pairs
    monkeypatch.setattr(family, "PAIR_CAP", 276)
    assert len(build_family(family_dict("tower4")).refs()) == 24
    monkeypatch.setattr(family, "PAIR_CAP", 275)
    fam = build_family(family_dict("tower4"))
    assert len(fam) == 24
    with pytest.raises(ResourceCapError):
        open_pairs(fam)
    with pytest.raises(ResourceCapError):
        fam.refs()


def test_level_pair_cap(monkeypatch):
    """Construction caps the pairs of levels, which bound the Borel
    counts of a certificate by the paper's theorem; the cap is
    inclusive: tower4 has 5 levels, 10 pairs of them."""
    monkeypatch.setattr(family, "PAIR_CAP", 10)
    assert len(build_family(family_dict("tower4")).levels) == 5
    monkeypatch.setattr(family, "PAIR_CAP", 9)
    with pytest.raises(ResourceCapError, match="5 levels make 10 pairs"):
        build_family(family_dict("tower4"))


def _one_level(level: dict) -> dict:
    return {"mode": "rees", "variables": 1, "levels": [level]}


def test_generator_degree_cap():
    cap = family.MAX_GENERATOR_DEGREE
    # the cap is inclusive
    fam = build_family(_one_level({"degree": cap, "borel": f"x1^{cap}"}))
    assert len(fam.factors(GenRef(1, 1))) == cap
    with pytest.raises(ResourceCapError, match="degree 1001 is over 1000"):
        build_family(_one_level({"degree": cap + 1,
                                 "borel": f"x1^{cap + 1}"}))
    # refused before any generator of the level is parsed
    with pytest.raises(ResourceCapError):
        build_family(_one_level({"degree": 3000000,
                                 "generators": ["not a monomial"]}))


def test_counted_level_factor_cap(monkeypatch):
    """A counted level refuses to make more than ``BOREL_ENTRY_CAP``
    factors, members times degree, before making any; the cap is
    inclusive.  B(x3^440) has 97,461 members, 42.9 million factors."""
    fam = build_family(_one_level({"degree": 440, "borel": "x3^440"}) | {
        "variables": 3})
    with pytest.raises(ResourceCapError,
                       match="97461 members of degree 440, more than"):
        fam.factors(GenRef(1, 1))
    assert fam.level(1)._factors is None
    monkeypatch.setattr(family, "BOREL_ENTRY_CAP", 18)
    desc = {"mode": "fiber", "variables": 4, "embedding_degree": 3,
            "levels": [{"degree": 2, "borel": "x3*x4"}]}
    assert len(build_family(desc).level(1).factors) == 9
    monkeypatch.setattr(family, "BOREL_ENTRY_CAP", 17)
    with pytest.raises(ResourceCapError):
        build_family(desc).level(1).factors


def test_factors_and_level_refs(tower4, fiber_pair):
    for fam in (tower4, fiber_pair):
        for lv in fam.levels:
            refs = tuple(r for r in fam.refs() if r.level == lv.index)
            assert len(refs) == len(lv)
            for j, ref in enumerate(refs, start=1):
                assert type(ref) is GenRef
                assert ref == GenRef(lv.index, j)
        for ref in fam.refs():
            assert fam.factors(ref) == fam.generator(ref).factors()
        # each table value is a pair of the family's own refs, one from
        # the level of each lead ref
        own = set(fam.refs())
        for (a, b), (c, d) in fam.incomparable_pairs().items():
            assert (type(c), type(d)) == (GenRef, GenRef)
            assert (c.level, d.level) == (a.level, b.level)
            assert {c, d} <= own
    for bad in (GenRef(1, 10), GenRef(7, 1), GenRef(1, 0), GenRef(1, -1)):
        with pytest.raises(ValueError) as expected:
            tower4.generator(bad)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            tower4.factors(bad)
    with pytest.raises(ValueError):
        tower4.level(7)


def test_level_repr_and_unhashable_refs(tower4):
    fam = build_family({"mode": "rees", "variables": 2, "levels": [
        {"degree": 1, "generators": ["x1", "x2"]}]})
    assert repr(fam.level(1)) == (
        "Level(index=1, degree=1, generators=(Monomial('x1', n=2),"
        " Monomial('x2', n=2)))")
    # a list ref resolves like a GenRef
    assert tower4.factors([1, 2]) == tower4.factors(GenRef(1, 2))


def test_counted_level_builds_on_first_read():
    """A Borel level and level 0 keep their size and least generator;
    their members come on the first read of ``generators``, and then
    equal, hash and print like the listed level of the same members."""
    fam = build_family({"mode": "rees", "variables": 3, "levels": [
        {"degree": 2, "borel": "x2*x3"}]})
    listed = build_family({"mode": "rees", "variables": 3, "levels": [
        {"degree": 2, "generators": ["x1^2", "x1*x2", "x2^2", "x1*x3",
                                     "x2*x3"]}]})
    for lv, want in zip(fam.levels, listed.levels):
        # level 0 is counted in every rees family
        assert lv.borel and want.borel == (want.index == 0)
        assert (len(lv), lv.last) == (len(want), want.last)
        assert lv._generators is None
        assert lv == want and hash(lv) == hash(want)
        assert repr(lv) == repr(want)
        assert lv.generators is lv.generators
        assert lv.generators == borel_closure_by_filter(lv.last)
    assert fam.level(1).last == Monomial((0, 1, 1))
    plain = Level(1, 2, listed.level(1).generators)
    assert plain == fam.level(1) and len(plain) == 5 and not plain.borel
    with pytest.raises(AttributeError):
        fam.level(1).degree = 3


@pytest.mark.parametrize("n", [1, 2, 40])
def test_level_zero_alone_is_the_borel_set_of_x_n(n):
    """A rees family with no listed level: level 0 builds no member
    until read, then holds x1..xn in order, the Borel set of x_n, and
    its certificate has no rule and all three conclusions."""
    desc = {"mode": "rees", "variables": n, "levels": []}
    fam = build_family(desc)
    (level0,) = fam.levels
    assert (level0.index, level0.degree, len(level0)) == (0, 1, n)
    assert level0.borel and level0._generators is None
    assert level0.last == Monomial.variable(n, n)
    assert level0.generators == borel_closure_by_filter(level0.last) == tuple(
        Monomial.variable(i, n) for i in range(1, n + 1))
    cert = build_certificate(build_family(desc))
    assert cert["basis_size"] == 0
    assert cert["conclusions"] == ["koszul", "normal_domain", "cohen_macaulay"]


def test_comparable_argument_checks(tower4):
    with pytest.raises(ValueError):
        comparable(tower4, GenRef(1, 4), GenRef(1, 3))
    with pytest.raises(ValueError):
        comparable(tower4, GenRef(1, 3), GenRef(1, 3))
    with pytest.raises(ValueError):
        comparable(tower4, GenRef(1, 10), GenRef(2, 1))
    with pytest.raises(ValueError):
        comparable(tower4, GenRef(5, 1), GenRef(5, 2))


# ---------------------------------------------------------------- closure

def test_tower4_closed(tower4):
    report = is_closed_under_comparability(tower4)
    assert report.closed
    assert report.witnesses == ()
    assert report.pairs_checked == 24 * 23 // 2
    assert not report.truncated


def test_maxpowers3_closed(maxpowers3):
    assert is_closed_under_comparability(maxpowers3).closed


def test_fiber_pair_closed(fiber_pair):
    assert is_closed_under_comparability(fiber_pair).closed


def test_missing_generator_yields_witnesses(monkeypatch):
    fam = build_family(open_tower4())
    report = is_closed_under_comparability(fam, all_witnesses=True)
    assert not report.closed
    images = {img.text() for w in report.witnesses for k in w.missing
              for img in (w.images[k],)}
    assert images == {"x1*x2"}
    # sort(x1^2, x2^2) = (x1*x2, x1*x2): both images missing
    both = [w for w in report.witnesses if w.missing == (0, 1)]
    assert any(w.images[0].text() == "x1*x2" for w in both)

    monkeypatch.setattr(family, "WITNESS_CAP", 1)
    capped = is_closed_under_comparability(fam)
    assert not capped.closed
    assert len(capped.witnesses) == 1
    assert capped.truncated
    assert capped.witnesses[0] == report.witnesses[0]


def test_all_witnesses_are_the_open_table_entries(bench_families):
    """Every table entry with a missing image is a witness, in table
    order, and no other pair is; the images are the rewrites."""
    descs = reference_descs(bench_families)
    open_families = 0
    for name, desc in descs.items():
        fam = build_family(desc)
        table = pair_table_by_rewrite_images(fam)
        report = is_closed_under_comparability(fam, all_witnesses=True)
        want = [(key, tuple(k for k in (0, 1) if positions[k] is None))
                for key, positions in table.items() if None in positions]
        assert [(w.pair, w.missing) for w in report.witnesses] == want, name
        assert all(w.images == rewrite_images(fam, *w.pair)
                   for w in report.witnesses)
        assert report.closed == (not want) and not report.truncated
        open_families += bool(want)
    assert open_families >= 5


# ------------------------------------------------- on-demand pair table

def _scan_families(bench_families) -> dict:
    """The reference families, max(5,3) and ``open_nochain``, whose
    closure scan stops at its 33rd open pair."""
    descs = reference_descs(bench_families)
    descs["max5_3"] = bench_families.LADDER["max5_3"]
    descs["open_nochain"] = open_nochain()
    return descs


def test_stopped_scan_leaves_the_same_table(bench_families):
    """After a closure scan, stopped or not, the table and its open
    entries equal the reference in content and order, and the report is
    the one a scan of a fully classified table gives."""
    stopped = 0
    for name, desc in _scan_families(bench_families).items():
        fam = build_family(desc)
        report = is_closed_under_comparability(fam)
        stopped += report.truncated
        # a stopped scan is not held: the next read classifies afresh
        assert (fam._scan is None) == report.truncated, name
        table = pair_table_by_rewrite_images(fam)
        assert list(fam.incomparable_pairs().items()) == list(table.items())
        assert open_pairs(fam) == tuple(
            key for key, positions in table.items() if None in positions)
        drained = build_family(desc)
        open_pairs(drained)
        assert is_closed_under_comparability(drained) == report, name
        assert is_closed_under_comparability(fam) == report, name
    assert stopped >= 5


def _pairs_through(fam, count: int) -> int:
    """Ref pairs in lexicographic order up to and including the
    ``count``-th one whose rewrite leaves the family, by brute force."""
    refs = fam.refs()
    seen = 0
    for checked, (a, b) in enumerate(
            ((a, b) for i, a in enumerate(refs) for b in refs[i + 1:]),
            start=1):
        images = rewrite_images(fam, a, b)
        seen += any(img not in fam.level(ref.level).generators
                    for img, ref in zip(images, (a, b)))
        if seen == count:
            return checked
    raise AssertionError(f"fewer than {count} open pairs")


def test_pairs_checked_counts_through_the_stop_pair(monkeypatch):
    scans = []
    original = family._classify

    def classify(levels, refs, weight, pairs, *rest):
        scans.append(pairs)
        return original(levels, refs, weight, pairs, *rest)

    monkeypatch.setattr(family, "_classify", classify)
    fam = build_family(open_nochain())
    v = len(fam)
    report = is_closed_under_comparability(fam)
    # nothing past the stop pair is classified
    (pairs,) = scans
    stop = open_pairs(fam)[family.WITNESS_CAP]
    assert next(reversed(pairs)) == stop
    assert len(open_pairs(fam)) == 93
    assert report.truncated and len(report.witnesses) == family.WITNESS_CAP
    assert report.pairs_checked == _pairs_through(
        fam, family.WITNESS_CAP + 1) == 198
    full = is_closed_under_comparability(fam, all_witnesses=True)
    assert full.pairs_checked == v * (v - 1) // 2 == 561
    assert not full.truncated and len(full.witnesses) == 93

    monkeypatch.setattr(family, "WITNESS_CAP", 1)
    for fam in (build_family(open_nochain()), build_family(open_tower4())):
        report = is_closed_under_comparability(fam)
        refs = fam.refs()
        pairs = [(a, b) for i, a in enumerate(refs) for b in refs[i + 1:]]
        assert report.truncated and len(report.witnesses) == 1
        assert report.pairs_checked == pairs.index(open_pairs(fam)[1]) + 1
        assert report.pairs_checked == _pairs_through(fam, 2)


# ---------------------------------------- prefix skip and lazy factoring

def _skip_inputs() -> list[dict]:
    """A seeded sample of the (3, 3, 3) census in both modes, seeded
    random families with at least one listed level, and the 30-variable
    family whose rewrites are not memoized."""
    rng = random.Random(20261019)
    descs = rng.sample(census("rees"), 80) + rng.sample(census("fiber"), 80)
    listed = 0
    while listed < 60:
        desc = rand_rees_family(rng, n_max=6)
        if any("generators" in lv for lv in desc["levels"]):
            descs.append(desc)
            listed += 1
    descs.append(KEYED_FAMILIES["wide"])
    return descs


def test_prefix_skip_matches_brute_force(monkeypatch):
    """Every level's tails are non-decreasing, and the table with the
    comparable cross-level pairs skipped by bisection equals the one
    from ``rewrite_images`` on every pair.  No fixed pair reaches
    ``ord_factors``, memoized or not."""
    fixed = []
    original = family.ord_factors

    def ordering(fu, fv):
        images = original(fu, fv)
        fixed.append(images == (fu, fv))
        return images

    monkeypatch.setattr(family, "ord_factors", ordering)
    assert 30 * family.PACK_BITS > family.MEMO_KEY_BITS
    for desc in _skip_inputs():
        fam = build_family(desc)
        for lv in fam.levels:
            tails = [g.tail_index() for g in lv.generators]
            assert tails == sorted(tails), desc
        table = pair_table_by_rewrite_images(fam)
        assert list(fam.incomparable_pairs().items()) == list(
            table.items()), desc
    assert fixed and not any(fixed)


def _counting(monkeypatch, calls: list, owner, name: str):
    """Replace ``owner.name`` with a wrapper that appends its arguments
    to ``calls``."""
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


def _refuse(*args):
    raise AssertionError("built a Borel set")


def test_a_conjunction_certificate_factors_nothing(monkeypatch):
    """The certificate of a family with the structural conjunction
    builds no member of a Borel level, no ref and no pair, factors no
    generator, reads no level's factorizations and runs no Borel test:
    its levels are counted Borel sets, or tower4's one generator x1^5,
    the least of its level.  So max(12,4), past ``PAIR_CAP``, is
    certified too."""
    conjunction = next(
        desc for desc in census("rees")
        if len(desc["levels"]) == 3
        and characterize(build_family(desc)).conjunction)
    fiber = {"mode": "fiber", "variables": 4, "embedding_degree": 4,
             "levels": [{"degree": 2, "borel": "x3*x4"},
                        {"degree": 3, "borel": "x2^3"}]}
    factored, tested = [], []
    _counting(monkeypatch, factored, Monomial, "factors")
    _counting(monkeypatch, tested, family, "_factors_below")
    monkeypatch.setattr(family, "borel_closure", _refuse)
    for desc in (family_dict("tower4"), conjunction, fiber,
                 max_powers(4, 3), max_powers(12, 4)):
        fam = build_family(desc)
        cert = build_certificate(fam)
        assert cert["conclusions"], desc
        assert (fam._refs, fam._scan) == (None, None)
        assert all(lv._generators is None for lv in fam.levels if lv.borel)
        assert all(lv._factors is None for lv in fam.levels)
    assert factored == [] and tested == []
    # a scan reads a counted level's factorizations and builds no member;
    # a later read of a member builds them by the patched name
    fam = build_family(family_dict("tower4"))
    assert open_pairs(fam) == ()
    assert all(lv._generators is None for lv in fam.levels if lv.borel)
    with pytest.raises(AssertionError, match="built a Borel set"):
        fam.generator(GenRef(1, 1))


def test_a_certificate_rewrites_only_the_open_blocks(monkeypatch):
    """``certify`` rewrites no product of a block the paper's theorem
    settles.  ``open_nochain``'s three levels (degrees 1, 2, 3) are Borel
    sets without the support chain between levels 1 and 2: only pairs
    of levels 1 x 2 are rewritten, none sorted.  tower4 has the
    conjunction: nothing is rewritten.  No block of ``fiber_pair`` is
    settled: it rewrites no more products than one full scan."""
    sorted_, ordered = [], []
    _counting(monkeypatch, sorted_, family, "sort_factors")
    _counting(monkeypatch, ordered, family, "ord_factors")
    assert not build_certificate(build_family(open_nochain()))[
        "closed_under_comparability"]
    assert sorted_ == []
    assert ordered and {(len(a), len(b)) for a, b in ordered} == {(2, 3)}
    ordered.clear()
    assert build_certificate(build_family(family_dict("tower4")))[
        "conclusions"]
    assert sorted_ == ordered == []
    assert build_certificate(build_family(family_dict("fiber_pair")))[
        "conclusions"]
    certified = len(sorted_) + len(ordered)
    sorted_.clear()
    ordered.clear()
    open_pairs(build_family(family_dict("fiber_pair")))
    assert 0 < certified <= len(sorted_) + len(ordered)


def _as_listed(desc: dict):
    """The family of ``desc`` with every level given as a list."""
    fam = build_family(desc)
    listed = dict(desc, levels=[
        {"degree": lv.degree, "generators": [g.text() for g in lv.generators]}
        for lv in fam.levels if lv.index > 0])
    return build_family(listed)


def test_listed_levels_are_still_tested(monkeypatch, bench_families):
    """``characterize`` tests the kept factorization of each generator
    of a listed level against the least one, the least itself excepted,
    and no generator of a built level."""
    drop = bench_families.draw_family(
        random.Random(3), (20, 30), "rees-drop")
    tested = []
    _counting(monkeypatch, tested, family, "_factors_below")
    for desc in (family_dict("fiber_pair"), drop):
        fam = build_family(desc)
        del tested[:]
        ch = characterize(fam)
        listed = [fam.level(pos) for pos, lv in enumerate(
            desc["levels"], start=1) if "generators" in lv]
        assert listed
        assert tested == [(f, lv.factors[-1]) for lv in listed
                          for f in lv.factors[:-1]]
        assert ch == characterize(_as_listed(desc)), desc
    assert not characterize(build_family(drop)).conjunction


def test_factors_are_kept_and_the_scan_reuses_refs():
    """A factorization read before the scan is the one the scan uses
    and returns after it, and every ref in the table is one of the
    family's own ``refs()`` objects."""
    fam = build_family(open_tower4())
    before = {ref: fam.factors(ref) for ref in fam.refs()[::3]}
    assert fam.factors(GenRef(1, 1)) is fam.factors(GenRef(1, 1))
    assert not is_closed_under_comparability(fam).closed
    table = fam.incomparable_pairs()
    for ref, f in before.items():
        assert fam.factors(ref) is f
    for ref in fam.refs():
        assert fam.factors(ref) == fam.generator(ref).factors()
    own = {id(ref) for ref in fam.refs()}
    for pair, trail in table.items():
        assert {id(ref) for ref in pair + trail if ref is not None} <= own


# ----------------------------------------------------- characterization

def test_borel_equal_counts_what_the_filter_builds(bench_families):
    """Equality by membership and count agrees with building the Borel
    set by brute force and comparing the tuples, and ``borel_subset``
    with inclusion in the closure under single moves."""
    descs = reference_descs(bench_families)
    for name in ("max4_3", "max5_3"):
        descs[name] = bench_families.LADDER[name]
    for path in sorted((ROOT / "demos" / "families").glob("*.json")):
        descs[path.stem] = json.loads(path.read_text())
    # x2^2 lies outside B(x1*x3), the Borel set of its least generator
    descs["outside"] = {"mode": "rees", "variables": 3, "levels": [
        {"degree": 2, "generators": ["x2^2", "x1*x3"]}]}
    unequal = outside = 0
    for name, desc in descs.items():
        fam = build_family(desc)
        levels = [lv for lv in fam.levels if lv.index > 0]
        want = tuple(lv.generators == borel_closure_by_filter(lv.last)
                     for lv in levels)
        ch = characterize(fam)
        assert ch.borel_equal == want, name
        assert ch.borel_subset == tuple(
            set(lv.generators) <= borel_closure_by_moves(lv.last)
            for lv in levels), name
        unequal += want.count(False)
        outside += ch.borel_subset.count(False)
    assert unequal >= 5 and outside >= 1

def test_characterize_tower4(tower4):
    ch = characterize(tower4)
    assert ch.level_indices == (1, 2, 3, 4)
    assert ch.borel_equal == (True, True, True, True)
    assert ch.borel_subset == (True, True, True, True)
    assert ch.chain == (True, True, True)
    assert ch.conjunction


def test_characterize_fiber_pair(fiber_pair):
    ch = characterize(fiber_pair)
    assert ch.borel_equal == (False, False)
    assert ch.borel_subset == (True, True)
    assert ch.chain == (True,)
    assert not ch.conjunction
    # closed anyway: sufficiency without necessity in fiber mode
    assert is_closed_under_comparability(fiber_pair).closed


def test_conjunction_matches_closure_on_random_families():
    rng = random.Random(20260822)
    for _ in range(60):
        fam = build_family(rand_rees_family(rng))
        ch = characterize(fam)
        closed = is_closed_under_comparability(fam).closed
        assert ch.conjunction == closed


def test_deleting_inner_generator_breaks_closure():
    rng = random.Random(31)
    tried = 0
    while tried < 20:
        data = rand_rees_family(rng)
        fam = build_family(data)
        if not is_closed_under_comparability(fam).closed:
            continue
        target = None
        for pos, lv in enumerate(fam.levels):
            if lv.index > 0 and len(lv) > 1:
                target = (pos, lv)
                break
        if target is None:
            continue
        tried += 1
        pos, lv = target
        keep = rng.randrange(len(lv) - 1)  # never the last generator
        gens = [g.text() for j, g in enumerate(lv.generators) if j != keep]
        data["levels"][pos - 1] = {"degree": lv.degree, "generators": gens}
        broken = build_family(data)
        assert not is_closed_under_comparability(broken).closed


# ---------------------------------------------------------------- records

def test_level_record(tower4):
    lv = tower4.level(1)
    assert (lv.index, lv.degree) == (1, 2)
    assert len(lv) == len(lv.generators) == 9
    assert lv.last == lv.generators[-1] == parse_monomial("x3*x4", 4)
    with pytest.raises(AttributeError):
        lv.degree = 3
    assert lv == family.Level(1, 2, lv.generators)
    assert hash(lv) == hash(family.Level(1, 2, lv.generators))
    assert lv != family.Level(1, 2, lv.generators[:-1])


def test_closure_records_keep_their_fields(monkeypatch):
    fam = build_family(open_tower4())
    monkeypatch.setattr(family, "WITNESS_CAP", 1)
    report = is_closed_under_comparability(fam)
    assert type(report)._fields == (
        "closed", "witnesses", "pairs_checked", "truncated")
    w = report.witnesses[0]
    assert type(w)._fields == ("pair", "images", "missing")
    twin = Witness(w.pair, w.images, w.missing)
    assert twin == w and hash(twin) == hash(w)
    assert len({w, twin}) == 1
    ch = characterize(fam)
    assert type(ch)._fields == ("level_indices", "borel_equal",
                                "borel_subset", "chain", "conjunction")
    for record, name in ((report, "closed"), (w, "pair"),
                         (ch, "conjunction")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
