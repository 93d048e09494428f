"""The paper's theorem and the product identity as census tests.

``certify`` reads each block of two levels whose own two-level family
has the structural conjunction (both levels the Borel set of their least
generator, the two least generators under the support chain; level 0
added in rees mode) as closed by the paper's theorem, and counts its
rules as its pairs less |B(u_i*u_j)|, which rests on the product
identity B(u)*B(v) = B(uv) for principal Borel sets.  It scans only the
other blocks.  These tests check both premises by enumeration and
compare that route with a full closure scan, witnesses included.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from itertools import combinations_with_replacement, product as cartesian
from math import comb
from pathlib import Path

import pytest

from reescert import certify, family, hull, monomials
from reescert.certify import _routes, build_certificate, closure_json
from reescert.cli import main
from reescert.errors import FamilyError, NotClosedError, ResourceCapError
from reescert.family import (
    Witness,
    build_family,
    characterize,
    is_closed_under_comparability,
    rewrite_images,
)
from reescert.presentation import build_basis

from bruteforce import (
    borel_closure_by_filter,
    from_factors,
    product,
    settled_steps_by_blocks,
)
from conftest import family_dict, open_nochain, open_pairs, open_tower4

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "families"


def census_tops(n: int, max_degree: int) -> list[tuple[int, str]]:
    """Every monomial of degree 1..max_degree in n variables as
    (degree, text), ordered by degree."""
    return [(d, "*".join(f"x{i}" for i in factors))
            for d in range(1, max_degree + 1)
            for factors in combinations_with_replacement(range(1, n + 1), d)]


def census(mode: str, n: int = 3, max_degree: int = 3,
           max_levels: int = 3) -> list[dict]:
    """The full-Borel families of the (n, d, k) census: 1..k levels, each
    the Borel set of one top, with non-decreasing degrees; in fiber mode
    the embedding degree is the top degree + 1."""
    tops = census_tops(n, max_degree)
    out = []
    for k in range(1, max_levels + 1):
        for combo in combinations_with_replacement(tops, k):
            desc = {"mode": mode, "variables": n,
                    "levels": [{"degree": d, "borel": top}
                               for d, top in combo]}
            if mode == "fiber":
                desc["embedding_degree"] = combo[-1][0] + 1
            out.append(desc)
    return out


def listed_census(mode: str, n: int, degrees) -> list[dict]:
    """Every family of listed levels of the given degrees in n variables,
    each level a non-empty subset of the monomials of its degree; in
    fiber mode the embedding degree is the top degree + 1."""
    choices = []
    for d in degrees:
        monos = [text for degree, text in census_tops(n, d) if degree == d]
        choices.append([[m for k, m in enumerate(monos) if mask >> k & 1]
                        for mask in range(1, 1 << len(monos))])
    out = []
    for gens in cartesian(*choices):
        desc = {"mode": mode, "variables": n,
                "levels": [{"degree": d, "generators": g}
                           for d, g in zip(degrees, gens)]}
        if mode == "fiber":
            desc["embedding_degree"] = degrees[-1] + 1
        out.append(desc)
    return out


def assert_routes_agree(desc: dict, label) -> dict:
    """The certificate against a full closure scan of a freshly built
    family: verdict, witnesses (pair, images, missing), pairs checked
    and rule count."""
    cert = build_certificate(build_family(desc))
    fam = build_family(desc)
    report = is_closed_under_comparability(fam)
    assert cert["closed_under_comparability"] == report.closed, label
    assert cert["pairs_checked"] == report.pairs_checked, label
    scanned = closure_json(report, characterize(fam))["witnesses"]
    assert cert.get("witnesses", []) == scanned, label
    if report.closed:
        assert cert["basis_size"] == len(fam.incomparable_pairs()), label
    return cert


def route_counts(desc: dict) -> tuple[int, int]:
    """The blocks of levels of ``desc``'s family that a certificate
    classifies from its levels' Borel hulls, and those it scans."""
    fam = build_family(desc)
    scanned, routed = _routes(fam, characterize(fam))
    return len(routed), len(scanned)


def all_blocks(fam) -> set:
    """Every block of levels (i, j), i <= j by level index."""
    indices = [lv.index for lv in fam.levels]
    return {(i, j) for k, i in enumerate(indices) for j in indices[k:]}


def settled_blocks(fam) -> set:
    """The blocks of levels the paper's theorem settles: every block
    less those ``_routes`` scans or routes."""
    scanned, routed = _routes(fam, characterize(fam))
    return all_blocks(fam) - scanned.union(routed)


def open_pairs_in_settled_blocks(fam) -> list:
    """The open pairs of a full scan of ``fam`` that lie outside every
    block of levels ``_routes`` scans or routes, so in a block the
    paper's theorem settles: none, if the settled rule is sound."""
    scanned, routed = _routes(fam, characterize(fam))
    blocks = scanned.union(routed)
    return [(a, b) for a, b in open_pairs(fam)
            if (a.level, b.level) not in blocks]


@pytest.mark.parametrize("mode", ["rees", "fiber"])
def test_conjunction_is_closure_on_the_census(mode):
    """The paper's hypothesis decides closure on every family of the
    (3, 3, 3) census, in both modes."""
    descs = census(mode)
    assert len(census_tops(3, 3)) == 19
    closed = 0
    for desc in descs:
        fam = build_family(desc)
        is_closed = is_closed_under_comparability(fam).closed
        assert characterize(fam).conjunction == is_closed, desc
        closed += is_closed
    assert (len(descs), closed) == (1539, 173)


def test_product_identity_by_enumeration():
    """B(u)*B(v) = B(uv) for every pair of monomials of degree 1..3 in
    n <= 5 variables, each Borel set filtered from every monomial of its
    degree."""
    pairs = 0
    for n in range(1, 6):
        monos = [from_factors(factors, n)
                 for d in range(1, 4)
                 for factors in combinations_with_replacement(
                     range(1, n + 1), d)]
        members = {u: {m.exps for m in borel_closure_by_filter(u)}
                   for u in monos}
        for i, u in enumerate(monos):
            for v in monos[i:]:
                products = {tuple(a + b for a, b in zip(x, y))
                            for x in members[u] for y in members[v]}
                uv = product(u, v)
                assert products == {m.exps for m in
                                    borel_closure_by_filter(uv)}, (u, v)
                pairs += 1
    assert pairs == 2376


def test_routes_agree_on_every_census_family(bench_families):
    """On every family of the (3, 3, 3) census in both modes, the six
    ladder families, the demo families, ``open_tower4`` and
    ``open_nochain``, the certificate's verdict, witnesses, pairs
    checked and rule count equal those of a full closure scan."""
    conjunction = 0
    descs = [desc for mode in ("rees", "fiber") for desc in census(mode)]
    for desc in descs:
        cert = assert_routes_agree(desc, desc)
        conjunction += cert["characterization"]["conjunction"]
    assert (len(descs), conjunction) == (3078, 346)
    for name, desc in bench_families.LADDER.items():
        assert_routes_agree(desc, name)
    for path in sorted(DEMOS.glob("*.json")):
        assert_routes_agree(json.loads(path.read_text()), path.name)
    for desc in (open_tower4(), open_nochain()):
        assert not assert_routes_agree(desc, desc)["closed_under_comparability"]


def two_level_conjunction(fam, i: int, j: int) -> bool:
    """The structural conjunction of the block (i, j)'s own two-level
    family, level 0 added in rees mode."""
    pair = {0, i, j} if fam.mode == "rees" else {i, j}
    return characterize(family.LeveledFamily(
        fam.mode, fam.n, [fam.level(k) for k in sorted(pair)],
        fam.embedding_degree)).conjunction


def test_every_block_is_settled_exactly_with_the_conjunction(bench_families):
    """``_routes`` leaves a block of levels to the paper's theorem, out
    of both the scanned and the routed blocks, exactly when the block's
    own two-level family has the structural conjunction; the support
    chain is transitive, so it leaves every block to the theorem
    exactly when the family has the conjunction.  The routed blocks are
    distinct, none is scanned, and each has both levels inside their
    Borel hulls.  On the (3, 3, 3) census in both modes, the ladder,
    the demo families and the listed n = 3 degree-2 census in both
    modes, where blocks are routed."""
    descs = [desc for mode in ("rees", "fiber") for desc in census(mode)]
    descs += bench_families.LADDER.values()
    descs += [json.loads(path.read_text())
              for path in sorted(DEMOS.glob("*.json"))]
    descs += [desc for mode in ("rees", "fiber")
              for desc in listed_census(mode, 3, (2,))]
    every = on_hull = 0
    for desc in descs:
        fam = build_family(desc)
        ch = characterize(fam)
        scanned, routed = _routes(fam, ch)
        assert type(scanned) is frozenset and type(routed) is list, desc
        assert len(set(routed)) == len(routed), desc
        assert scanned.isdisjoint(routed), desc
        inside = dict(zip(ch.level_indices, ch.borel_subset))
        assert all(inside.get(i, True) and inside.get(j, True)
                   for i, j in routed), desc
        for i, j in all_blocks(fam):
            assert ((i, j) not in scanned and (i, j) not in routed) == (
                two_level_conjunction(fam, i, j)), (desc, i, j)
        assert scanned.union(routed) <= all_blocks(fam), desc
        assert (not scanned and not routed) == ch.conjunction, desc
        every += ch.conjunction
        on_hull += len(routed)
    # the census has 346 conjunction families, the six ladder families
    # and the three demos seven, and the listed census six per mode, one
    # per principal Borel set of degree 2; only the listed census
    # routes blocks
    assert (len(descs), every) == (3078 + 9 + 2 * 63, 346 + 7 + 2 * 6)
    assert on_hull == sum(LISTED_ROUTES[3, (2,), mode][0]
                          for mode in ("rees", "fiber"))


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the type, message and witnesses
    of the ``NotClosedError`` it raises."""
    try:
        return call(*args)
    except NotClosedError as exc:
        return NotClosedError, str(exc), exc.witnesses


def _family_reads(fam) -> tuple:
    """Every table read of ``fam``, in this order: pair table, open
    pairs, all witnesses and the marked basis."""
    return (list(fam.incomparable_pairs().items()), open_pairs(fam),
            is_closed_under_comparability(fam, all_witnesses=True),
            _outcome(build_basis, fam))


@pytest.mark.parametrize("desc", [
    family_dict("tower4"), family_dict("fiber_pair"), open_tower4(),
    open_nochain()], ids=["tower4", "fiber_pair", "open_tower4",
                          "open_nochain"])
def test_the_held_scan_answers_like_a_fresh_family(desc):
    """A family holds one whole pair table, replaced when a scan of other
    blocks of levels finishes.  After a certificate, the family's table
    reads, witnesses and basis equal a fresh family's; after a basis,
    its certificate equals a fresh family's."""
    fam = build_family(desc)
    cert = build_certificate(fam)
    assert _family_reads(fam) == _family_reads(build_family(desc))
    fam = build_family(desc)
    assert _outcome(build_basis, fam) == _outcome(
        build_basis, build_family(desc))
    assert build_certificate(fam) == cert


def test_no_open_pair_in_a_settled_block_on_the_census():
    """The settled rule, checked pair by pair: no open pair of a full
    scan of a (3, 3, 3) census family, in either mode, lies in a block
    of levels whose two-level family has the conjunction.  Every census
    level is a Borel set, so at least its own block is settled."""
    open_families = 0
    for mode in ("rees", "fiber"):
        for desc in census(mode):
            fam = build_family(desc)
            settled = settled_blocks(fam)
            assert {(lv.index, lv.index) for lv in fam.levels} <= settled
            assert open_pairs_in_settled_blocks(fam) == [], desc
            open_families += bool(open_pairs(fam))
    assert open_families == 2 * 1366


def open_descs() -> list[dict]:
    """``open_tower4``, ``open_nochain`` and every family of the
    (3, 3, 3) census, in both modes, that is not closed."""
    return [open_tower4(), open_nochain()] + [
        desc for mode in ("rees", "fiber") for desc in census(mode)
        if not characterize(build_family(desc)).conjunction]


def test_witnesses_match_the_checked_rewrite():
    """A witness's images are the factorizations the scan dealt when it
    rewrote the pair's product; on every open pair they equal the
    checked public path,
    ``rewrite_images`` on the generators, and an image is missing
    exactly when its target level does not list it.  A report holds one
    ``Monomial`` per distinct image."""
    descs = open_descs()
    witnesses = 0
    for desc in descs:
        fam = build_family(desc)
        report = is_closed_under_comparability(fam, all_witnesses=True)
        want = []
        for pair in open_pairs(fam):
            images = rewrite_images(fam, *pair)
            want.append(Witness(pair, images, tuple(
                k for k in (0, 1)
                if images[k] not in fam.level(pair[k].level).generators)))
        assert report.witnesses == tuple(want), desc
        assert not report.closed and not report.truncated, desc
        images = [img for w in report.witnesses for img in w.images]
        assert len(set(map(id, images))) == len(set(images)), desc
        witnesses += len(want)
    assert len(descs) == 2 + 2 * 1366 and witnesses > len(descs)


def _refuse(*args):
    raise AssertionError("built a Borel set")


def test_certificates_build_no_borel_member(monkeypatch, bench_families):
    """With ``family.borel_closure`` refusing, the certificates of the
    open families above and of 60 seeded certify-mix draws equal those
    of an unpatched run: a scan reads a counted level's factorizations
    and builds none of its members, not even for a witness."""
    rng = random.Random(30)
    strata = bench_families.STRATA
    kinds = ("rees-nochain", "fiber-nochain", "rees-drop")
    descs = open_descs() + [
        bench_families.draw_family(rng, strata[k % len(strata)], kinds[k % 3])
        for k in range(60)]
    want = [build_certificate(build_family(desc)) for desc in descs]
    monkeypatch.setattr(family, "borel_closure", _refuse)
    scanned = 0
    for desc, cert in zip(descs, want):
        fam = build_family(desc)
        assert build_certificate(fam) == cert, desc
        assert all(lv._generators is None for lv in fam.levels if lv.borel)
        scanned += fam._refs is not None
    assert scanned == len(descs)


# Tier-1 runs the two smallest listed-level shapes;
# `python tests/gates.py census` runs the rest of LISTED_SHAPES.
LISTED_SHAPES = ((3, (2,)), (3, (1, 2)), (3, (3,)), (3, (2, 2)), (4, (2,)))


# (n, degrees, mode): open blocks on the hull route, on the scan, and
# closed families with a block on the hull route, whose rule count adds
# the hull blocks' open products
LISTED_ROUTES = {
    (3, (2,), "rees"): (49, 65, 0), (3, (2,), "fiber"): (9, 48, 4),
    (3, (1, 2), "rees"): (608, 1125, 0), (3, (1, 2), "fiber"): (139, 943, 16),
}


@pytest.mark.parametrize("mode", ["rees", "fiber"])
@pytest.mark.parametrize("n, degrees", LISTED_SHAPES[:2],
                         ids=["n3-2", "n3-1,2"])
def test_routes_agree_on_listed_levels(mode, n, degrees):
    """Every level an arbitrary non-empty subset of the monomials of its
    degree: listed levels equal to their Borel set are settled, thinned
    ones are classified from their Borel hulls or scanned, as the route
    rule picks, and the certificate agrees with a full scan.  Both
    routes are taken, and some closed families count hull blocks."""
    descs = listed_census(mode, n, degrees)
    equal = on_hull = scanned = closed = 0
    for desc in descs:
        cert = assert_routes_agree(desc, desc)
        assert open_pairs_in_settled_blocks(build_family(desc)) == [], desc
        equal += sum(cert["characterization"]["borel_equal"])
        routed, scans = route_counts(desc)
        on_hull += routed
        scanned += scans
        closed += bool(routed) and cert["closed_under_comparability"]
    # one subset per Borel set equals it: six principal ones of degree
    # 2, three of degree 1 (x1, x1..x2, x1..x3)
    assert (len(descs), equal) == {
        (2,): (63, 6), (1, 2): (441, 3 * 63 + 7 * 6)}[degrees]
    assert (on_hull, scanned, closed) == LISTED_ROUTES[n, degrees, mode]


def test_the_route_rule_keeps_the_scan_on_a_sparse_level(monkeypatch):
    """A listed level far thinner than its hull keeps the scan: {x1*x23,
    x23^2} in fiber mode holds 2 of the 276 members of B(x23^2), so its
    diagonal block would take 274 * 276 candidates for one scanned
    pair.  The rule reads that off the counts, and no hull member is
    built.  In 30 variables, past packed keys, the level scans too."""
    monkeypatch.setattr(hull, "_borel_factors", _refuse)
    for n in (23, 30):
        desc = {"mode": "fiber", "variables": n, "embedding_degree": 3,
                "levels": [{"degree": 2,
                            "generators": [f"x1*x{n}", f"x{n}^2"]}]}
        assert route_counts(desc) == (0, 1)
        assert assert_routes_agree(desc, n)["closed_under_comparability"]


def test_routes_agree_on_a_wide_family_with_a_missing_member():
    """B(x2*x30) less x2*x29, in 30 variables with level 0: a family too
    wide for packed keys scans every open block, and its certificate
    agrees with a full scan."""
    members = [f"x{a}*x{b}" for a in (1, 2) for b in range(a, 31)]
    members.remove("x2*x29")
    desc = {"mode": "rees", "variables": 30,
            "levels": [{"degree": 2, "generators": members}]}
    assert route_counts(desc) == (0, 2)
    cert = assert_routes_agree(desc, "wide drop")
    assert not cert["closed_under_comparability"]
    assert any(w["images"][0] == "x2*x29" or w["images"][1] == "x2*x29"
               for w in cert["witnesses"])


WIDE = {"mode": "rees", "variables": 450,
        "levels": [{"degree": 1, "borel": "x1"}]}


def test_conjunction_route_counts_past_the_borel_cap(capsys, tmp_path):
    """HF(2) of the 450-variable family holds |B(x450^2)| = 101,475, more
    than ``BOREL_CAP`` members: counted, not refused."""
    cert = assert_routes_agree(WIDE, "wide")
    assert cert["basis_size"] == 0
    assert cert["conclusions"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE))
    assert main(["certify", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == cert


def max_powers(n: int, k: int) -> dict:
    """The rees family of m, m^2, ..., m^k in n variables, max(n, k)."""
    return {"mode": "rees", "variables": n,
            "levels": [{"degree": d, "borel": f"x{n}^{d}"}
                       for d in range(1, k + 1)]}


def max_powers_rule_count(n: int, k: int) -> int:
    """The rule count of max(n, k) from binomials alone: C(v+1, 2) less
    the monomials of degree d_i + d_j over the levels i <= j, level 0
    (degree 1) included, as every level holds all monomials of its
    degree."""
    degrees = [1] + list(range(1, k + 1))
    v = sum(comb(n - 1 + d, d) for d in degrees)
    return comb(v + 1, 2) - sum(
        comb(n - 1 + d + e, d + e)
        for i, d in enumerate(degrees) for e in degrees[i:])


MAX_N_4_RULES = {4: 1905, 5: 6567, 6: 18908, 7: 47781, 8: 109240}


def test_routes_agree_on_max_n_4():
    """On max(n, 4) for n = 4..8 the theorem route and the closure scan
    agree on closure and rule count, and both equal the binomial form."""
    for n, rules in MAX_N_4_RULES.items():
        cert = assert_routes_agree(max_powers(n, 4), n)
        assert cert["closed_under_comparability"]
        assert cert["basis_size"] == rules == max_powers_rule_count(n, 4)


def test_routes_agree_on_a_closed_family_that_scans():
    """A closed family whose certificate scans some blocks and counts
    the others: fiber_pair's two listed levels, neither the Borel set
    of its least generator, then 200 levels B(x1^3), in 5 variables
    with embedding degree 4.  Both routes find it closed, with one rule
    and all 21,115 pairs of its 206 refs checked."""
    desc = family_dict("fiber_pair")
    desc["levels"] += [{"degree": 3, "borel": "x1^3"}] * 200
    cert = assert_routes_agree(desc, "fiber_pair and 200 B(x1^3)")
    assert cert["closed_under_comparability"]
    assert (cert["basis_size"], cert["pairs_checked"]) == (1, 21115)


def _counted(monkeypatch, module) -> list:
    """Patch ``module._borel_count`` to record each count's exponents."""
    counts = []
    original = module._borel_count

    def count(exps, *rest):
        counts.append(exps)
        return original(exps, *rest)

    monkeypatch.setattr(module, "_borel_count", count)
    return counts


def test_each_borel_set_is_counted_once(monkeypatch, bench_families):
    """A certificate counts each distinct product of its settled blocks
    once, and none that a counted level's size already gives: max(4,3)
    and maxpowers3 have ten settled blocks, five distinct products and
    three levels B(x_n^d), so three counts each.  ``build_family``
    counts a repeated ``"borel"`` generator once.  The memoized rule
    counts still equal the basis on every ladder family."""
    counts = _counted(monkeypatch, certify)
    for desc in (max_powers(4, 3), family_dict("maxpowers3")):
        fam = build_family(desc)
        assert len(settled_blocks(fam)) == 10
        assert build_certificate(fam)["conclusions"]
        assert len(counts) == len(set(counts)) == 3, desc
        counts.clear()
    for name, desc in bench_families.LADDER.items():
        cert = build_certificate(build_family(desc))
        assert cert["basis_size"] == len(build_basis(build_family(desc))), name
    parsed = _counted(monkeypatch, monomials)
    fam = build_family({"mode": "rees", "variables": 5, "levels": [
        {"degree": 1, "borel": "x5"}] * 50})
    assert parsed == [(0, 0, 0, 0, 1)]
    assert [len(lv) for lv in fam.levels] == [5] * 51


def test_the_step_cap_walks_the_levels_without_holding_blocks():
    """A family with the conjunction is refused past ``COUNT_STEP_CAP``
    from the closed form over its levels, with no set of blocks held:
    600 levels B(x2000) of degree 1 in 2,000 variables, with level 0,
    make 180,901 blocks of 6,000 steps each, and the certificate's
    tracemalloc peak stays under 2 MiB."""
    fam = build_family({"mode": "rees", "variables": 2000, "levels": [
        {"degree": 1, "borel": "x2000"}] * 600})
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError) as refused:
            build_certificate(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (
        "counting the settled blocks takes 1085406000 steps, more than"
        " 10000000")
    assert peak < 2 * 2**20, peak


def levels_b2000(count: int) -> dict:
    """``count`` levels B(x2000) of degree 1 in 2,000 variables, the
    ``past-cap`` gate's files for 240 and 1,400."""
    return {"mode": "rees", "variables": 2000, "levels": [
        {"degree": 1, "borel": "x2000"}] * count}


@pytest.mark.parametrize("mode", ["rees", "fiber"])
def test_the_step_bound_in_closed_form_is_the_block_sum(mode):
    """``_settled_steps`` equals the block-by-block sum it replaced on
    every family of the (3, 3, 3) census, with no block scanned, with
    the blocks ``_routes`` scans or routes scanned, with those it scans
    and with every block scanned."""
    for desc in census(mode):
        fam = build_family(desc)
        scanned, routed = _routes(fam, characterize(fam))
        for blocks in (frozenset(), scanned.union(routed), scanned,
                       frozenset(all_blocks(fam))):
            assert certify._settled_steps(fam, blocks) == (
                settled_steps_by_blocks(fam, blocks)), (desc, blocks)


@pytest.mark.parametrize("count, steps", [
    (240, 174966000), (1400, 5892606000)])
def test_the_step_bound_in_closed_form_on_the_past_cap_files(count, steps):
    """The closed form and the block sum agree on the ``past-cap``
    gate's files, 29,161 and 982,101 blocks."""
    fam = build_family(levels_b2000(count))
    assert certify._settled_steps(fam, frozenset()) == steps
    assert settled_steps_by_blocks(fam, frozenset()) == steps


def test_the_step_cap_refuses_before_any_walk(monkeypatch):
    """A family past ``COUNT_STEP_CAP`` is refused before any pair of
    levels is walked: with ``combinations_with_replacement`` unusable in
    ``certify``, 240 levels B(x2000) are still refused at 174,966,000
    steps."""
    def no_walk(*args):
        raise AssertionError("the pairs of levels were walked")

    monkeypatch.setattr(certify, "combinations_with_replacement", no_walk)
    with pytest.raises(ResourceCapError) as refused:
        build_certificate(build_family(levels_b2000(240)))
    assert str(refused.value) == (
        "counting the settled blocks takes 174966000 steps, more than"
        " 10000000")


def test_levels_keep_the_head_and_tail_their_parse_read(bench_families):
    """Every level's ``_ends``, taken from its parse (a ``"borel"``
    level's terms, (n, n) for level 0) or read off a listed level's
    last generator, is that generator's head and tail: on the ladder,
    the (3, 3, 3) census and the listed census shapes in both modes,
    and levels B(x2000) and B(x1*x2000) in 2,000 variables."""
    descs = list(bench_families.LADDER.values())
    for mode in ("rees", "fiber"):
        descs += census(mode)
        for n, degrees in LISTED_SHAPES:
            descs += listed_census(mode, n, degrees)
    descs.append({"mode": "rees", "variables": 2000, "levels": [
        {"degree": 1, "borel": "x2000"},
        {"degree": 2, "borel": "x1*x2000"}]})
    for desc in descs:
        for lv in build_family(desc).levels:
            assert lv._ends == (lv.last.head_index(),
                                lv.last.tail_index()), (desc, lv.index)


def test_a_repeated_borel_generator_is_built_once(monkeypatch):
    """The ``past-cap`` gate's 1,400 levels B(x2000) build one
    generator, which every level shares, since the parse memo is keyed
    by the parsed terms.  The declared degree is checked on every level,
    memo hit or not, and before any count: a generator past
    ``BOREL_CAP`` declared at the wrong degree is malformed (exit 2),
    not refused (exit 3)."""
    built = []

    def counting(terms, n):
        built.append(dict(terms))
        return monomials.monomial_of_terms(terms, n)

    monkeypatch.setattr(family, "monomial_of_terms", counting)
    fam = build_family(levels_b2000(1400))
    assert built == [{2000: 1}]
    assert len({id(lv.last) for lv in fam.levels[1:]}) == 1
    with pytest.raises(FamilyError, match="level 2: borel generator x2000"
                       " has degree 1, expected 2"):
        build_family({"mode": "rees", "variables": 2000, "levels": [
            {"degree": 1, "borel": "x2000"},
            {"degree": 2, "borel": "x2000"}]})
    with pytest.raises(FamilyError, match="has degree 5, expected 4"):
        build_family({"mode": "rees", "variables": 2000, "levels": [
            {"degree": 4, "borel": "x2000^5"}]})
    with pytest.raises(ResourceCapError):
        build_family({"mode": "rees", "variables": 2000, "levels": [
            {"degree": 5, "borel": "x2000^5"}]})


# 1,399 levels {x1}, then {x2}, which is not the Borel set of x2
SCAN1400 = {"mode": "rees", "variables": 2, "levels": [
    {"degree": 1, "generators": ["x1"]}] * 1399 + [
    {"degree": 1, "generators": ["x2"]}]}


def test_the_scan_holds_only_the_blocks_it_classifies():
    """A scanning certificate holds the blocks of levels it classifies,
    not those it skips: ``SCAN1400``, with level 0, has 1,402 refs and
    982,101 blocks, of which the theorem leaves open the 1,401 with the
    last level.  The certificate's tracemalloc peak stays under 2 MiB,
    where the 980,700 settled blocks as a set of tuples would take about
    85 MiB, and its verdict, pairs checked and 32 witnesses are a full
    scan's."""
    fam = build_family(SCAN1400)
    tracemalloc.start()
    try:
        cert = build_certificate(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert len(fam) == 1402
    scanned, routed = _routes(fam, characterize(fam))
    assert len(scanned) + len(routed) == 1401
    assert not cert["closed_under_comparability"]
    assert cert["pairs_checked"] == 47073
    assert len(cert["witnesses"]) == family.WITNESS_CAP
    assert assert_routes_agree(SCAN1400, "scan1400") == cert


# max(12,4), max(20,3) and max(60,2) are pinned through the CLI in
# tests/test_cli.py
@pytest.mark.parametrize("n, k", [(4, 3), (5, 3), (4, 4), (450, 1)])
def test_max_powers_rule_count_is_the_binomial_form(n, k):
    cert = build_certificate(build_family(max_powers(n, k)))
    assert cert["basis_size"] == max_powers_rule_count(n, k)
