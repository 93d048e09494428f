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
from itertools import combinations_with_replacement, product as cartesian
from math import comb
from pathlib import Path

import pytest

from reescert import family
from reescert.certify import _settled_blocks, build_certificate, closure_json
from reescert.cli import main
from reescert.errors import NotClosedError
from reescert.family import (
    Witness,
    build_family,
    characterize,
    is_closed_under_comparability,
    rewrite_images,
)
from reescert.presentation import build_basis

from bruteforce import borel_closure_by_filter, from_factors, product
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


def open_pairs_in_settled_blocks(fam) -> list:
    """The open pairs of a full scan of ``fam`` that lie in a block of
    levels the paper's theorem settles: none, if the settled rule is
    sound."""
    settled = _settled_blocks(fam, characterize(fam))
    return [(a, b) for a, b in open_pairs(fam)
            if (a.level, b.level) in settled]


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


def test_every_block_is_settled_exactly_with_the_conjunction(bench_families):
    """The support chain is transitive, so the paper's theorem settles
    every block of levels exactly when the family has the structural
    conjunction: on the (3, 3, 3) census in both modes, the ladder and
    the demo families."""
    descs = [desc for mode in ("rees", "fiber") for desc in census(mode)]
    descs += bench_families.LADDER.values()
    descs += [json.loads(path.read_text())
              for path in sorted(DEMOS.glob("*.json"))]
    every = 0
    for desc in descs:
        fam = build_family(desc)
        ch = characterize(fam)
        indices = [lv.index for lv in fam.levels]
        blocks = {(i, j) for k, i in enumerate(indices) for j in indices[k:]}
        settled = _settled_blocks(fam, ch)
        assert settled <= blocks, desc
        assert (settled == blocks) == ch.conjunction, desc
        every += ch.conjunction
    # the census has 346 conjunction families; the six ladder families
    # and the three demos, seven
    assert (len(descs), every) == (3078 + 9, 346 + 7)


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
    settled blocks of levels finishes.  After a certificate, the family's table reads,
    witnesses and basis equal a fresh family's; after a basis, its
    certificate equals a fresh family's."""
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
            settled = _settled_blocks(fam, characterize(fam))
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
    """A witness's images are dealt on the factorizations the scan kept;
    on every open pair they equal the checked public path,
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


# Tier-1 runs the two smallest listed-level shapes; CI runs the census
# step over all of LISTED_SHAPES.
LISTED_SHAPES = ((3, (2,)), (3, (1, 2)), (3, (3,)), (3, (2, 2)), (4, (2,)))


@pytest.mark.parametrize("mode", ["rees", "fiber"])
@pytest.mark.parametrize("n, degrees", LISTED_SHAPES[:2],
                         ids=["n3-2", "n3-1,2"])
def test_routes_agree_on_listed_levels(mode, n, degrees):
    """Every level an arbitrary non-empty subset of the monomials of its
    degree: listed levels equal to their Borel set are settled, thinned
    ones are scanned, and the certificate agrees with a full scan."""
    descs = listed_census(mode, n, degrees)
    equal = 0
    for desc in descs:
        cert = assert_routes_agree(desc, desc)
        assert open_pairs_in_settled_blocks(build_family(desc)) == [], desc
        equal += sum(cert["characterization"]["borel_equal"])
    # one subset per Borel set equals it: six principal ones of degree
    # 2, three of degree 1 (x1, x1..x2, x1..x3)
    assert (len(descs), equal) == {
        (2,): (63, 6), (1, 2): (441, 3 * 63 + 7 * 6)}[degrees]


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


# max(12,4), max(20,3) and max(60,2) are pinned through the CLI in
# tests/test_cli.py
@pytest.mark.parametrize("n, k", [(4, 3), (5, 3), (4, 4), (450, 1)])
def test_max_powers_rule_count_is_the_binomial_form(n, k):
    cert = build_certificate(build_family(max_powers(n, k)))
    assert cert["basis_size"] == max_powers_rule_count(n, k)
