"""The paper's theorem and the product identity as census tests.

``certify`` reads a family with the structural conjunction (every level
the Borel set of its least generator, consecutive least generators under
the support chain) as closed by the paper's theorem, and its rule count
from C(v+1, 2) - sum of |B(u_i*u_j)|, which rests on the product identity
B(u)*B(v) = B(uv) for principal Borel sets.  These tests check both
premises by enumeration and compare that route with the closure scan.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from reescert.certify import build_certificate
from reescert.cli import main
from reescert.family import (
    build_family,
    characterize,
    is_closed_under_comparability,
)
from reescert.monomials import Monomial

from bruteforce import borel_closure_by_filter

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


def assert_routes_agree(desc: dict, label) -> dict:
    """The certificate against the closure scan of a freshly built
    family: verdict, pairs checked and rule count."""
    cert = build_certificate(build_family(desc))
    fam = build_family(desc)
    report = is_closed_under_comparability(fam)
    assert cert["closed_under_comparability"] == report.closed, label
    assert cert["pairs_checked"] == report.pairs_checked, label
    if report.closed:
        assert cert["basis_size"] == len(fam.incomparable_pairs()), label
    return cert


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
        monos = [Monomial.from_factors(factors, n)
                 for d in range(1, 4)
                 for factors in combinations_with_replacement(
                     range(1, n + 1), d)]
        members = {u: {m.exps for m in borel_closure_by_filter(u)}
                   for u in monos}
        for i, u in enumerate(monos):
            for v in monos[i:]:
                products = {tuple(a + b for a, b in zip(x, y))
                            for x in members[u] for y in members[v]}
                assert products == {m.exps for m in
                                    borel_closure_by_filter(u * v)}, (u, v)
                pairs += 1
    assert pairs == 2376


def test_conjunction_route_agrees_with_the_scan(bench_families):
    """On every conjunction family of the census, the six ladder families
    and the demo families, the certificate's closure verdict, pairs
    checked and rule count equal those of a closure scan."""
    conjunction = 0
    descs = [desc for mode in ("rees", "fiber") for desc in census(mode)]
    for desc in descs:
        if characterize(build_family(desc)).conjunction:
            assert_routes_agree(desc, desc)
            conjunction += 1
    assert conjunction == 346
    for name, desc in bench_families.LADDER.items():
        assert_routes_agree(desc, name)
    for path in sorted(DEMOS.glob("*.json")):
        assert_routes_agree(json.loads(path.read_text()), path.name)


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
