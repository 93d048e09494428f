"""Round trips through the text and JSON forms: family descriptions,
T-polynomial text and marked bases."""

from __future__ import annotations

import json
import random
from fractions import Fraction

from reescert.certify import build_certificate
from reescert.errors import NotClosedError
from reescert.family import build_family
from reescert.presentation import (
    MarkedBinomial,
    TMonomial,
    basis_to_json,
    build_basis,
)
from reescert.reduction import (
    TPolynomial,
    parse_tpolynomial,
)

from bruteforce import basis_by_public_constructor, certificate_from_basis
from conftest import reference_descs


def test_family_json_round_trip(bench_families):
    for name, desc in reference_descs(bench_families).items():
        fam = build_family(desc)
        again = build_family(json.loads(json.dumps(desc)))
        assert again.refs() == fam.refs(), name
        assert ([lv.generators for lv in again.levels]
                == [lv.generators for lv in fam.levels]), name
        assert (list(again.incomparable_pairs().items())
                == list(fam.incomparable_pairs().items())), name


def test_basis_json_round_trip_on_sample(bench_families):
    """Every rule read back from JSON through the public constructor
    equals the reference basis built the same way, so this also checks
    the fast-built rules."""
    closed = 0
    for name, desc in reference_descs(bench_families).items():
        fam = build_family(desc)
        try:
            basis = build_basis(fam)
        except NotClosedError:
            continue
        data = json.loads(json.dumps(basis_to_json(basis)))
        again = tuple(
            MarkedBinomial(TMonomial(rel["lead"]), TMonomial(rel["trail"]))
            for rel in data["relations"])
        assert again == basis == basis_by_public_constructor(fam), name
        closed += 1
    assert closed == 15


def test_certificate_matches_the_basis_reference(bench_families):
    """The rule count and shape flags, read off the pair table or, for a
    family with the structural conjunction, from the closed form, give
    the same certificate, key for key, as the built basis does, on every
    closed family: the demos, the ladders and seeded closed certify-mix
    families of both modes."""
    descs = reference_descs(bench_families)
    descs.update(bench_families.LADDER)
    rng = random.Random(20261019)
    for kind in ("rees-chain", "fiber-chain"):
        for stratum in bench_families.STRATA:
            descs[f"{kind}-{stratum[0]}*"] = bench_families.draw_family(
                rng, stratum, kind)
    closed = 0
    for name, desc in descs.items():
        fam = build_family(desc)
        cert = build_certificate(fam)
        if not cert["closed_under_comparability"]:
            continue
        assert cert == certificate_from_basis(build_family(desc)), name
        closed += 1
    # 15 closed reference families, max(5,3) and 40 chain draws
    assert closed == 56


def test_text_round_trip_with_family(tower4, maxpowers3, fiber_pair):
    rng = random.Random(20261018)
    for fam in (tower4, maxpowers3, fiber_pair):
        refs = fam.refs()
        for _ in range(300):
            terms = [(TMonomial(rng.choices(refs, k=rng.randint(0, 5))),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                     for _ in range(rng.randint(0, 5))]
            p = TPolynomial(terms)
            assert parse_tpolynomial(p.text(), fam) == p, p.text()
