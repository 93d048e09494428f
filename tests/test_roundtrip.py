"""Round trips through the text and JSON forms: family descriptions,
T-polynomial text and marked bases."""

from __future__ import annotations

import json
import random
from fractions import Fraction

from reescert.errors import NotClosedError
from reescert.family import build_family
from reescert.presentation import (
    TMonomial,
    basis_from_json,
    basis_to_json,
    build_basis,
)
from reescert.reduction import (
    TPolynomial,
    parse_tpolynomial,
)

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
    """``basis_from_json`` builds every rule through the public
    constructor, so this also checks the fast-built rules."""
    closed = 0
    for name, desc in reference_descs(bench_families).items():
        fam = build_family(desc)
        try:
            basis = build_basis(fam)
        except NotClosedError:
            continue
        data = json.loads(json.dumps(basis_to_json(basis)))
        assert basis_from_json(data) == basis, name
        assert basis_from_json(data, fam) == basis, name
        closed += 1
    assert closed == 15


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
