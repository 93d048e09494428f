from __future__ import annotations

import copy
import random
from pathlib import Path

import pytest

from reescert.family import build_family

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Two-variable-block tower over four variables: degrees 2,3,3,5 with every
# level a full Borel set and the support chain satisfied.  The canonical
# closed rees fixture; sizes 4/9/7/3/1 including level 0.
TOWER4 = {
    "mode": "rees",
    "variables": 4,
    "levels": [
        {"degree": 2, "borel": "x3*x4"},
        {"degree": 3, "borel": "x2^2*x3"},
        {"degree": 3, "borel": "x1*x2^2"},
        {"degree": 5, "generators": ["x1^5"]},
    ],
}

# Powers of the maximal ideal in three variables: levels m, m^2, m^3.
# Level 1 equals {x1,x2,x3}, same as the injected level 0.
MAXPOWERS3 = {
    "mode": "rees",
    "variables": 3,
    "levels": [
        {"degree": 1, "borel": "x3"},
        {"degree": 2, "borel": "x3^2"},
        {"degree": 3, "borel": "x3^3"},
    ],
}

# Fiber-mode pair that is closed under comparability although neither
# level is a full Borel set: shows the structural conjunction is
# sufficient but not necessary in fiber mode.
FIBER_PAIR = {
    "mode": "fiber",
    "variables": 5,
    "embedding_degree": 4,
    "levels": [
        {"degree": 2, "generators": ["x3^2", "x3*x4", "x3*x5", "x4*x5"]},
        {"degree": 3, "generators": ["x1^3", "x1^2*x3"]},
    ],
}


def family_dict(name: str) -> dict:
    return copy.deepcopy({"tower4": TOWER4,
                          "maxpowers3": MAXPOWERS3,
                          "fiber_pair": FIBER_PAIR}[name])


def open_tower4() -> dict:
    """tower4 with x1*x2 dropped from level 1: not closed."""
    data = family_dict("tower4")
    data["levels"][0] = {"degree": 2, "generators": [
        "x1^2", "x2^2", "x1*x3", "x2*x3", "x3^2", "x1*x4", "x2*x4", "x3*x4"]}
    return data


def open_nochain() -> dict:
    """A rees family without the support chain: 34 refs, 93 open pairs.
    The certify-mix draw ``draw_family(random.Random(4), (34, 36),
    "rees-nochain")`` of ``perfbench/families.py``, frozen here."""
    return {"mode": "rees", "variables": 5, "levels": [
        {"degree": 2, "borel": "x1*x4"},
        {"degree": 3, "borel": "x2*x5^2"},
    ]}


@pytest.fixture
def tower4():
    return build_family(family_dict("tower4"))


@pytest.fixture
def maxpowers3():
    return build_family(family_dict("maxpowers3"))


@pytest.fixture
def fiber_pair():
    return build_family(family_dict("fiber_pair"))


@pytest.fixture
def bench_families(monkeypatch):
    """``perfbench/families.py``: the benchmark's family generators."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import families
    return families


def reference_descs(bench_families, seed: int = 20261018) -> dict:
    """Named family descriptions: the three demos, ``open_tower4``,
    max(4,3), max(4,4) and 25 seeded families, five of each
    certify-mix kind, over every fourth size stratum."""
    descs = {name: family_dict(name)
             for name in ("tower4", "maxpowers3", "fiber_pair")}
    descs["open_tower4"] = open_tower4()
    for name in ("max4_3", "max4_4"):
        descs[name] = copy.deepcopy(bench_families.LADDER[name])
    rng = random.Random(seed)
    for kind in bench_families.KINDS:
        for lo, hi in bench_families.STRATA[::4]:
            descs[f"{kind}-{lo}"] = bench_families.draw_family(
                rng, (lo, hi), kind)
    return descs
