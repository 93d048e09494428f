"""Family inputs for the benchmark and the expectations it checks them by.

Everything here is written from the definitions, by a different route
than the package takes, so that an expectation never comes from the
program under test:

- a monomial is an exponent tuple; a Borel set is the closure of its
  generator under single moves x_j -> x_i with i < j;
- a family of full Borel levels is closed under comparability exactly
  when consecutive generating tops satisfy the support chain (the least
  variable index of a lower top is at least the greatest index of the
  next top); deleting a non-top member of a full Borel level of a
  closed rees family breaks closure;
- the fibers are the classes of the image map (multiply the generators,
  record one t_i per level-i factor in rees mode, pad level i with
  x_(n+i) up to the embedding degree in fiber mode);
- a closed family has one completely reduced member per fiber, so its
  marked basis holds one rule per degree-2 T-monomial beyond the first
  in its fiber: C(v+1, 2) minus the number of degree-2 fibers.

The program only ever receives the family dicts built here.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

# The three demo families, frozen with their counts: refs pairs C(v, 2)
# and basis rules.
TOWER4 = {
    "mode": "rees", "variables": 4,
    "levels": [
        {"degree": 2, "borel": "x3*x4"},
        {"degree": 3, "borel": "x2^2*x3"},
        {"degree": 3, "borel": "x1*x2^2"},
        {"degree": 5, "generators": ["x1^5"]},
    ],
}
MAXPOWERS3 = {
    "mode": "rees", "variables": 3,
    "levels": [{"degree": d, "borel": f"x3^{d}"} for d in (1, 2, 3)],
}
FIBER_PAIR = {
    "mode": "fiber", "variables": 5, "embedding_degree": 4,
    "levels": [
        {"degree": 2, "generators": ["x3^2", "x3*x4", "x3*x5", "x4*x5"]},
        {"degree": 3, "generators": ["x1^3", "x1^2*x3"]},
    ],
}
FROZEN = {  # name: (pairs, rules)
    "tower4": (276, 104),
    "maxpowers3": (231, 121),
    "fiber_pair": (15, 1),
}
# The confluence control drops this rule from tower4: without it the
# remaining rules are not confluent.  (Not every single deletion breaks
# confluence; six of the 104 leave a Groebner basis of a smaller ideal.)
CONTROL_LEAD = ((0, 1), (1, 2))


def max_powers(n: int, k: int) -> dict:
    """The rees family of m, m^2, ..., m^k in n variables."""
    return {"mode": "rees", "variables": n,
            "levels": [{"degree": d, "borel": f"x{n}^{d}"}
                       for d in range(1, k + 1)]}


LADDER = {
    "tower4": TOWER4,
    "maxpowers3": MAXPOWERS3,
    "fiber_pair": FIBER_PAIR,
    "max4_3": max_powers(4, 3),
    "max5_3": max_powers(5, 3),
    "max4_4": max_powers(4, 4),
}


# ---------------------------------------------------------------- monomials

def parse(text: str, n: int) -> tuple[int, ...]:
    exps = [0] * n
    for term in text.split("*"):
        var, _, power = term.partition("^")
        exps[int(var[1:]) - 1] += int(power) if power else 1
    return tuple(exps)


def text(exps) -> str:
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                    for i, e in enumerate(exps, start=1) if e)


def head(exps) -> int:
    """Least index of a variable occurring (the greatest variable)."""
    return next(i for i, e in enumerate(exps, start=1) if e)


def tail(exps) -> int:
    """Greatest index of a variable occurring (the least variable)."""
    return max(i for i, e in enumerate(exps, start=1) if e)


@lru_cache(maxsize=None)
def _borel_set(top: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    seen = {top}
    todo = [top]
    while todo:
        m = todo.pop()
        for j in range(1, len(m)):
            if not m[j]:
                continue
            for i in range(j):
                moved = list(m)
                moved[j] -= 1
                moved[i] += 1
                moved = tuple(moved)
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    return frozenset(seen)


def borel_set(top) -> frozenset[tuple[int, ...]]:
    """Closure of {top} under moves x_j -> x_i, i < j, one unit at a time."""
    return _borel_set(tuple(top))


def chain_holds(tops) -> bool:
    return all(head(a) >= tail(b) for a, b in zip(tops, tops[1:]))


# ------------------------------------------------------------ expectations

def levels_of(desc: dict) -> list[tuple[int, int, list]]:
    """(level index, degree, generator exponent tuples), level 0 included
    in rees mode."""
    n = desc["variables"]
    out = []
    if desc["mode"] == "rees":
        out.append((0, 1, [tuple(int(k == i) for k in range(n))
                           for i in range(n)]))
    for index, lv in enumerate(desc["levels"], start=1):
        if "borel" in lv:
            gens = sorted(borel_set(parse(lv["borel"], n)))
        else:
            gens = [parse(g, n) for g in lv["generators"]]
        out.append((index, lv["degree"], gens))
    return out


def ref_count(desc: dict) -> int:
    return sum(len(gens) for _, _, gens in levels_of(desc))


def images(desc: dict) -> list[tuple[int, ...]]:
    """Image vector of each ref under the monomial map, in one list."""
    n = desc["variables"]
    levels = levels_of(desc)
    top = levels[-1][0]
    out = []
    for index, degree, gens in levels:
        for g in gens:
            if desc["mode"] == "rees":
                extra = [int(index == i) for i in range(1, top + 1)]
            else:
                extra = [0] * top
                extra[index - 1] = desc["embedding_degree"] - degree
            out.append(tuple(g) + tuple(extra))
    return out


def fiber_counts(desc: dict, max_degree: int) -> dict[int, tuple[int, int]]:
    """degree: (T-monomials, fibers) for each degree 1..max_degree.

    Different degrees never share an image, so fibers add up by degree.
    """
    vecs = images(desc)
    out = {}
    for d in range(1, max_degree + 1):
        seen = set()
        count = 0
        for combo in combinations_with_replacement(vecs, d):
            seen.add(tuple(map(sum, zip(*combo))))
            count += 1
        out[d] = (count, len(seen))
    return out


def tmonomial_count(refs: int, degree: int) -> int:
    return comb(refs + degree - 1, degree)


def expected_rules(desc: dict) -> int:
    monos, fibers = fiber_counts(desc, 2)[2]
    return monos - fibers


def expected_closed(desc: dict) -> bool:
    """Closure verdict from the generating tops.

    Full Borel levels: the support chain.  A level given as a list is a
    full Borel level with one non-top member deleted, only ever made
    from a closed rees family, so the verdict is no.
    """
    n = desc["variables"]
    if any("borel" not in lv for lv in desc["levels"]):
        return False
    return chain_holds([parse(lv["borel"], n) for lv in desc["levels"]])


# ------------------------------------------------------------- certify-mix

# Strata are narrow windows of ref count v (a closure scan classifies
# C(v, 2) pairs), so latencies spread smoothly and no percentile sits in
# a gap between sizes.  A batch holds one family per stratum; the kinds
# rotate over the strata from batch to batch, so any five consecutive
# batches hold every (stratum, kind) once and every run carries nearly
# the same work whatever the seed.
STRATA = tuple((lo, lo + 2) for lo in range(4, 64, 3))
KINDS = ("rees-chain", "rees-nochain", "rees-drop",
         "fiber-chain", "fiber-nochain")
MAX_VARIABLES = 6
MAX_DEGREE = 4
MAX_LEVELS = 3


def _random_top(rng, degree, lo, hi):
    exps = [0] * hi
    for _ in range(degree):
        exps[rng.randint(lo, hi) - 1] += 1
    return exps


def _draw(rng: random.Random, kind: str) -> dict:
    mode = kind.split("-")[0]
    n = rng.randint(2, MAX_VARIABLES)
    k = rng.randint(2 if kind.endswith("nochain") else 1, MAX_LEVELS)
    degrees = sorted(rng.randint(1, MAX_DEGREE) for _ in range(k))
    if kind.endswith("nochain"):
        while True:
            tops = [_random_top(rng, d, 1, n) for d in degrees]
            if not chain_holds(tops):
                break
    else:
        # support windows stepping down the variables: level i lives on
        # [cut_i, cut_(i-1)], so each top's head is at least the next
        # top's tail
        cuts = [n] + sorted((rng.randint(1, n) for _ in range(k)),
                            reverse=True)
        tops = [_random_top(rng, d, cuts[i + 1], cuts[i])
                for i, d in enumerate(degrees)]
    tops = [list(t) + [0] * (n - len(t)) for t in tops]
    desc = {"mode": mode, "variables": n,
            "levels": [{"degree": d, "borel": text(t)}
                       for d, t in zip(degrees, tops)]}
    if mode == "fiber":
        desc["embedding_degree"] = degrees[-1] + rng.randint(1, 2)
    if kind == "rees-drop":
        choices = [pos for pos, t in enumerate(tops)
                   if len(borel_set(t)) > 1]
        if not choices:
            return desc  # rejected by the caller: no level to thin
        pos = rng.choice(choices)
        top = tuple(tops[pos])
        members = sorted(borel_set(top) - {top})
        members.remove(rng.choice(members))
        desc["levels"][pos] = {
            "degree": degrees[pos],
            "generators": [text(m) for m in members + [top]]}
    return desc


def draw_family(rng: random.Random, stratum, kind: str) -> dict:
    lo, hi = stratum
    while True:
        desc = _draw(rng, kind)
        if kind == "rees-drop" and expected_closed(desc):
            continue
        if lo <= ref_count(desc) <= hi:
            return desc


def batch(seed: int, index: int) -> list[tuple[dict, bool]]:
    """Batch number index: (family, expected closure verdict) pairs."""
    rng = random.Random(f"certify-mix/{seed}/{index}")
    out = []
    for s, stratum in enumerate(STRATA):
        desc = draw_family(rng, stratum, KINDS[(s + index) % len(KINDS)])
        out.append((desc, expected_closed(desc)))
    return out
