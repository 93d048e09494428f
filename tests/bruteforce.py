"""Independent reference implementations used only by the tests.

Everything here is written from the definitions by a different route than
the package takes, so agreement is evidence rather than tautology.  Keep
these slow and obvious.
"""

from __future__ import annotations

from itertools import permutations

from reescert.monomials import Monomial
from reescert.presentation import normal_form, s_polynomial


def revlex_gt_by_factors(u: Monomial, v: Monomial) -> bool:
    """u > v in graded revlex, decided on reversed standard factorizations.

    On equal degrees, read both factor lists from the least variable up
    (largest index first); the first disagreement decides, and the one
    holding the greater variable there is the larger monomial.
    """
    if u.degree != v.degree:
        return u.degree > v.degree
    fu = list(reversed(u.factors()))
    fv = list(reversed(v.factors()))
    for a, b in zip(fu, fv):
        if a != b:
            return a < b
    return False


def sort_closed_form(u: Monomial, v: Monomial) -> tuple[Monomial, Monomial]:
    """Per-variable arithmetic form of the sorting rewrite.

    Variables with even combined exponent split evenly; the odd ones,
    taken in ascending index order, alternate the spare unit starting
    with the first output.
    """
    assert u.degree == v.degree
    total = [a + b for a, b in zip(u.exps, v.exps)]
    a = [0] * len(total)
    b = [0] * len(total)
    odd_rank = 0
    for i, t in enumerate(total):
        if t % 2 == 0:
            a[i] = b[i] = t // 2
        else:
            odd_rank += 1
            if odd_rank % 2 == 1:
                a[i] = (t + 1) // 2
                b[i] = (t - 1) // 2
            else:
                a[i] = (t - 1) // 2
                b[i] = (t + 1) // 2
    return Monomial(a), Monomial(b)


def order_by_exponents(u: Monomial, v: Monomial) -> tuple[Monomial, Monomial]:
    """Per-variable form of the ordering rewrite for deg(u) <= deg(v).

    Fill the second output with the combined exponents from x1 upward
    until it has degree deg(v); what is left is the first output.
    """
    assert u.degree <= v.degree
    need = v.degree
    high = []
    for a, b in zip(u.exps, v.exps):
        high.append(min(a + b, need))
        need -= high[-1]
    low = [a + b - h for a, b, h in zip(u.exps, v.exps, high)]
    return Monomial(low), Monomial(high)


def borel_closure_by_moves(generator: Monomial) -> set[Monomial]:
    """Borel set as the closure of {generator} under single swaps
    x_j -> x_i with i < j, one unit at a time."""
    seen = {generator}
    frontier = [generator]
    while frontier:
        w = frontier.pop()
        for j in range(2, w.n + 1):
            if w.exps[j - 1] == 0:
                continue
            for i in range(1, j):
                exps = list(w.exps)
                exps[j - 1] -= 1
                exps[i - 1] += 1
                moved = Monomial(exps)
                if moved not in seen:
                    seen.add(moved)
                    frontier.append(moved)
    return seen


def column_major_inversions(rows: list[tuple[int, ...]]) -> int:
    """Count pairs (earlier, later) in column-major reading order where the
    later entry is the greater variable, i.e. has the smaller index."""
    width = len(rows[0]) if rows else 0
    assert all(len(r) == width for r in rows)
    order = [rows[i][j] for j in range(width) for i in range(len(rows))]
    count = 0
    for p in range(len(order)):
        for q in range(p + 1, len(order)):
            if order[q] < order[p]:
                count += 1
    return count


def rand_monomial(rng, n: int, degree: int) -> Monomial:
    return Monomial.from_factors(rng.choices(range(1, n + 1), k=degree), n)


def rand_rees_family(rng, n_max=5, d_max=4, s_max=3) -> dict:
    """Random rees-mode family description, mixing shapes.

    Half the draws enforce the support chain on Borel levels and so come
    out closed; a quarter skip the chain; a quarter also knock one
    non-last generator out of a level.  No outcome is assumed here, the
    caller checks verdict agreement either way.
    """
    from reescert.monomials import borel_closure

    n = rng.randint(2, n_max)
    s = rng.randint(1, s_max)
    degrees = sorted(rng.randint(1, d_max) for _ in range(s))
    shape = rng.random()
    enforce_chain = shape < 0.75
    sabotage = shape >= 0.5 and shape < 0.75 or shape >= 0.875

    levels = []
    bound = n
    tops = []
    for d in degrees:
        hi = bound if enforce_chain else n
        top = Monomial.from_factors(
            [rng.randint(1, hi) for _ in range(d)], n)
        bound = top.head_index()
        tops.append(top)
        levels.append({"degree": d, "borel": top.text()})

    if sabotage:
        pos = rng.randrange(s)
        members = list(borel_closure(tops[pos]))
        if len(members) > 1:
            members.pop(rng.randrange(len(members) - 1))
            levels[pos] = {"degree": degrees[pos],
                           "generators": [m.text() for m in members]}
    return {"mode": "rees", "variables": n, "levels": levels}


def min_inversions_by_permutation(rows):
    """Exhaustive minimum over row orders; returns (count, lex-least rows).

    Only usable for small row counts; the package must agree with this.
    """
    rows = [tuple(r) for r in rows]
    best = None
    best_rows = None
    for perm in permutations(rows):
        c = column_major_inversions(list(perm))
        if best is None or c < best or (c == best and list(perm) < best_rows):
            best = c
            best_rows = list(perm)
    return best, best_rows


def confluent_by_all_spairs(basis):
    """Reduce the S-polynomial of every rule pair, coprime leads included.

    Returns (confluent, failing (i, j) pairs): the exhaustive Groebner
    test, with no criterion applied.
    """
    failures = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not normal_form(s_polynomial(basis[i], basis[j]),
                               basis).is_zero():
                failures.append((i, j))
    return not failures, tuple(failures)
