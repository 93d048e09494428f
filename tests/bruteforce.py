"""Independent reference implementations used only by the tests.

Everything here is written from the definitions by a different route than
the package takes, so agreement is evidence rather than tautology.  Keep
these slow and obvious.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations, combinations_with_replacement, permutations

from reescert.errors import InternalInvariantError, NotClosedError
from reescert.family import (
    GenRef,
    characterize,
    is_closed_under_comparability,
    rewrite_images,
)
from reescert.monomials import Monomial, borel_member, revlex_key
from reescert.presentation import (
    MarkedBinomial,
    TMonomial,
    basis_shape,
    build_basis,
)
from reescert.reduction import (
    DEFAULT_STEP_CAP,
    ConfluenceReport,
    TPolynomial,
    _lead_index,
    _least_lead,
    _rewrite_step,
    _step_cap_error,
    normal_form,
    psi_eval,
    s_polynomial,
)


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


def borel_closure_by_filter(generator: Monomial) -> tuple[Monomial, ...]:
    """Borel set by filtering every monomial of the generator's degree
    through the suffix-dominance test, sorted revlex descending."""
    d, n = generator.degree, generator.n
    members = [
        m
        for fact in combinations_with_replacement(range(1, n + 1), d)
        for m in (Monomial.from_factors(fact, n),)
        if borel_member(m, generator)
    ]
    members.sort(key=revlex_key, reverse=True)
    return tuple(members)


def pair_table_by_rewrite_images(fam) -> dict:
    """The pair table from ``rewrite_images`` on generator monomials,
    with image positions looked up by ``Monomial`` in each level."""
    positions = {
        lv.index: {g: j for j, g in enumerate(lv.generators, start=1)}
        for lv in fam.levels
    }
    refs = fam.refs()
    table = {}
    for i, a in enumerate(refs):
        for b in refs[i + 1:]:
            images = rewrite_images(fam, a, b)
            if images != (fam.generator(a), fam.generator(b)):
                table[(a, b)] = (positions[a.level].get(images[0]),
                                 positions[b.level].get(images[1]))
    return table


def basis_by_public_constructor(fam) -> tuple[MarkedBinomial, ...]:
    """The marked basis with every rule built through the public
    ``TMonomial`` constructor: one rule per pair-table entry, the trail
    made of the refs at the two image positions."""
    out = []
    for (a, b), (first, second) in fam.incomparable_pairs().items():
        if first is None or second is None:
            report = is_closed_under_comparability(fam)
            raise NotClosedError(
                "family is not closed under comparability"
                f" ({len(report.witnesses)} witness pair(s))",
                report.witnesses)
        trail = TMonomial([GenRef(a.level, first), GenRef(b.level, second)])
        out.append(MarkedBinomial(TMonomial([a, b]), trail))
    return tuple(out)


def certificate_from_basis(fam) -> dict:
    """The certificate of a closed family, its rule count and shape
    flags read off the built basis by ``basis_shape`` rather than off the
    pair table."""
    from reescert.certify import CITATIONS, SUBJECTS, closure_json

    report = is_closed_under_comparability(fam)
    assert report.closed
    closure = closure_json(report, characterize(fam))
    del closure["witnesses"]
    shape = basis_shape(build_basis(fam))
    full = shape["quadratic"] and shape["squarefree_leads"]
    out = {
        "mode": fam.mode,
        "subject": SUBJECTS[fam.mode],
        "variables": fam.n,
        "levels": [{"index": lv.index, "degree": lv.degree, "size": len(lv)}
                   for lv in fam.levels],
        "closed_under_comparability": True,
        **closure,
        "basis_size": shape["count"],
        "quadratic": shape["quadratic"],
        "squarefree_leads": shape["squarefree_leads"],
        "conclusions": (["koszul", "normal_domain", "cohen_macaulay"]
                        if full else []),
        "citations": dict(CITATIONS) if full else {},
    }
    if fam.mode == "fiber":
        out["embedding_degree"] = fam.embedding_degree
    return out


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


def comparability_by_occurrences(mono, fam) -> int:
    """The comparability number c by its definition, one occurrence pair
    at a time: each variable occurrence is read off the exponent vector
    of its generator, and an ordered pair (low, high) counts when high
    sits at a strictly higher level and is the smaller variable, i.e.
    has the larger index."""
    occurrences = [(ref.level, k)
                   for ref in mono.refs
                   for k, e in enumerate(fam.generator(ref).exps, start=1)
                   for _ in range(e)]
    return sum(1 for (low_level, low), (high_level, high)
               in permutations(occurrences, 2)
               if low_level < high_level and high > low)


def fibers_by_psi(fam, max_degree: int) -> dict:
    """T-monomials of degree 1..max_degree bucketed by image, each one
    built with the public constructor and mapped by ``psi_eval``."""
    buckets = {}
    for d in range(1, max_degree + 1):
        for combo in combinations_with_replacement(fam.refs(), d):
            mono = TMonomial(combo)
            buckets.setdefault(psi_eval(mono, fam), []).append(mono)
    return buckets


def confluent_by_all_spairs(basis):
    """Reduce the S-polynomial of every rule pair, coprime leads included.

    Returns (confluent, failing (i, j) pairs): the exhaustive Groebner
    test, with no criterion applied.
    """
    failures = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if normal_form(s_polynomial(basis[i], basis[j]), basis):
                failures.append((i, j))
    return not failures, tuple(failures)


def rewrite_chain(refs, index, max_steps=DEFAULT_STEP_CAP):
    """Deterministic rewrite chain of one monomial, with no memo: the
    sorted ref tuples from ``refs`` to its normal form, one
    ``_rewrite_step`` apart.  A chain of more than ``max_steps`` steps
    raises ``InternalInvariantError``.
    """
    chain = [refs]
    while True:
        key = _least_lead(refs, index)
        if key is None:
            return chain
        refs = _rewrite_step(refs, index[key])
        chain.append(refs)
        if len(chain) > max_steps + 1:
            raise _step_cap_error(max_steps)


def confluence_by_chains(basis, max_steps=DEFAULT_STEP_CAP):
    """``confluence_check`` with no memo: both rewrites of every critical
    pair are reduced from scratch along their whole ``rewrite_chain``.

    ``normal_forms`` counts the distinct monomials on all those chains.
    """
    index = _lead_index(basis)
    by_ref = defaultdict(list)
    for i, g in enumerate(basis):
        for ref in g.lead.refs:
            by_ref[ref].append(i)
    reduced = 0
    failures = []
    longest = 0
    seen = set()
    for ref, rules in by_ref.items():
        for pos, i in enumerate(rules):
            g1 = basis[i]
            (b,) = (r for r in g1.lead.refs if r != ref)
            for j in rules[pos + 1:]:
                g2 = basis[j]
                (c,) = (r for r in g2.lead.refs if r != ref)
                reduced += 1
                chain1 = rewrite_chain(
                    tuple(sorted(g1.trail.refs + (c,))), index, max_steps)
                chain2 = rewrite_chain(
                    tuple(sorted(g2.trail.refs + (b,))), index, max_steps)
                longest = max(longest, len(chain1) - 1, len(chain2) - 1)
                seen.update(chain1, chain2)
                if chain1[-1] != chain2[-1]:
                    failures.append((i, j))
    total = len(basis) * (len(basis) - 1) // 2
    return ConfluenceReport(total, reduced, tuple(sorted(failures)), longest,
                            len(seen))


def normal_form_randomized(f, basis, rng, max_steps=DEFAULT_STEP_CAP):
    """Reduce f with a uniformly random (support monomial, rule) choice
    at every step instead of the package's deterministic strategy.  On a
    confluent basis the result does not depend on ``rng``.

    Options are listed greatest support monomial first, then by lead ref
    pair; each lead is looked up by its ref pair, and the lead comes off
    by multiset difference.
    """
    rules = {g.lead.refs: g for g in basis}
    for _ in range(max_steps + 1):
        options = [(m, rules[pair]) for m in f.support()
                   for pair in combinations(sorted(set(m.refs)), 2)
                   if pair in rules]
        if not options:
            return f
        m, g = rng.choice(options)
        rest = Counter(m.refs) - Counter(g.lead.refs)
        out = TMonomial(list(rest.elements()) + list(g.trail.refs))
        f = f + TPolynomial({m: -f.terms[m], out: f.terms[m]})
    raise InternalInvariantError(
        f"randomized reduction exceeded {max_steps} steps")
