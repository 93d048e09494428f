"""Independent reference implementations used only by the tests.

Everything here is written from the definitions by a different route than
the package takes, so agreement is evidence rather than tautology.  Keep
these slow and obvious.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import (
    accumulate,
    combinations,
    combinations_with_replacement,
    permutations,
)
from operator import add

from reescert.errors import InternalInvariantError, NotClosedError
from reescert.family import (
    GenRef,
    characterize,
    is_closed_under_comparability,
    rewrite_images,
)
from reescert.monomials import Monomial
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
    psi_eval,
)


def from_factors(indices, n: int) -> Monomial:
    """The monomial in n variables whose standard factorization is these
    variable indices, taken with multiplicity in any order."""
    exps = [0] * n
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exps[i - 1] += 1
    return Monomial._of_exps(tuple(exps), sum(exps))


def product(u: Monomial, v: Monomial) -> Monomial:
    """uv, for two monomials in the same variables."""
    assert u.n == v.n
    return Monomial(map(add, u.exps, v.exps))


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


def borel_member_by_suffix_masses(candidate: Monomial,
                                  generator: Monomial) -> bool:
    """Suffix-dominance test for membership in the Borel set of
    ``generator``: the degrees agree and for every k >= 2 the exponent
    mass of the candidate on x_k..x_n is at most that of the generator."""
    assert candidate.n == generator.n
    if candidate.degree != generator.degree:
        return False
    cs = vs = 0
    for k in range(candidate.n - 1, 0, -1):
        cs += candidate.exps[k]
        vs += generator.exps[k]
        if cs > vs:
            return False
    return True


def revlex_key(u: Monomial):
    """Graded reverse lexicographic sort key: ascending by this key is
    ascending revlex order.  Degree decides first.  On equal degrees
    u > v exactly when the last nonzero entry of u - v is negative."""
    return (u.degree, tuple(-e for e in reversed(u.exps)))


def borel_closure_by_filter(generator: Monomial) -> tuple[Monomial, ...]:
    """Borel set by filtering every monomial of the generator's degree
    through the suffix-dominance test, sorted revlex descending."""
    d, n = generator.degree, generator.n
    members = [
        m
        for fact in combinations_with_replacement(range(1, n + 1), d)
        for m in (from_factors(fact, n),)
        if borel_member_by_suffix_masses(m, generator)
    ]
    members.sort(key=revlex_key, reverse=True)
    return tuple(members)


def borel_count_by_two_reversals(exps, cap=None) -> int:
    """Size of the Borel set of the exponent vector ``exps``, the
    reference for ``_borel_count``: exact when ``cap`` is None, else
    exact up to ``cap`` and some number over it past that.  ``ways[s]``
    counts the exponent choices on x_2..x_(k+1) once mass s sits on
    x_(k+2)..x_n, kept first entry first, so each variable reverses the
    table, takes its running sums, reverses them back and cuts them at
    the suffix mass."""
    bound = [0] * (len(exps) + 1)
    for k in range(len(exps) - 1, -1, -1):
        bound[k] = bound[k + 1] + exps[k]
    if cap is not None and bound[1] >= cap:  # x1^(d-t)*x2^t, t <= bound[1]
        return bound[1] + 1
    ways = [1] * (bound[1] + 1)
    for k in range(1, bound.index(0)):  # up to tail - 1
        ways = list(accumulate(reversed(ways)))[::-1][:bound[k + 1] + 1]
        if cap is not None and ways[0] > cap:
            break
    return ways[0]


def settled_steps_by_blocks(fam, scanned) -> int:
    """``COUNT_STEP_CAP``'s bound summed block by block, the reference
    for ``certify._settled_steps``: max(t_i, t_j) * (d_i + d_j + 1) over
    every block of levels (i, j), i <= j, not in ``scanned``, each
    level's tail t read off its least generator."""
    levels = [(lv.index, lv.last.tail_index(), lv.degree)
              for lv in fam.levels]
    steps = 0
    for (i, ti, di), (j, tj, dj) in combinations_with_replacement(levels, 2):
        if (i, j) not in scanned:
            steps += max(ti, tj) * (di + dj + 1)
    return steps


def pair_table_by_rewrite_images(fam) -> dict:
    """The pair table from ``rewrite_images`` on generator monomials,
    with image refs looked up by ``Monomial`` in each level."""
    refs_of = {
        lv.index: {g: GenRef(lv.index, j)
                   for j, g in enumerate(lv.generators, start=1)}
        for lv in fam.levels
    }
    refs = fam.refs()
    table = {}
    for i, a in enumerate(refs):
        for b in refs[i + 1:]:
            images = rewrite_images(fam, a, b)
            if images != (fam.generator(a), fam.generator(b)):
                table[(a, b)] = (refs_of[a.level].get(images[0]),
                                 refs_of[b.level].get(images[1]))
    return table


def basis_by_public_constructor(fam) -> tuple[MarkedBinomial, ...]:
    """The marked basis with every rule built through the public
    ``TMonomial`` constructor: one rule per pair-table entry, the trail
    made of its two image refs."""
    out = []
    for (a, b), (c, d) in fam.incomparable_pairs().items():
        if c is None or d is None:
            report = is_closed_under_comparability(fam)
            raise NotClosedError(
                "family is not closed under comparability"
                f" ({len(report.witnesses)} witness pair(s))",
                report.witnesses)
        out.append(MarkedBinomial(TMonomial([a, b]), TMonomial([c, d])))
    return tuple(out)


def certificate_from_basis(fam) -> dict:
    """The certificate of a closed family, its rule count and shape
    flags read off the built basis's rules by ``basis_shape`` rather
    than off the pair table."""
    from reescert.certify import CITATIONS, SUBJECTS, closure_json

    report = is_closed_under_comparability(fam)
    assert report.closed
    closure = closure_json(report, characterize(fam))
    del closure["witnesses"]
    shape = basis_shape([(g.lead.refs, g.trail.refs)
                         for g in build_basis(fam)])
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
    return from_factors(rng.choices(range(1, n + 1), k=degree), n)


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
        top = from_factors(
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


def distinct_orders(rows):
    """Every arrangement of the row multiset, each one once."""
    if not rows:
        yield ()
    for first in sorted(set(rows)):
        rest = list(rows)
        rest.remove(first)
        for tail in distinct_orders(rest):
            yield (first,) + tail


def min_inversions_by_permutation(rows):
    """Exhaustive minimum over row orders; returns (count, lex-least rows).

    Walks every distinct arrangement of the rows, so it is only usable
    for few rows or few distinct ones; the package must agree with this.
    """
    rows = [tuple(r) for r in rows]
    best = None
    best_rows = None
    for perm in distinct_orders(rows):
        c = column_major_inversions(list(perm))
        if best is None or c < best or (c == best and list(perm) < best_rows):
            best = c
            best_rows = list(perm)
    return best, best_rows


def rows_by_level(refs, fam) -> dict:
    """Each referenced level's matrix: the factor rows of its refs, in
    ref order with multiplicity, keyed by level."""
    by_level: dict[int, list[tuple[int, ...]]] = {}
    for ref in refs:
        by_level.setdefault(ref.level, []).append(fam.factors(ref))
    return by_level


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


def fiber_suites_by_chains(fam, basis, max_degree: int):
    """Both fiber suites from their definitions, on ``fibers_by_psi``.

    Each member's normal form is the end of its memo-free
    ``rewrite_chain``, and a member is reduced when no two of its refs
    form a key of ``pair_table_by_rewrite_images``.  The unique suite
    fails a fiber without exactly one reduced member, and each member
    whose normal form is not that one.  The kernel suite fails each
    member whose normal form differs from the representative's: the
    reduced member, else the first.  Returns the counts of both reports
    by field name, then the image of every failure of each suite in
    fiber order, with no cap.
    """
    table = pair_table_by_rewrite_images(fam)
    rules = rules_by_lead(basis)
    buckets = fibers_by_psi(fam, max_degree)
    unique, kernel = [], []
    for image, members in buckets.items():
        nf = {m: rewrite_chain(m.refs, rules)[-1] for m in members}
        reduced = [m for m in members
                   if not any(pair in table
                              for pair in combinations(m.refs, 2))]
        if len(reduced) != 1:
            unique.append(image)
        else:
            unique += [image for m in members if nf[m] != reduced[0].refs]
        rep = reduced[0] if len(reduced) == 1 else members[0]
        kernel += [image for m in members if nf[m] != nf[rep]]
    sizes = [len(members) for members in buckets.values()]
    counts = {"monomials": sum(sizes), "fibers": len(sizes),
              "largest_fiber": max(sizes),
              "differences": sum(sizes) - len(sizes)}
    return counts, unique, kernel


def confluent_by_all_spairs(basis):
    """Reduce the S-polynomial of every rule pair, coprime leads included.

    Returns (confluent, failing (i, j) pairs): the exhaustive Groebner
    test, with no criterion applied.  Each rule is a +-1 binomial, so the
    S-polynomial of g_i and g_j is the difference of two monomials, each
    lcm/lead times that rule's trail (multisets of refs), and it reduces
    to zero exactly when both end their ``rewrite_chain`` on one monomial.
    """
    rules = rules_by_lead(basis)
    leads = [Counter(g.lead.refs) for g in basis]
    failures = []
    for i, (g1, lead1) in enumerate(zip(basis, leads)):
        for j in range(i + 1, len(basis)):
            g2, lead2 = basis[j], leads[j]
            lcm = lead1 | lead2
            ends = [rewrite_chain(tuple(sorted(
                g.trail.refs + tuple((lcm - lead).elements()))), rules)[-1]
                for g, lead in ((g1, lead1), (g2, lead2))]
            if ends[0] != ends[1]:
                failures.append((i, j))
    return not failures, tuple(failures)


def rules_by_lead(basis) -> dict:
    """Each rule of the basis by its lead's sorted ref pair.  A lead
    that is not a product of two distinct refs, or one that leads two
    rules, raises ``ValueError``: the first in basis order."""
    rules = {}
    for g in basis:
        lead = g.lead.refs
        if len(lead) != 2 or len(set(lead)) != 2:
            raise ValueError(f"lead {g.lead} is not squarefree quadratic")
        if lead in rules:
            raise ValueError(f"duplicate lead {g.lead}")
        rules[lead] = g
    return rules


def rewrite_chain(refs, rules, max_steps=DEFAULT_STEP_CAP):
    """Deterministic rewrite chain of one monomial, with no memo: the
    sorted ref tuples from ``refs`` to its normal form.

    Each step takes the lexicographically least ref pair a < b of the
    monomial that is a lead of ``rules`` (``rules_by_lead``), takes the
    lead off by multiset difference (one copy of each of its refs) and
    adds the trail, re-sorted.  A monomial that needs a step past
    ``max_steps`` raises ``InternalInvariantError``, and so does one
    that needs a step from a monomial already on the chain, naming the
    cycle's length.
    """
    chain = [tuple(refs)]
    while True:
        leads = [pair for pair in combinations(refs, 2)
                 if pair[0] < pair[1] and pair in rules]
        if not leads:
            return chain
        steps = len(chain) - 1
        if steps == max_steps:
            raise InternalInvariantError(
                f"reduction exceeded {max_steps} steps; the termination"
                " measure should forbid this")
        first = chain.index(refs)
        if first < steps:
            raise InternalInvariantError(
                f"reduction cycles through {steps - first} monomials;"
                " the termination measure should forbid this")
        g = rules[min(leads)]
        rest = list(refs)
        for ref in g.lead.refs:
            rest.remove(ref)
        refs = tuple(sorted(rest + list(g.trail.refs)))
        chain.append(refs)


def confluence_by_chains(basis, max_steps=DEFAULT_STEP_CAP):
    """``confluence_check`` with no memo: both rewrites of every critical
    pair are reduced from scratch along their whole ``rewrite_chain``.

    ``normal_forms`` counts the distinct monomials on all those chains.
    """
    by_lead = rules_by_lead(basis)
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
                    tuple(sorted(g1.trail.refs + (c,))), by_lead, max_steps)
                chain2 = rewrite_chain(
                    tuple(sorted(g2.trail.refs + (b,))), by_lead, max_steps)
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
