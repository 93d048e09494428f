from __future__ import annotations

import random
from itertools import combinations

import pytest

from reescert import measure, reduction
from reescert.errors import InternalInvariantError, ResourceCapError
from reescert.family import GenRef, build_family
from reescert.measure import (
    ROW_CAP,
    ReductionMeasure,
    _measure,
    _polynomial_measure,
    inversion_minimal,
    reduction_level,
    traced_normal_form,
)
from reescert.oracle import verify_measure_decrease
from reescert.presentation import (
    MarkedBinomial,
    TMonomial,
    build_basis,
)
from reescert.reduction import (
    TPolynomial,
    _RuleIndex,
    _normal_form,
    normal_form,
    parse_tpolynomial,
)

from bruteforce import (
    column_major_inversions,
    comparability_by_occurrences,
    min_inversions_by_permutation,
    pair_table_by_rewrite_images,
    rewrite_chain,
    rows_by_level,
    rules_by_lead,
)
from conftest import trace_measures


def demo_monomial(fam):
    return parse_tpolynomial(
        "T[0,1]^2*T[0,4]*T[1,1]*T[1,6]*T[1,8]*T[2,2]*T[2,7]",
        fam).support()[0]


# ------------------------------------------------------ inversion counts

def test_inversion_count_frozen():
    # the reference count every inversion_minimal check leans on
    assert column_major_inversions([(1, 1), (2, 4), (3, 3)]) == 3
    assert column_major_inversions([(1, 1), (3, 3), (2, 4)]) == 3
    assert column_major_inversions([(2, 2), (1, 3)]) == 1
    assert column_major_inversions([(1, 3), (2, 2)]) == 1
    assert column_major_inversions([(1, 2), (2, 3)]) == 0
    assert column_major_inversions([(1, 1, 3)]) == 0
    assert column_major_inversions([]) == 0


def test_inversion_minimal_frozen():
    count, order = inversion_minimal([(1, 1), (3, 3), (2, 4)])
    assert count == 3
    assert order == ((1, 1), (2, 4), (3, 3))  # lex-least among the ties
    count, order = inversion_minimal([(2, 2), (1, 3)])
    assert count == 1
    assert order == ((1, 3), (2, 2))
    with pytest.raises(ValueError, match="one degree"):
        inversion_minimal([(1, 2), (1,)])


def sorted_order_misses_bound(rows) -> bool:
    # same(a, b): the columns where row b, placed after row a, holds the
    # smaller entry; no order pays less than the lesser of the two ways
    # round for every row pair
    same = lambda a, b: sum(y < x for x, y in zip(a, b))
    pairs = list(combinations(sorted(rows), 2))
    return (sum(same(a, b) for a, b in pairs)
            > sum(min(same(a, b), same(b, a)) for a, b in pairs))


def test_inversion_minimal_matches_permutation_search():
    # non-decreasing rows, as standard factorizations are, then any rows
    for arrange in (sorted, list):
        rng = random.Random(42)
        for _ in range(200):
            width = rng.randint(1, 4)
            rows = [tuple(arrange(rng.randint(1, 5) for _ in range(width)))
                    for _ in range(rng.randint(1, 6))]
            count, order = inversion_minimal(rows)
            want_count, want_rows = min_inversions_by_permutation(rows)
            assert count == want_count
            assert list(order) == want_rows
            assert column_major_inversions(order) == count
    # within-row inversions count in every row order: 2,2,1,1 and 3,1,1,2
    assert inversion_minimal([(2, 1), (2, 1)])[0] == 4
    assert inversion_minimal([(3, 1), (1, 2)])[0] == 3
    # the sorted order pays 2 in its columns against a bound of 1, so the
    # dynamic program decides: 2,1,2,3,2,3 has 2 inversions, 1,2,3,2,3,2 3
    assert sorted_order_misses_bound([(1, 3, 3), (2, 2, 2)])
    assert inversion_minimal([(1, 3, 3), (2, 2, 2)]) == \
        (2, ((2, 2, 2), (1, 3, 3)))
    # seeded multisets where the same holds, up to seven rows (at most
    # three of seven: the permutation search walks 5,040 orders)
    for arrange in (sorted, list):
        rng = random.Random(43)
        checked = {}
        while sum(checked.values()) < 40:
            r = rng.randint(3, 7)
            width = rng.randint(2, 4)
            rows = [tuple(arrange(rng.randint(1, 6) for _ in range(width)))
                    for _ in range(r)]
            if not sorted_order_misses_bound(rows) or \
                    r == 7 and checked.get(7, 0) >= 3:
                continue
            checked[r] = checked.get(r, 0) + 1
            count, order = inversion_minimal(rows)
            want_count, want_rows = min_inversions_by_permutation(rows)
            assert count == want_count
            assert list(order) == want_rows
        assert set(checked) == {3, 4, 5, 6, 7}


def has_preference_cycle(rows) -> bool:
    # a before b is strictly preferred when b holds the smaller entry in
    # fewer shared columns than a does; a cycle shows in the transitive
    # closure as a row that must precede itself
    same = lambda a, b: sum(y < x for x, y in zip(a, b))
    n = len(rows)
    reach = [[same(rows[a], rows[b]) < same(rows[b], rows[a])
              for b in range(n)] for a in range(n)]
    for k in range(n):
        for a in range(n):
            for b in range(n):
                reach[a][b] = reach[a][b] or (reach[a][k] and reach[k][b])
    return any(reach[a][a] for a in range(n))


def pairwise_bound(rows) -> int:
    # the order-free inversions plus, per row pair, the cheaper way round
    same = lambda a, b: sum(y < x for x, y in zip(a, b))
    return (column_major_inversions(sorted(rows))
            - sum(same(a, b) for a, b in combinations(sorted(rows), 2))
            + sum(min(same(a, b), same(b, a))
                  for a, b in combinations(rows, 2)))


def test_inversion_minimal_cyclic_frozen():
    # a -> b -> c -> a: each row prefers to precede the next, so every
    # order breaks one preference and pays more than the bound
    rows = [(1, 5, 6), (2, 3, 7), (4, 4, 4)]
    assert has_preference_cycle(rows)
    assert pairwise_bound(rows) == 5
    want_count, want_rows = min_inversions_by_permutation(rows)
    assert want_count == 6 > pairwise_bound(rows)
    assert inversion_minimal(rows) == (want_count, tuple(want_rows))
    assert inversion_minimal(rows) == (6, ((1, 5, 6), (2, 3, 7), (4, 4, 4)))


def test_inversion_minimal_acyclic_meets_bound():
    # loose multisets (the sorted order misses the bound) without a
    # preference cycle: the bound is the minimum, and the least order
    # honouring every preference is the least minimizer
    rng = random.Random(51)
    seen = 0
    while seen < 60:
        rows = [tuple(sorted(rng.randint(1, 6) for _ in range(3)))
                for _ in range(rng.randint(3, 6))]
        if not sorted_order_misses_bound(rows) or has_preference_cycle(rows):
            continue
        seen += 1
        want_count, want_rows = min_inversions_by_permutation(rows)
        assert want_count == pairwise_bound(rows)
        assert inversion_minimal(rows) == (want_count, tuple(want_rows))


def test_inversion_minimal_row_cap():
    rows = [(1,)] * 11
    with pytest.raises(ResourceCapError):
        inversion_minimal(rows)
    assert inversion_minimal([(1,)] * 10)[0] == 0


def test_descents_matches_pair_count():
    rng = random.Random(61)
    for _ in range(300):
        groups = [[rng.randint(1, 9) for _ in range(rng.choice(
            (0, 1, 2, 5, 63, 64, 150)))] for _ in range(rng.randint(0, 5))]
        want = sum(u > v for i, g in enumerate(groups)
                   for h in groups[i + 1:] for u in g for v in h)
        assert measure._descents(groups) == want


# ----------------------------------------------------------- the measure

def test_level_matrix_rows(tower4):
    # one level matrix per referenced level: the factorizations of its
    # generators, in ref order with multiplicity
    rows = rows_by_level(demo_monomial(tower4).refs, tower4)
    assert rows == {0: [(1,), (1,), (4,)],
                    1: [(1, 1), (3, 3), (2, 4)],
                    2: [(1, 1, 2), (2, 2, 3)]}


def test_reduction_level_frozen(tower4):
    m = demo_monomial(tower4)
    rows = rows_by_level(m.refs, tower4)
    assert comparability_by_occurrences(m, tower4) == 25
    assert inversion_minimal(rows[0])[0] == 0
    assert inversion_minimal(rows[1])[0] == 3
    assert inversion_minimal(rows[2])[0] == 1
    assert reduction_level(m, tower4) == ReductionMeasure(25, 4)


def test_reduction_level_small_frozen(tower4):
    P = lambda s: parse_tpolynomial(s, tower4).support()[0]
    assert reduction_level(P("T[1,3]*T[1,4]"), tower4) == (0, 1)
    assert reduction_level(P("T[1,2]*T[1,5]"), tower4) == (0, 0)
    assert reduction_level(P("T[0,1]*T[2,7]"), tower4) == (3, 0)
    # refs in any order read as their sorted T-monomial
    assert reduction_level((GenRef(2, 7), GenRef(0, 1)), tower4) == (3, 0)
    assert reduction_level(P("T[0,3]*T[2,3]"), tower4) == (0, 0)
    assert reduction_level(TMonomial(), tower4) == (0, 0)


def at(refs, m):
    """The positions of the monomial's refs in ``refs``, the numbering
    ``_measure`` reads."""
    return tuple(map(refs.index, m.refs))


def reference_measure(m, fam, max_permuted=5):
    """(c, e) by definition: c one occurrence pair at a time, e level by
    level by permutation search where a level has few rows."""
    e = 0
    for rows in rows_by_level(m.refs, fam).values():
        e += (min_inversions_by_permutation(rows)[0]
              if len(rows) <= max_permuted else inversion_minimal(rows)[0])
    return comparability_by_occurrences(m, fam), e


def test_measure_matches_definition(bench_families):
    # c one occurrence pair at a time; e level by level through
    # rows_by_level, by permutation search where a level has few rows.
    # Every ladder rung, the demos among them, through reduction_level
    # and through _measure with one memo of parts per family, as the
    # measure suite keeps it
    for rung, desc in bench_families.LADDER.items():
        fam = build_family(desc)
        refs = fam.refs()
        rng = random.Random(f"measure parts/{rung}")
        memo = {}
        for _ in range(300):
            m = TMonomial(rng.choices(refs, k=rng.randint(0, 10)))
            want = reference_measure(m, fam)
            assert _measure(at(refs, m), refs, fam, memo) == want
            assert reduction_level(m, fam) == want


def test_measure_on_cyclic_levels(bench_families):
    # max(5,3) is the smallest ladder rung with levels whose strict
    # preferences cycle; there e exceeds the pairwise bound.  Levels of
    # up to seven rows are checked by permutation search (5,040 orders)
    fam = build_family(bench_families.LADDER["max5_3"])
    refs = fam.refs()
    rng = random.Random(52)
    memo = {}
    cyclic = 0
    for _ in range(5000):
        m = TMonomial(rng.choices(refs, k=rng.randint(1, 10)))
        levels = rows_by_level(m.refs, fam).values()
        hit = [rows for rows in levels if has_preference_cycle(rows)]
        if not hit:
            continue
        cyclic += 1
        for rows in hit:
            assert inversion_minimal(rows)[0] > pairwise_bound(rows)
            if len(rows) <= 7:
                count, order = min_inversions_by_permutation(rows)
                assert inversion_minimal(rows) == (count, tuple(order))
        want = reference_measure(m, fam, max_permuted=7)
        assert _measure(at(refs, m), refs, fam, memo) == want
        assert reduction_level(m, fam) == want
    assert cyclic == 4


def test_cycle_excess_decides_acyclicity():
    # one level holding every monomial of its degree, so that any row
    # multiset is some monomial's level matrix.  The excess read from
    # the pair parts is 0 exactly when the strict preferences have no
    # cycle; e is the pairwise bound plus the excess either way.  Every
    # other multiset is drawn from rows of one entry sum, which compete
    # most closely: the cycles in this file's examples are of that kind
    rng = random.Random(53)
    cyclic = checked = 0
    for n in range(3, 7):
        for degree in (3, 4):
            fam = build_family({"mode": "rees", "variables": n, "levels": [
                {"degree": degree, "borel": f"x{n}^{degree}"}]})
            refs = fam.refs()
            at_row = {fam.factors(ref): i for i, ref in enumerate(refs)
                      if ref.level == 1}
            memo = {}
            for draw in range(250):
                pool = list(at_row)
                if draw % 2:
                    weight = sum(rng.choice(pool))
                    pool = [row for row in pool if sum(row) == weight]
                rows = rng.choices(pool, k=rng.randint(3, 8))
                ps = tuple(sorted(map(at_row.__getitem__, rows)))
                e = _measure(ps, refs, fam, memo)[1]
                excess = measure._cycle_excess(ps, refs, fam, memo)
                assert (excess > 0) == has_preference_cycle(rows), rows
                assert e == inversion_minimal(rows)[0] == \
                    pairwise_bound(rows) + excess
                cyclic += excess > 0
                checked += 1
    assert (checked, cyclic) == (2000, 37)


@pytest.mark.parametrize("seed, steps, calls",
                         [(1, 1782, 2), (15, 1854, 2), (16, 1812, 3)])
def test_measure_suite_frozen_on_cyclic_levels(bench_families, monkeypatch,
                                               seed, steps, calls):
    # max(5,3) walks that meet levels whose preferences cycle: frozen
    # reports, and one inversion_minimal call per distinct cyclic level
    # slice, none on an acyclic level
    fam = build_family(bench_families.LADDER["max5_3"])
    counted = []
    real = measure.inversion_minimal
    monkeypatch.setattr(measure, "inversion_minimal",
                        lambda rows: counted.append(rows) or real(rows))
    report = verify_measure_decrease(fam, build_basis(fam), 400, 8, seed)
    assert (report.samples, report.max_degree, report.steps,
            report.failures) == (400, 8, steps, ())
    assert len(counted) == calls
    assert all(has_preference_cycle(rows) for rows in counted)


def test_measure_on_high_degree_rows():
    # two listed levels of degree 120 and 121: a cross-level pair joins
    # two long groups, a same-level pair 120 short columns
    fam = build_family({"mode": "rees", "variables": 3, "levels": [
        {"degree": 120, "generators": [
            "x1^120", "x1^119*x2", "x1^119*x3", "x1^118*x2^2"]},
        {"degree": 121, "generators": [
            "x1^121", "x1^120*x2", "x1^120*x3", "x1^119*x2^2"]}]})
    refs = fam.refs()
    rng = random.Random(62)
    memo = {}
    for _ in range(20):
        m = TMonomial(rng.choices(refs, k=rng.randint(1, 6)))
        want = reference_measure(m, fam, max_permuted=4)
        assert _measure(at(refs, m), refs, fam, memo) == want
        assert reduction_level(m, fam) == want


def comparability_by_counts(m, fam) -> int:
    """c by its definition, counted by variable: an occurrence of x_i
    at a lower level and one of x_j, j > i, at a higher level make a
    pair, so each pair of levels adds the products of their exponent
    sums.  ``comparability_by_occurrences`` reads every occurrence pair,
    too many for rows of degree 1000."""
    sums = {}
    for ref in m.refs:
        exps = fam.generator(ref).exps
        row = sums.setdefault(ref.level, [0] * len(exps))
        for k, e in enumerate(exps):
            row[k] += e
    return sum(lo[i] * hi[j]
               for a, lo in sums.items() for b, hi in sums.items() if a < b
               for i in range(len(lo)) for j in range(i + 1, len(hi)))


def test_packed_parts_do_not_carry(tower4, monkeypatch):
    # the largest parts the caps allow: up to ROW_CAP rows of degree
    # 1000 (the generator degree cap) at each of two levels, so that a
    # monomial's c and e each sum to far more than one part can reach
    # (under 2 * 1000**2); no field may carry into the next.  c is
    # counted by variable, e level by level through inversion_minimal
    assert comparability_by_counts(demo_monomial(tower4), tower4) == 25
    low = ["x1^1000", "x1^500*x3^500", "x2^1000", "x1^999*x2",
           "x1*x2^998*x3"]
    high = ["x3^1000", "x2^500*x3^500", "x1^1000", "x1*x3^999",
            "x2^999*x3"]
    fam = build_family({"mode": "rees", "variables": 3, "levels": [
        {"degree": 1000, "generators": low},
        {"degree": 1000, "generators": high}]})
    refs = fam.refs()
    by_level = {}
    for ref in refs:
        by_level.setdefault(ref.level, []).append(ref)
    tested = []
    real = measure._cycle_excess

    def counted(run, *args):
        tested.append(run)
        return real(run, *args)
    monkeypatch.setattr(measure, "_cycle_excess", counted)

    def check(m, memo):
        want = (comparability_by_counts(m, fam),
                sum(inversion_minimal(rows)[0]
                    for rows in rows_by_level(m.refs, fam).values()))
        assert _measure(at(refs, m), refs, fam, memo) == want
        assert reduction_level(m, fam) == want
        return want

    rng = random.Random(63)
    memo = {}
    wants = [check(TMonomial(
        rng.choices(by_level[0], k=rng.randint(0, ROW_CAP))
        + rng.choices(by_level[1], k=ROW_CAP)
        + rng.choices(by_level[2], k=rng.randint(1, ROW_CAP))), memo)
        for _ in range(6)]
    # the largest c and the largest e each pass what one part can reach
    assert min(map(max, zip(*wants))) > 2 * 1000**2
    # five rows each of two refs whose strict preference follows ref
    # order: 25 pairs count with ref order and none against it, so the
    # level is not tested for a cycle
    r, s = next((r, s) for r, s in combinations(by_level[1], 2)
                if sum(a > b for a, b in zip(fam.factors(r), fam.factors(s)))
                < sum(a < b for a, b in zip(fam.factors(r), fam.factors(s))))
    tested.clear()
    check(TMonomial([r] * 5 + [s] * 5 + by_level[2][:3]), {})
    assert tested == []


def test_reduction_level_row_cap(tower4):
    m = parse_tpolynomial("T[1,1]^11", tower4).support()[0]
    with pytest.raises(ResourceCapError, match="11 rows, cap is 10"):
        reduction_level(m, tower4)
    # refused before any pair part is computed
    memo = {}
    with pytest.raises(ResourceCapError, match="11 rows"):
        _measure(at(tower4.refs(), m), tower4.refs(), tower4, memo)
    assert memo == {}
    # ten rows are fine
    assert ROW_CAP == 10
    ten = parse_tpolynomial("T[1,1]^10", tower4).support()[0]
    assert reduction_level(ten, tower4) == (0, 0)


def test_long_monomial_is_measured_level_by_level(tower4, maxpowers3):
    # more refs than ROW_CAP, no level over it: c and e come from the
    # pair parts, each level's e matching its permutation search
    m = parse_tpolynomial(
        "T[0,1]*T[0,2]*T[0,3]*T[1,1]*T[1,2]*T[1,3]*T[1,4]"
        "*T[2,1]*T[2,2]*T[2,3]*T[2,4]", tower4).support()[0]
    assert m.degree == 11 > ROW_CAP
    rows = rows_by_level(m.refs, tower4)
    assert max(map(len, rows.values())) <= ROW_CAP
    e = sum(min_inversions_by_permutation(r)[0] for r in rows.values())
    assert (comparability_by_occurrences(m, tower4), e) == (35, 7)
    assert reduction_level(m, tower4) == (35, 7)
    # 11 to 30 refs, at most ROW_CAP rows of at most three distinct refs
    # per level, so that the permutation search stays small
    for fam in (tower4, maxpowers3):
        rng = random.Random(f"long monomials/{fam!r}")
        by_level = {}
        for ref in fam.refs():
            by_level.setdefault(ref.level, []).append(ref)
        for _ in range(30):
            pools = {lv: rng.sample(refs, min(3, len(refs)))
                     for lv, refs in by_level.items()}
            rows_at = dict.fromkeys(pools, 0)
            picks = []
            for _ in range(rng.randint(11, 30)):
                lv = rng.choice([lv for lv in pools if rows_at[lv] < ROW_CAP])
                rows_at[lv] += 1
                picks.append(rng.choice(pools[lv]))
            m = TMonomial(picks)
            e = sum(min_inversions_by_permutation(r)[0]
                    for r in rows_by_level(m.refs, fam).values())
            assert reduction_level(m, fam) == (
                comparability_by_occurrences(m, fam), e), m


def test_measure_zero_iff_completely_reduced(tower4, maxpowers3):
    # completely reduced: no pair of the refs is in the pair table
    rng = random.Random(44)
    for fam in (tower4, maxpowers3):
        table = pair_table_by_rewrite_images(fam)
        refs = fam.refs()
        for _ in range(400):
            m = TMonomial(rng.choices(refs, k=rng.randint(0, 5)))
            reduced = not any(pair in table
                              for pair in combinations(m.refs, 2))
            assert (reduction_level(m, fam) == (0, 0)) == reduced


def test_polynomial_measure_sums(tower4):
    f = parse_tpolynomial("T[1,3]*T[1,4] + T[0,1]*T[2,7]", tower4)
    index = _RuleIndex((), tower4.refs())
    assert _polynomial_measure(f, index, tower4, {}) == (3, 1)
    assert _polynomial_measure(TPolynomial(), index, tower4, {}) == (0, 0)


# ------------------------------------------------------------- reduction

def test_trace_frozen(tower4):
    basis = build_basis(tower4)
    trace = traced_normal_form(
        parse_tpolynomial("T[1,3]*T[1,4]", tower4), basis, tower4)
    assert trace.initial_measure == (0, 1)
    assert len(trace.steps) == 1
    assert trace.steps[0].rewritten.text() == "T[1,3]*T[1,4]"
    assert trace.steps[0].measure == (0, 0)
    assert trace.normal_form == parse_tpolynomial("T[1,2]*T[1,5]", tower4)


def test_measure_drops_lexicographically(tower4, maxpowers3):
    rng = random.Random(45)
    for fam in (tower4, maxpowers3):
        basis = build_basis(fam)
        refs = fam.refs()
        for _ in range(120):
            m = TMonomial(rng.choices(refs, k=rng.randint(1, 5)))
            trace = traced_normal_form(
                TPolynomial.monomial(m), basis, fam)
            seq = trace_measures(trace)
            for before, after in zip(seq, seq[1:]):
                assert after < before
            assert seq[-1] == (0, 0)


def test_fresh_walk_memo_holds_the_chain_nearest_first(bench_families):
    # the measure suite reads a sample's chain off its fresh walk memo in
    # reverse: _normal_form stores the normal form first, then each
    # walked monomial, nearest to the normal form first.  Reversed, the
    # memo is the chain by distance, start first, and the reference
    # chain of the rewrite rule
    for rung in ("tower4", "max4_3", "max4_4"):
        fam = build_family(bench_families.LADDER[rung])
        basis = build_basis(fam)
        rules = rules_by_lead(basis)
        index = _RuleIndex(basis, fam.refs())
        rng = random.Random(f"walk memo/{rung}")
        for _ in range(100):
            m = TMonomial(rng.choices(fam.refs(), k=rng.randint(1, 8)))
            walk = {}
            nf, steps = _normal_form(index.positions(m.refs), index, walk)
            chain = list(reversed(walk))
            assert chain == sorted(walk, key=lambda ps: walk[ps][1],
                                   reverse=True)
            assert [walk[ps] for ps in chain] == [
                (nf, d) for d in range(steps, -1, -1)]
            assert list(map(index.monomial, chain)) == [
                TMonomial(r) for r in rewrite_chain(m.refs, rules)]


def test_rewrite_chain_is_the_one_term_trace(tower4, maxpowers3):
    # the reference chain takes the rewrite steps of the measure suite's
    # walk; the CLI's --trace steps polynomials: on one monomial both
    # take the same steps
    rng = random.Random(49)
    for fam in (tower4, maxpowers3):
        basis = build_basis(fam)
        rules = rules_by_lead(basis)
        refs = fam.refs()
        for _ in range(200):
            m = TMonomial(rng.choices(refs, k=rng.randint(1, 6)))
            chain = [TMonomial(r) for r in rewrite_chain(m.refs, rules)]
            f = TPolynomial.monomial(m)
            trace = traced_normal_form(f, basis, fam)
            assert [TPolynomial.monomial(c) for c in chain] == \
                [f] + [s.result for s in trace.steps]
            assert [reduction_level(c, fam) for c in chain] == \
                trace_measures(trace)


def test_cross_level_steps_drop_c_same_level_steps_drop_e(tower4):
    basis = build_basis(tower4)
    rng = random.Random(46)
    refs = tower4.refs()
    cross = same = 0
    for _ in range(150):
        m = TMonomial(rng.choices(refs, k=rng.randint(2, 5)))
        trace = traced_normal_form(TPolynomial.monomial(m), basis, tower4)
        seq = trace_measures(trace)
        for step, before, after in zip(trace.steps, seq, seq[1:]):
            a, b = step.rule.lead.refs
            if a.level == b.level:
                same += 1
                assert after.c == before.c
                assert after.e < before.e
            else:
                cross += 1
                assert after.c < before.c
    assert cross > 50 and same > 50


def test_polynomial_trace_decreases(tower4):
    basis = build_basis(tower4)
    rng = random.Random(47)
    refs = tower4.refs()
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(2, 4)):
            m = TMonomial(rng.choices(refs, k=rng.randint(1, 4)))
            terms.append((m, rng.choice([-2, -1, 1, 2])))
        f = TPolynomial(terms)
        trace = traced_normal_form(f, basis, tower4)
        seq = trace_measures(trace)
        for before, after in zip(seq, seq[1:]):
            assert after < before


def test_trace_step_cap_raises_invariant_error(tower4, monkeypatch):
    # a terminating chain of four steps, under a cap of three read at
    # call time
    basis = build_basis(tower4)
    f = parse_tpolynomial("T[1,1]^2*T[2,7]", tower4)
    assert len(traced_normal_form(f, basis, tower4).steps) == 4
    monkeypatch.setattr(reduction, "DEFAULT_STEP_CAP", 3)
    with pytest.raises(InternalInvariantError, match="exceeded 3 steps"):
        traced_normal_form(f, basis, tower4)


def test_trace_loop_keeps_its_own_step_cap(tower4, monkeypatch):
    # term chains of four steps and one: each walk stays within a cap of
    # four, the trace of five steps does not
    basis = build_basis(tower4)
    f = parse_tpolynomial("T[1,1]^2*T[2,7] + T[0,1]*T[2,7]", tower4)
    monkeypatch.setattr(reduction, "DEFAULT_STEP_CAP", 5)
    assert len(traced_normal_form(f, basis, tower4).steps) == 5
    monkeypatch.setattr(reduction, "DEFAULT_STEP_CAP", 4)
    # the walks pass, so the trace loop's check is the one that raises
    assert str(normal_form(f, basis)) == "T[1,2]*T[1,5]*T[2,1] + T[0,3]*T[2,3]"
    with pytest.raises(InternalInvariantError, match="exceeded 4 steps"):
        traced_normal_form(f, basis, tower4)


def _cycle_message(call) -> str:
    with pytest.raises(InternalInvariantError) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize("other", ["T[1,3]*T[1,5]", "T[1,2]*T[1,5]"])
def test_trace_names_a_rewrite_cycle(tower4, monkeypatch, other):
    """Two rules that undo each other, with overlapping leads or with
    tower4's coprime ones, T[1,3]*T[1,4] <-> T[1,2]*T[1,5].  The trace
    raises what ``normal_form`` raises, naming the cycle, before its
    first step.  Under a cap of 10^4 a trace that stepped until the cap
    would raise "exceeded" instead, in about half a second; under the
    default cap it would take most of a minute."""
    a = parse_tpolynomial("T[1,3]*T[1,4]", tower4).support()[0]
    b = parse_tpolynomial(other, tower4).support()[0]
    cyclic = (MarkedBinomial(a, b), MarkedBinomial(b, a))
    monkeypatch.setattr(reduction, "DEFAULT_STEP_CAP", 10**4)
    for text in ("T[1,3]*T[1,4]", "2*T[0,1] - T[1,3]*T[1,4]*T[2,1]"):
        f = parse_tpolynomial(text, tower4)
        want = _cycle_message(lambda: normal_form(f, cyclic))
        assert want.startswith("reduction cycles through 2 monomials")
        assert _cycle_message(
            lambda: traced_normal_form(f, cyclic, tower4)) == want


# ---------------------------------------------------------------- records

def test_measure_records_keep_their_fields(tower4):
    assert ReductionMeasure._fields == ("c", "e")
    trace = traced_normal_form(
        parse_tpolynomial("T[1,3]*T[1,4]", tower4), build_basis(tower4),
        tower4)
    assert type(trace)._fields == ("start", "initial_measure", "steps")
    step = trace.steps[0]
    assert type(step)._fields == ("rewritten", "rule", "result", "measure")
    assert trace.normal_form == step.result
    assert trace_measures(trace) == [(0, 1), (0, 0)]
    empty = type(trace)(trace.start, trace.initial_measure, ())
    assert empty.normal_form == trace.start
    for record, name in ((trace, "steps"), (step, "rule"),
                         (ReductionMeasure(0, 0), "c")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
