from __future__ import annotations

import random

import pytest

from reescert.errors import ResourceCapError
from reescert.measure import (
    LevelMatrix,
    ReductionMeasure,
    comparability_number,
    inversion_count,
    inversion_minimal,
    level_matrix,
    polynomial_reduction_level,
    reduction_level,
    traced_normal_form,
)
from reescert.presentation import (
    TMonomial,
    TPolynomial,
    build_basis,
    is_completely_reduced,
    parse_tpolynomial,
)

from bruteforce import (
    column_major_inversions,
    min_inversions_by_permutation,
)


def demo_monomial(fam):
    return parse_tpolynomial(
        "T[0,1]^2*T[0,4]*T[1,1]*T[1,6]*T[1,8]*T[2,2]*T[2,7]",
        fam).support()[0]


# ------------------------------------------------------ inversion counts

def test_inversion_count_frozen():
    assert inversion_count([(1, 1), (2, 4), (3, 3)]) == 3
    assert inversion_count([(1, 1), (3, 3), (2, 4)]) == 3
    assert inversion_count([(2, 2), (1, 3)]) == 1
    assert inversion_count([(1, 3), (2, 2)]) == 1
    assert inversion_count([(1, 2), (2, 3)]) == 0
    assert inversion_count([(1, 1, 3)]) == 0
    assert inversion_count([]) == 0


def test_inversion_count_matches_bruteforce():
    rng = random.Random(41)
    for _ in range(300):
        width = rng.randint(1, 4)
        rows = [tuple(sorted(rng.randint(1, 5) for _ in range(width)))
                for _ in range(rng.randint(1, 5))]
        assert inversion_count(rows) == column_major_inversions(rows)


def test_inversion_count_rejects_ragged():
    with pytest.raises(ValueError):
        inversion_count([(1, 2), (1,)])


def test_inversion_minimal_frozen():
    count, order = inversion_minimal([(1, 1), (3, 3), (2, 4)])
    assert count == 3
    assert order == ((1, 1), (2, 4), (3, 3))  # lex-least among the ties
    count, order = inversion_minimal([(2, 2), (1, 3)])
    assert count == 1
    assert order == ((1, 3), (2, 2))


def test_inversion_minimal_matches_permutation_search():
    rng = random.Random(42)
    for _ in range(200):
        width = rng.randint(1, 4)
        rows = [tuple(sorted(rng.randint(1, 5) for _ in range(width)))
                for _ in range(rng.randint(1, 6))]
        count, order = inversion_minimal(rows)
        want_count, want_rows = min_inversions_by_permutation(rows)
        assert count == want_count
        assert list(order) == want_rows
        assert inversion_count(order) == count


def test_inversion_minimal_row_cap():
    rows = [(1,)] * 11
    with pytest.raises(ResourceCapError):
        inversion_minimal(rows)
    assert inversion_minimal([(1,)] * 10)[0] == 0


# ----------------------------------------------------------- the measure

def test_level_matrix_rows(tower4):
    m = demo_monomial(tower4)
    assert level_matrix(m, tower4, 0) == LevelMatrix(0, ((1,), (1,), (4,)))
    assert level_matrix(m, tower4, 1) == LevelMatrix(
        1, ((1, 1), (3, 3), (2, 4)))
    assert level_matrix(m, tower4, 2) == LevelMatrix(
        2, ((1, 1, 2), (2, 2, 3)))
    assert level_matrix(m, tower4, 3) == LevelMatrix(3, ())


def test_reduction_level_frozen(tower4):
    m = demo_monomial(tower4)
    assert comparability_number(m, tower4) == 25
    assert inversion_minimal(level_matrix(m, tower4, 0).rows)[0] == 0
    assert inversion_minimal(level_matrix(m, tower4, 1).rows)[0] == 3
    assert inversion_minimal(level_matrix(m, tower4, 2).rows)[0] == 1
    assert reduction_level(m, tower4) == ReductionMeasure(25, 4)


def test_reduction_level_small_frozen(tower4):
    P = lambda s: parse_tpolynomial(s, tower4).support()[0]
    assert reduction_level(P("T[1,3]*T[1,4]"), tower4) == (0, 1)
    assert reduction_level(P("T[1,2]*T[1,5]"), tower4) == (0, 0)
    assert reduction_level(P("T[0,1]*T[2,7]"), tower4) == (3, 0)
    assert reduction_level(P("T[0,3]*T[2,3]"), tower4) == (0, 0)
    assert reduction_level(TMonomial(), tower4) == (0, 0)


def test_measure_zero_iff_completely_reduced(tower4, maxpowers3):
    rng = random.Random(44)
    for fam in (tower4, maxpowers3):
        refs = fam.refs()
        for _ in range(400):
            m = TMonomial(rng.choices(refs, k=rng.randint(0, 5)))
            assert (reduction_level(m, fam) == (0, 0)) == \
                is_completely_reduced(m, fam)


def test_polynomial_measure_sums(tower4):
    f = parse_tpolynomial("T[1,3]*T[1,4] + T[0,1]*T[2,7]", tower4)
    assert polynomial_reduction_level(f, tower4) == (3, 1)
    assert polynomial_reduction_level(TPolynomial(), tower4) == (0, 0)


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
            seq = trace.measures()
            for before, after in zip(seq, seq[1:]):
                assert after < before
            assert seq[-1] == (0, 0)


def test_cross_level_steps_drop_c_same_level_steps_drop_e(tower4):
    basis = build_basis(tower4)
    rng = random.Random(46)
    refs = tower4.refs()
    cross = same = 0
    for _ in range(150):
        m = TMonomial(rng.choices(refs, k=rng.randint(2, 5)))
        trace = traced_normal_form(TPolynomial.monomial(m), basis, tower4)
        seq = trace.measures()
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
        seq = trace.measures()
        for before, after in zip(seq, seq[1:]):
            assert after < before
