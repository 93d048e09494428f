from __future__ import annotations

import random

import pytest

from reescert import measure
from reescert.errors import InternalInvariantError, ResourceCapError
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
    MarkedBinomial,
    TMonomial,
    TPolynomial,
    _lead_index,
    build_basis,
    is_completely_reduced,
    parse_tpolynomial,
)

from bruteforce import (
    column_major_inversions,
    min_inversions_by_permutation,
    rewrite_chain,
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
            assert inversion_count(order) == count
    # within-row inversions count in every row order: 2,2,1,1 and 3,1,1,2
    assert inversion_minimal([(2, 1), (2, 1)])[0] == 4
    assert inversion_minimal([(3, 1), (1, 2)])[0] == 3


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


def test_rewrite_chain_is_the_one_term_trace(tower4, maxpowers3):
    # the reference chain takes the rewrite steps of the measure suite's
    # walk; the CLI's --trace steps polynomials: on one monomial both
    # take the same steps
    rng = random.Random(49)
    for fam in (tower4, maxpowers3):
        basis = build_basis(fam)
        index = _lead_index(basis)
        refs = fam.refs()
        for _ in range(200):
            m = TMonomial(rng.choices(refs, k=rng.randint(1, 6)))
            chain = [TMonomial(r) for r in rewrite_chain(m.refs, index)]
            f = TPolynomial.monomial(m)
            trace = traced_normal_form(f, basis, fam)
            assert [TPolynomial.monomial(c) for c in chain] == \
                [f] + [s.result for s in trace.steps]
            assert [reduction_level(c, fam) for c in chain] == \
                trace.measures()


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


def test_trace_step_cap_raises_invariant_error(tower4, monkeypatch):
    # two rules with overlapping leads that undo each other never stop
    cyclic = (
        MarkedBinomial(TMonomial([(1, 3), (1, 4)]),
                       TMonomial([(1, 3), (1, 5)])),
        MarkedBinomial(TMonomial([(1, 3), (1, 5)]),
                       TMonomial([(1, 3), (1, 4)])),
    )
    monkeypatch.setattr(measure, "DEFAULT_STEP_CAP", 10)
    with pytest.raises(InternalInvariantError, match="exceeded 10 steps"):
        traced_normal_form(
            parse_tpolynomial("T[1,3]*T[1,4]", tower4), cyclic, tower4)
