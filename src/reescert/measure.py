"""Termination measure for reduction: (c, e) compared lexicographically.

c, the comparability number, counts cross-level disorder: pairs of one
variable occurrence at a lower level and a strictly smaller variable
occurrence at any higher level.  e sums, over levels, the minimal
inversion count of the level matrix, minimized over row orders.

A level matrix stacks the standard factorizations of the generators a
T-monomial references at one level, one row per factor with multiplicity.
Inversions are counted in column-major reading order: a pair of entries
inverts when the later one is the greater variable, i.e. carries the
smaller index.  Every deterministic or random reduction step strictly
lowers (c, e), which is what makes reduction terminate; normal forms are
exactly the monomials at measure (0, 0).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import ResourceCapError
from .family import LeveledFamily
from .presentation import (
    DEFAULT_STEP_CAP,
    TMonomial,
    TPolynomial,
    _lead_index,
    _polynomial_step,
    _step_cap_error,
)

ROW_CAP = 10
# row multisets kept by inversion_minimal; one oracle-ladder benchmark
# run meets about 6,900 distinct ones
MINIMAL_CACHE_SIZE = 2**16


class ReductionMeasure(NamedTuple):
    c: int
    e: int


class LevelMatrix(NamedTuple):
    level: int
    rows: tuple[tuple[int, ...], ...]


def level_matrix(mono: TMonomial, fam: LeveledFamily,
                 level: int) -> LevelMatrix:
    """Rows are the factorizations of the level's referenced generators,
    in ref order with multiplicity."""
    rows = tuple(fam.factors(ref)
                 for ref in mono.refs if ref.level == level)
    return LevelMatrix(level, rows)


def inversion_count(matrix) -> int:
    """Inversions of a level matrix in column-major reading order."""
    rows = matrix.rows if isinstance(matrix, LevelMatrix) else tuple(matrix)
    if not rows:
        return 0
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows must share one degree")
    seq = [rows[i][j] for j in range(width) for i in range(len(rows))]
    total = 0
    for p in range(len(seq)):
        for q in range(p + 1, len(seq)):
            if seq[q] < seq[p]:
                total += 1
    return total


def _pair_costs(rows):
    """cross, w: the row-order-independent part, the inversions between
    two columns (within-row pairs included), and the same-column cost
    w[a][b] paid when row a is placed before row b."""
    r = len(rows)
    width = len(rows[0]) if r else 0
    cross = 0
    w = [[0] * r for _ in range(r)]
    for a in range(r):
        for b in range(r):
            for j in range(width):
                if a != b and rows[b][j] < rows[a][j]:
                    w[a][b] += 1
                for jj in range(j + 1, width):
                    if rows[b][jj] < rows[a][j]:
                        cross += 1
    return cross, w


def inversion_minimal(rows):
    """Exact minimum inversion count over row orders, with the minimizing
    order itself (lexicographically least among minimizers).

    Only the same-column part of the count depends on the row order, so
    a subset dynamic program over rows finds the true minimum without
    walking all permutations.  Results are memoized by row multiset, in
    a bounded cache.
    """
    rows = tuple(tuple(r) for r in rows)
    if len(rows) > ROW_CAP:
        raise ResourceCapError(
            f"level matrix has {len(rows)} rows, cap is {ROW_CAP}")
    if len(set(len(r) for r in rows)) > 1:
        raise ValueError("rows must share one degree")
    return _inversion_minimal(tuple(sorted(rows)))


@lru_cache(maxsize=MINIMAL_CACHE_SIZE)
def _inversion_minimal(rows):
    """``inversion_minimal`` on sorted rows.  The answer depends on the
    row multiset only: ties between minimizers break on row content."""
    if len(rows) <= 1:
        return inversion_count(rows), rows

    r = len(rows)
    cross, w = _pair_costs(rows)
    full = (1 << r) - 1

    # h[S] = least same-column cost of arranging the row set S; first[S]
    # the least index (rows are sorted: the least row) that can lead it
    h = [0] * (full + 1)
    first = [0] * (full + 1)
    for subset in range(1, full + 1):
        best = None
        for x in range(r):
            if not subset & (1 << x):
                continue
            rest = subset & ~(1 << x)
            cost = h[rest]
            for y in range(r):
                if rest & (1 << y):
                    cost += w[x][y]
            if best is None or cost < best:
                best, first[subset] = cost, x
        h[subset] = best

    order = []
    subset = full
    while subset:
        x = first[subset]
        order.append(rows[x])
        subset &= ~(1 << x)

    return cross + h[full], tuple(order)


def comparability_number(mono: TMonomial, fam: LeveledFamily) -> int:
    """Pairs (occurrence at level i, strictly smaller variable occurrence
    at a level above i).  Zero iff every cross-level factor pair is
    fixed by the ordering rewrite."""
    by_level: dict[int, list[int]] = {}
    for ref in mono.refs:
        by_level.setdefault(ref.level, []).extend(fam.factors(ref))
    levels = sorted(by_level)
    total = 0
    for pos, i in enumerate(levels):
        for j in levels[pos + 1:]:
            for low in by_level[i]:
                for high in by_level[j]:
                    if high > low:  # larger index, smaller variable
                        total += 1
    return total


def reduction_level(mono: TMonomial, fam: LeveledFamily) -> ReductionMeasure:
    """The pair (c, minimal e summed over levels) for one T-monomial."""
    c = comparability_number(mono, fam)
    e = 0
    for lv in {ref.level for ref in mono.refs}:
        rows = level_matrix(mono, fam, lv).rows
        e += inversion_minimal(rows)[0]
    return ReductionMeasure(c, e)


def polynomial_reduction_level(f: TPolynomial,
                               fam: LeveledFamily) -> ReductionMeasure:
    """Support-wise sum; strictly lex-decreasing along any reduction."""
    c = e = 0
    for mono in f.terms:
        mc, me = reduction_level(mono, fam)
        c += mc
        e += me
    return ReductionMeasure(c, e)


class TraceStep(NamedTuple):
    rewritten: TMonomial
    rule: object
    result: TPolynomial
    measure: ReductionMeasure


class ReductionTrace(NamedTuple):
    start: TPolynomial
    initial_measure: ReductionMeasure
    steps: tuple[TraceStep, ...]

    @property
    def normal_form(self) -> TPolynomial:
        return self.steps[-1].result if self.steps else self.start

    def measures(self) -> list[ReductionMeasure]:
        return [self.initial_measure] + [s.measure for s in self.steps]


def traced_normal_form(f: TPolynomial, basis,
                       fam: LeveledFamily) -> ReductionTrace:
    """Deterministic reduction with the (c, e) measure after every step.

    Takes the steps ``reduce_step`` takes.  More than
    ``DEFAULT_STEP_CAP`` of them raise ``InternalInvariantError``, as in
    every other reduction: the measure should forbid that many.
    """
    index = _lead_index(basis)
    steps = []
    current = f
    initial = polynomial_reduction_level(f, fam)
    while True:
        step = _polynomial_step(current, index)
        if step is None:
            return ReductionTrace(f, initial, tuple(steps))
        mono, rule, current = step
        steps.append(TraceStep(
            mono, rule, current, polynomial_reduction_level(current, fam)))
        if len(steps) > DEFAULT_STEP_CAP:
            raise _step_cap_error(DEFAULT_STEP_CAP)
