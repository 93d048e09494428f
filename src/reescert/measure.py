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

from bisect import bisect_right
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
    in ref order with multiplicity.  A level the family lacks raises
    ``ValueError``, as ``fam.level`` does."""
    fam.level(level)
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


def inversion_minimal(rows):
    """Exact minimum inversion count over row orders, with the minimizing
    order itself (lexicographically least among minimizers).

    Only the same-column part of the count depends on the row order: the
    sum, over rows a placed before b, of w[a][b], the columns where b
    holds the smaller entry.  No order pays less than the sum over row
    pairs of min(w[a][b], w[b][a]).  A sorted order that meets this bound
    is optimal, and as the least row sequence it is the lexicographically
    least minimizer, so it is returned at once.  Otherwise a subset
    dynamic program over per-row subset sums of w finds the minimum in
    O(2^r * r) for r rows.  Results are memoized by row multiset, in a
    bounded cache.
    """
    rows = tuple(sorted(map(tuple, rows)))
    if len(rows) > ROW_CAP:
        raise ResourceCapError(
            f"level matrix has {len(rows)} rows, cap is {ROW_CAP}")
    if len({len(r) for r in rows}) > 1:
        raise ValueError("rows must share one degree")
    return _inversion_minimal(rows)


def _descents(groups) -> int:
    """Pairs (u, v), u in a group and v in a later one, with u > v: each
    entry is counted against the sorted entries of all earlier groups."""
    total = 0
    seen = []
    for group in groups:
        for v in group:
            total += len(seen) - bisect_right(seen, v)
        seen = sorted(seen + list(group))
    return total


@lru_cache(maxsize=MINIMAL_CACHE_SIZE)
def _inversion_minimal(rows):
    """``inversion_minimal`` on sorted rows.  The answer depends on the
    row multiset only: ties between minimizers break on row content."""
    r = len(rows)
    # inversions between two columns, within-row pairs included, do not
    # depend on the row order
    cross = _descents(zip(*rows))
    w = [[0] * r for _ in range(r)]
    identity = bound = 0
    for a in range(r):
        for b in range(a + 1, r):
            ab = ba = 0
            for x, y in zip(rows[a], rows[b]):
                if y < x:
                    ab += 1
                elif x < y:
                    ba += 1
            w[a][b], w[b][a] = ab, ba
            identity += ab
            bound += min(ab, ba)
    if identity == bound:
        return cross + identity, rows

    # h[S] = least same-column cost of arranging the row set S; first[S]
    # the least index (rows are sorted: the least row) that can lead it;
    # into[x][S] = cost of placing row x before the row set S
    full = (1 << r) - 1
    h = [0] * (full + 1)
    first = [0] * (full + 1)
    into = [[0] * (full + 1) for _ in range(r)]
    for subset in range(1, full + 1):
        low = subset & -subset
        y = low.bit_length() - 1
        best = None
        for x in range(r):
            into[x][subset] = into[x][subset ^ low] + w[x][y]
            if subset >> x & 1:
                rest = subset ^ (1 << x)
                cost = h[rest] + into[x][rest]
                if best is None or cost < best:
                    best, first[subset] = cost, x
        h[subset] = best

    order = []
    subset = full
    while subset:
        order.append(rows[first[subset]])
        subset ^= 1 << first[subset]
    return cross + h[full], tuple(order)


def _rows_by_level(mono: TMonomial, fam: LeveledFamily) -> dict:
    """Each referenced level's factor rows, in ref order, in one pass."""
    by_level: dict[int, list[tuple[int, ...]]] = {}
    for ref in mono.refs:
        by_level.setdefault(ref.level, []).append(fam.factors(ref))
    return by_level


def _comparability(by_level: dict) -> int:
    """c from the rows by level, taken from the top level down: a
    descent is a higher occurrence with the larger index, that is the
    smaller variable, over a lower one."""
    return _descents([v for row in by_level[lv] for v in row]
                     for lv in sorted(by_level, reverse=True))


def comparability_number(mono: TMonomial, fam: LeveledFamily) -> int:
    """Pairs (occurrence at level i, strictly smaller variable occurrence
    at a level above i).  Zero iff every cross-level factor pair is
    fixed by the ordering rewrite."""
    return _comparability(_rows_by_level(mono, fam))


def reduction_level(mono: TMonomial, fam: LeveledFamily) -> ReductionMeasure:
    """The pair (c, minimal e summed over levels) for one T-monomial."""
    by_level = _rows_by_level(mono, fam)
    e = 0
    for rows in by_level.values():
        e += inversion_minimal(rows)[0]
    return ReductionMeasure(_comparability(by_level), e)


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
