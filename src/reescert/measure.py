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

Both numbers are sums over pairs of ref occurrences.  c adds, over each
cross-level pair, the descents between its two factor rows.  e adds,
over each same-level pair, the inversions between entries in different
columns, which no row order changes, plus the lesser of what the pair
pays in its shared columns one way round or the other; a standard
factorization is sorted, so a row has no inversions of its own.  That
sum is exact whenever the level's strict pairwise preferences have no
cycle (see ``inversion_minimal``); ``_measure`` adds, for a level whose
preferences cycle, what ``inversion_minimal`` finds beyond it.  The
measure suite keeps each pair's part, with its preference, in one memo
for all the monomials it checks, and tests each level slice for a cycle
once.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import chain, groupby
from operator import gt, lt
from typing import NamedTuple

from .errors import ResourceCapError
from .family import LeveledFamily
from .presentation import TMonomial
from . import reduction
from .reduction import (
    TPolynomial,
    _RuleIndex,
    _normal_form,
    _polynomial_step,
    _step_cap_error,
)

ROW_CAP = 10


class ReductionMeasure(NamedTuple):
    c: int
    e: int


def inversion_minimal(rows):
    """Exact minimum inversion count over row orders, with the minimizing
    order itself (lexicographically least among minimizers).

    Only the same-column part of the count depends on the row order: the
    sum, over rows a placed before b, of w[a][b], the columns where b
    holds the smaller entry.  No order pays less than the sum over row
    pairs of min(w[a][b], w[b][a]), and an order meets this bound
    exactly when it honours every strict preference, a before b where
    w[a][b] < w[b][a].  Finding the least-cost order is a small linear
    ordering problem (Groetschel, Juenger and Reinelt, Operations
    Research 1984).  If the strict preferences have no cycle, some order
    honours them all, so the bound is the minimum; only a cycle, which
    forces some pair to pay more than its minimum, lifts the answer
    above it.  The answer comes from a subset dynamic program over
    per-row subset sums of w, in O(2^r * r) for r rows, which keeps the
    lexicographically least minimizer: ties break on row content, so
    the answer depends on the row multiset only.
    """
    rows = sorted(map(tuple, rows))
    r = len(rows)
    _check_row_cap(r)
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows must share one degree")
    # inversions between two columns, within-row pairs included, do not
    # depend on the row order
    cross = _descents(zip(*rows))
    w = [[0] * r for _ in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            w[a][b], w[b][a] = _column_wins(rows[a], rows[b])
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


def _check_row_cap(n: int) -> None:
    """Refuse a level matrix of more than ``ROW_CAP`` rows."""
    if n > ROW_CAP:
        raise ResourceCapError(f"level matrix has {n} rows, cap is {ROW_CAP}")


def _descents(groups) -> int:
    """Pairs (u, v), u in a group and v in a later one, with u > v: each
    entry is counted against the sorted entries of all earlier groups,
    then insorted among them.  The groups are columns of at most
    ``ROW_CAP`` entries or a pair's two sorted factor rows.  Groups must
    be sequences.
    """
    total = 0
    seen = []
    for group in groups:
        for v in group:
            total += len(seen) - bisect_right(seen, v)
        for v in group:
            insort(seen, v)
    return total


def _column_wins(a, b) -> tuple[int, int]:
    """(w_ab, w_ba) of two rows of one degree: the columns in which b
    holds the smaller entry, then those in which a does.  With a placed
    before b the pair's shared columns invert w_ab times."""
    return sum(map(gt, a, b)), sum(map(lt, a, b))


def _pair_part(fam: LeveledFamily, r, s) -> tuple[int, int, int]:
    """(c, e, prefer) of one occurrence pair r <= s in ref order.

    Across levels, c counts the descents from the row of s, the higher
    ref, to that of r: an entry of s with the larger index (the smaller
    variable) over one of r.  Within a level, e is the pair's order-free
    part, the descents from one column to a later one (the rows are
    sorted, so all between the two rows), plus min(w_rs, w_sr) of
    ``_column_wins``: what the pair pays in its shared columns with the
    cheaper row first.  prefer is the sign of w_rs - w_sr: -1 when r is
    strictly preferred before s, 1 when s is before r, else 0.
    """
    a, b = fam.factors(r), fam.factors(s)
    if r.level != s.level:
        return _descents((b, a)), 0, 0
    rs, sr = _column_wins(a, b)
    return 0, _descents(zip(a, b)) + min(rs, sr), (rs > sr) - (rs < sr)


def _level_runs(ps: tuple, refs: tuple) -> list[tuple]:
    """The slices of these sorted positions that share a level of three
    rows or more.  Position order is ref order, so a level's positions
    are contiguous.  A level of more than ``ROW_CAP`` rows is refused."""
    runs = [tuple(run) for _, run in groupby(ps, lambda p: refs[p].level)]
    for run in runs:
        _check_row_cap(len(run))
    return [run for run in runs if len(run) > 2]


def _cycle_excess(run: tuple, refs: tuple, fam: LeveledFamily,
                  memo: dict) -> int:
    """What the level at these sorted positions pays beyond its pair
    sum: 0 unless its strict preferences, read from the pair parts in
    ``memo``, cycle, which Kahn's algorithm finds when it cannot place
    every row; then ``inversion_minimal`` less the pair sum."""
    after = [[] for _ in run]
    preds = [0] * len(run)
    pair_e = 0
    for i, r in enumerate(run):
        parts = memo[r]
        for j in range(i + 1, len(run)):
            _, pe, prefer = parts[run[j]]
            pair_e += pe
            if prefer:
                a, b = (i, j) if prefer < 0 else (j, i)
                after[a].append(b)
                preds[b] += 1
    placed = [i for i, n in enumerate(preds) if not n]
    for a in placed:  # grows as rows are freed
        for b in after[a]:
            preds[b] -= 1
            if not preds[b]:
                placed.append(b)
    if len(placed) == len(run):
        return 0
    rows = [fam.factors(refs[p]) for p in run]
    return inversion_minimal(rows)[0] - pair_e


def _measure(ps: tuple, refs: tuple, fam: LeveledFamily,
             memo: dict) -> ReductionMeasure:
    """(c, e) of the monomial at these sorted positions of ``refs``,
    from its pair parts.

    c is the sum of the cross-level pair parts.  e is the sum of the
    same-level pair parts, the pairwise bound of ``inversion_minimal``
    (the rows are standard factorizations, sorted, so no row has
    inversions of its own), plus each level's cycle excess, which is 0
    unless the level's strict preferences cycle.  Ref order is a row
    order, so no level cycles unless ref order breaks some pair's
    preference, and a cycle takes three rows.  A level of more than
    ``ROW_CAP`` rows is refused before any pair part is computed.
    ``memo``, kept over many monomials of one numbering, maps each
    position, on first use, to a dict of its pair parts with the
    positions after it, and each tested level slice to its excess.
    """
    runs = _level_runs(ps, refs) if len(ps) > ROW_CAP else ()
    c = e = 0
    missed = False
    for i, r in enumerate(ps):
        parts = memo.get(r)
        if parts is None:
            parts = memo[r] = {}
        for s in ps[i + 1:]:
            try:
                pc, pe, prefer = parts[s]
            except KeyError:
                pc, pe, prefer = parts[s] = _pair_part(fam, refs[r], refs[s])
            c += pc
            e += pe
            if prefer > 0:
                missed = True
    if missed:
        for run in runs or _level_runs(ps, refs):
            excess = memo.get(run)
            if excess is None:
                excess = memo[run] = _cycle_excess(run, refs, fam, memo)
            e += excess
    return ReductionMeasure(c, e)


def reduction_level(mono: TMonomial, fam: LeveledFamily) -> ReductionMeasure:
    """The pair (c, minimal e summed over levels) for one T-monomial,
    or for its refs given as a tuple in any order."""
    index = _RuleIndex((), mono)
    return _measure(index.positions(mono), index.refs, fam, {})


def _polynomial_measure(f: TPolynomial, index: _RuleIndex,
                        fam: LeveledFamily, memo: dict) -> ReductionMeasure:
    """Support-wise sum of the measure, strictly lex-decreasing along any
    reduction, with a memo of pair parts on the index's positions that
    the caller may keep over many polynomials."""
    c = e = 0
    for mono in f.terms:
        mc, me = _measure(index.positions(mono), index.refs, fam, memo)
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


def traced_normal_form(f: TPolynomial, basis,
                       fam: LeveledFamily) -> ReductionTrace:
    """Deterministic reduction with the (c, e) measure after every step.

    Takes the steps ``reduce_step`` takes.  Each term is first walked
    on positions by ``_normal_form``, so that a basis whose rewriting
    cycles raises ``InternalInvariantError`` at once, naming the cycle
    as ``normal_form`` does.  More than ``reduction.DEFAULT_STEP_CAP``
    steps, read at call time, raise it too, as in every other
    reduction: the measure should forbid that many.  One memo of pair
    parts serves every step.
    """
    index = _RuleIndex(basis, chain.from_iterable(f.terms))
    walks = {}
    for mono in f.terms:
        _normal_form(index.positions(mono), index, walks)
    memo = {}
    steps = []
    current = f
    initial = _polynomial_measure(f, index, fam, memo)
    while True:
        step = _polynomial_step(current, index)
        if step is None:
            return ReductionTrace(f, initial, tuple(steps))
        mono, rule, current = step
        steps.append(TraceStep(
            mono, rule, current,
            _polynomial_measure(current, index, fam, memo)))
        if len(steps) > reduction.DEFAULT_STEP_CAP:
            raise _step_cap_error(reduction.DEFAULT_STEP_CAP)
