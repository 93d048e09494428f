"""Brute-force verification suites run against the marked basis.

These recompute, by exhaustive enumeration at bounded degree, the facts
the basis is supposed to guarantee: every monomial-map fiber holds
exactly one completely reduced monomial, every member reduces to it, and
the fiber differences all lie in the ideal the basis generates.  Slow on
purpose; the caps keep them at desk scale.  The fiber and kernel suites
are one pass, which reduces every monomial once; the two public suites
keep the last pass's reports, keyed on its inputs' content, so that
calling both on equal inputs runs it once.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import gt
from typing import Callable, NamedTuple

from . import reduction
from .errors import ResourceCapError
from .family import LeveledFamily
from .measure import _measure
from .presentation import TMonomial
from .reduction import (
    PsiImage,
    TPolynomial,
    _RuleIndex,
    _normal_form,
    psi_eval,
)
# Not called here (the suites reduce monomials directly); imported because
# perfbench/tracer.py times calls by patching this name in this module.
from .reduction import normal_form  # noqa: F401

ENUMERATION_CAP = 10**7
FAILURE_CAP = 32


def count_tmonomials(fam: LeveledFamily, max_degree: int) -> int:
    """Number of T-monomials of degree 1..max_degree: the sum over d of
    C(v + d - 1, d) for v refs, in closed form by the hockey-stick
    identity, so that a huge degree costs no more than a small one."""
    return comb(len(fam) + max_degree, max_degree) - 1


def _check_enumeration(fam: LeveledFamily, max_degree: int) -> None:
    """Refuse a degree below 1, and more than ``ENUMERATION_CAP``
    T-monomials, before any is built."""
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    total = count_tmonomials(fam, max_degree)
    if total > ENUMERATION_CAP:
        # a count past int's decimal-string limit is told by its size
        shown = (total if total.bit_length() < 4096
                 else f"over 2^{total.bit_length() - 1}")
        raise ResourceCapError(
            f"{shown} T-monomials up to degree {max_degree},"
            f" cap is {ENUMERATION_CAP}")


def _fiber_members(fam: LeveledFamily, max_degree: int, code
                   ) -> tuple[dict[int, list[tuple]], Callable]:
    """The T-monomials of degree 1..max_degree, bucketed by packed image,
    and the function that unpacks an image.  A monomial is the sorted
    tuple of the ``code[k]`` of its refs ``fam.refs()[k]``, for ``code``
    increasing in k: the refs themselves, or their positions in a
    ``_RuleIndex``.  The caller checks the degree and the count first
    (``_check_enumeration``).

    The map is a monoid homomorphism: each ref's image is computed once
    and packed into one int, with ``(max_degree * largest
    entry).bit_length()`` bits per exponent, so that no sum of at most
    ``max_degree`` images carries from one exponent into the next.  Each
    monomial of degree d extends one of degree d - 1 by a ref no smaller
    than its last, with one int add, so images and members come in
    ``combinations_with_replacement`` order.
    """
    refs = fam.refs()
    images = [psi_eval(TMonomial._of_sorted((ref,)), fam) for ref in refs]
    split = len(images[0].x)
    vectors = [img.x + img.t for img in images]
    width = len(vectors[0])
    bits = (max_degree * max(map(max, vectors))).bit_length()
    packed = [sum(e << (bits * k) for k, e in enumerate(vec))
              for vec in vectors]
    flat: dict[int, list[tuple]] = {}
    # (monomial, packed image, index of the last ref) of every monomial
    # of degree d
    frontier = [((), 0, 0)]
    for d in range(1, max_degree + 1):
        grown = []
        for combo, key, last in frontier:
            for k in range(last, len(refs)):
                image = key + packed[k]
                grew = combo + (code[k],)
                members = flat.get(image)
                if members is None:
                    flat[image] = [grew]
                else:
                    members.append(grew)
                if d < max_degree:
                    grown.append((grew, image, k))
        frontier = grown
    mask = (1 << bits) - 1

    def unpack(image: int) -> PsiImage:
        vec = tuple(image >> (bits * k) & mask for k in range(width))
        return PsiImage(vec[:split], vec[split:])
    return flat, unpack


def enumerate_fibers(fam: LeveledFamily, max_degree: int
                     ) -> dict[PsiImage, list[TMonomial]]:
    """Bucket all T-monomials of degree 1..max_degree by their image.

    The degree-0 monomial is excluded; its fiber is trivially itself.
    More than ``ENUMERATION_CAP`` monomials raise ``ResourceCapError``
    before any is built.  Images and members come in
    ``combinations_with_replacement`` order (see ``_fiber_members``).
    """
    _check_enumeration(fam, max_degree)
    flat, unpack = _fiber_members(fam, max_degree, fam.refs())
    out = {}
    for image, members in flat.items():
        # in place, so that no second list per fiber is held
        members[:] = map(TMonomial._of_sorted, members)
        out[unpack(image)] = members
    return out


class FiberFailure(NamedTuple):
    image: PsiImage
    reason: str
    monomials: tuple[TMonomial, ...]


class FiberReport(NamedTuple):
    max_degree: int
    monomials: int
    fibers: int
    largest_fiber: int
    reductions: int
    failures: tuple[FiberFailure, ...]
    truncated: bool

    @property
    def passed(self) -> bool:
        return not self.failures and not self.truncated


class KernelReport(NamedTuple):
    max_degree: int
    fibers: int
    differences: int
    failures: tuple[FiberFailure, ...]
    truncated: bool

    @property
    def passed(self) -> bool:
        return not self.failures and not self.truncated


def _check_fibers(fam: LeveledFamily, basis, max_degree: int
                  ) -> tuple[FiberReport, KernelReport]:
    """Both fiber suites in one pass over one enumeration.

    The fibers are taken out one at a time, in enumeration order, and
    each member is reduced once through a ``_normal_form`` memo of its
    fiber's own.  Any memo gives the same answers, since the rule a
    monomial takes depends on the monomial alone; a kernel basis's
    walks stay in their fiber, so a shared memo would only hit there,
    and a wrong trail that leaves it only walks some monomials again.
    The basis's leads are the pair table's keys, as on a built basis,
    when the index holds a trail for each key and no other lead; this
    is read off ``index.trails`` in place.  Then a fiber whose members
    all reach one member f fails neither suite (f is its one reduced
    member and every normal form), and one count settles it.

    Any other fiber's completely reduced members are those with no
    pair of their sorted positions a table key: looked up in
    ``index.trails`` when its leads are the table's, and in a set of
    the table's position pairs, built once, only when they are not.
    Each normal form is then compared twice.  The unique suite wants
    it to be the fiber's one reduced member.  The kernel suite wants it
    to equal the representative's own normal form: member -
    representative reduces to zero exactly then, and these differences
    span the degree-bounded kernel of the monomial map.  The kernel
    representative is the reduced member, or the first member when
    there is not exactly one.  Both comparisons are needed: under a
    flipped rule a reduced member need not be its own normal form.
    Each suite keeps ``FAILURE_CAP`` failures and is truncated past
    that.  Members stay position tuples of the basis's ``_RuleIndex``
    throughout; T-monomials and images are built for failures only.
    """
    _check_enumeration(fam, max_degree)
    refs = fam.refs()
    index = _RuleIndex(basis, refs)
    buckets, unpack = _fiber_members(fam, max_degree, index.positions(refs))
    table, trails = fam.incomparable_pairs(), index.trails
    leads_are_table = len(table) == len(trails) and all(
        index.positions(pair) in trails for pair in table)
    leads = (trails.keys() if leads_are_table
             else set(map(index.positions, table)))
    mono = index.monomial
    fibers = len(buckets)
    monomials = sum(map(len, buckets.values()))
    largest = max(map(len, buckets.values()), default=0)
    # up to FAILURE_CAP + 1 each: one more marks the report truncated
    unique, kernel = [], []
    # popped in enumeration order (popitem would take the last first)
    for image in list(buckets):
        members = buckets.pop(image)
        memo = {}
        # an entry is a non-empty tuple: a hit is the walk's whole answer
        hit = memo.get
        outs = [(hit(m) or _normal_form(m, index, memo))[0] for m in members]
        size = len(outs)
        if (leads_are_table and outs.count(outs[0]) == size
                and outs[0] in members):
            continue
        reduced = [m for m in members if leads.isdisjoint(combinations(m, 2))]
        if len(reduced) != 1 and len(unique) <= FAILURE_CAP:
            unique.append(FiberFailure(
                unpack(image), f"expected exactly one completely reduced"
                f" member, found {len(reduced)}",
                tuple(map(mono, reduced or members))))
        rep = reduced[0] if len(reduced) == 1 else members[0]
        rep_nf = outs[members.index(rep)]
        # a fiber whose members all reach rep_nf, and rep when it is the
        # one reduced member, reports nothing: C-level counts tell it
        if outs.count(rep_nf) == size and (
                len(reduced) != 1 or outs.count(rep) == size):
            continue
        for m, out in zip(members, outs):
            if (len(reduced) == 1 and out != rep
                    and len(unique) <= FAILURE_CAP):
                out_mono = mono(out)
                unique.append(FiberFailure(
                    unpack(image), f"normal form of {mono(m)} is"
                    f" {out_mono}, not the reduced representative"
                    f" {mono(rep)}", (mono(m), out_mono, mono(rep))))
            if out != rep_nf and len(kernel) <= FAILURE_CAP:
                nf = TPolynomial([(mono(out), 1), (mono(rep_nf), -1)])
                kernel.append(FiberFailure(
                    unpack(image), f"{mono(m)} - {mono(rep)} does not"
                    f" reduce to zero (normal form {nf})",
                    (mono(m), mono(rep))))
    return (FiberReport(max_degree, monomials, fibers, largest,
                        monomials, tuple(unique[:FAILURE_CAP]),
                        len(unique) > FAILURE_CAP),
            KernelReport(max_degree, fibers, monomials - fibers,
                         tuple(kernel[:FAILURE_CAP]),
                         len(kernel) > FAILURE_CAP))


# (key, reports) of the last pass the public suites ran
_last_pass = None


def _shared_pass(fam: LeveledFamily, basis, max_degree: int
                 ) -> tuple[FiberReport, KernelReport]:
    """``_check_fibers`` behind a one-slot memo, so that the second
    public suite called on equal inputs reads the first one's pass.
    The key is content, so that a family and basis rebuilt equal hit;
    it holds ``tuple(basis)``, the degree with its type (the reports
    print it) and the caps the pass reads at call time.  A pass that
    raises stores nothing.  The pass runs with the cyclic garbage
    collector paused (``reduction._paused``)."""
    global _last_pass
    rules = tuple(basis)
    key = (fam.mode, fam.n, fam.embedding_degree, fam.levels, rules,
           type(max_degree), max_degree, ENUMERATION_CAP, FAILURE_CAP,
           reduction.DEFAULT_STEP_CAP)
    if _last_pass is not None and _last_pass[0] == key:
        return _last_pass[1]
    reports = reduction._paused(_check_fibers, fam, rules, max_degree)
    _last_pass = key, reports
    return reports


def verify_unique_normal_forms(fam: LeveledFamily, basis,
                               max_degree: int) -> FiberReport:
    """Every fiber must hold exactly one completely reduced monomial and
    every member must reduce to exactly that one.  Shares its pass with
    ``verify_kernel_generation`` (``_shared_pass``)."""
    return _shared_pass(fam, basis, max_degree)[0]


def verify_kernel_generation(fam: LeveledFamily, basis,
                             max_degree: int) -> KernelReport:
    """The basis must reduce every fiber difference to zero, which
    certifies that it generates the kernel up to the cap degree.  Shares
    its pass with ``verify_unique_normal_forms`` (``_shared_pass``)."""
    return _shared_pass(fam, basis, max_degree)[1]


class MeasureReport(NamedTuple):
    samples: int
    max_degree: int
    steps: int
    failures: tuple[TMonomial, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_measure_decrease(fam: LeveledFamily, basis, samples: int = 200,
                            max_degree: int = 5,
                            seed: int = 20260822) -> MeasureReport:
    """Walk random T-monomials along the rewrite chain whose critical
    pairs ``confluence_check`` joins, and insist the (c, e) measure drops
    strictly in lexicographic order at every single step.  A fresh walk
    memo holds a sample's chain nearest the normal form first, so the
    chain is read from it in reverse.  One memo of factor rows and
    packed pair parts serves every measure of the suite: each is one
    C-level sum over a monomial's pairs, whose c, e and preference
    fields are sized for the longest monomial the row cap admits, so
    that they cannot carry (``measure._layout``).  The samples run with
    the cyclic garbage collector paused (``reduction._paused``)."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    steps, failures = reduction._paused(_sampled, fam, basis, samples,
                                        max_degree, seed)
    return MeasureReport(samples, max_degree, steps, tuple(failures))


def _sampled(fam: LeveledFamily, basis, samples: int, max_degree: int,
             seed: int) -> tuple[int, list[TMonomial]]:
    """``verify_measure_decrease``'s pass: the steps its samples walk,
    and the first ``FAILURE_CAP`` samples whose measure fails to drop."""
    import random

    rng = random.Random(seed)
    refs = fam.refs()
    index = _RuleIndex(basis, refs)
    parts = {}
    steps = 0
    failures = []
    # choices picks by index, so drawing positions draws the same samples
    code = index.positions(refs)
    for _ in range(samples):
        ps = tuple(sorted(rng.choices(code, k=rng.randint(1, max_degree))))
        walk = {}
        steps += _normal_form(ps, index, walk)[1]
        seq = [_measure(r, index.refs, fam, parts) for r in reversed(walk)]
        if seq[-1] != (0, 0) or not all(map(gt, seq, seq[1:])):
            if len(failures) < FAILURE_CAP:
                failures.append(index.monomial(ps))
    return steps, failures
