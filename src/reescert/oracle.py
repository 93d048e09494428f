"""Brute-force verification suites run against the marked basis.

These recompute, by exhaustive enumeration at bounded degree, the facts
the basis is supposed to guarantee: every monomial-map fiber holds
exactly one completely reduced monomial, every member reduces to it, and
the fiber differences all lie in the ideal the basis generates.  Slow on
purpose; the caps keep them at desk scale.  The fiber and kernel suites
each reduce every distinct monomial once, through one ``_normal_form``
memo per call, or one memo both share.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import ResourceCapError
from .family import LeveledFamily
from .measure import _measure
from .presentation import TMonomial
from .reduction import (
    PsiImage,
    TPolynomial,
    _lead_index,
    _least_lead,
    _normal_form,
    psi_eval,
)
# Not called here (the suites reduce monomials directly); imported because
# perfbench/tracer.py times calls by patching this name in this module.
from .reduction import normal_form  # noqa: F401

ENUMERATION_CAP = 10**7
FAILURE_CAP = 32


def count_tmonomials(fam: LeveledFamily, max_degree: int) -> int:
    """Number of T-monomials of degree 1..max_degree."""
    v = len(fam)
    return sum(comb(v + d - 1, d) for d in range(1, max_degree + 1))


def enumerate_fibers(fam: LeveledFamily, max_degree: int
                     ) -> dict[PsiImage, list[TMonomial]]:
    """Bucket all T-monomials of degree 1..max_degree by their image.

    The degree-0 monomial is excluded; its fiber is trivially itself.
    More than ``ENUMERATION_CAP`` monomials raise ``ResourceCapError``
    before any is built.  The map is a monoid homomorphism: each ref's
    image is computed once and packed into one int, with ``(max_degree *
    largest entry).bit_length()`` bits per exponent, so that no sum of at
    most ``max_degree`` images carries from one exponent into the next.
    Each monomial of degree d extends one of degree d - 1 by a ref no
    smaller than its last, with one int add, so images and members come
    in ``combinations_with_replacement`` order.  Each fiber's key is
    unpacked once, at the end.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    total = count_tmonomials(fam, max_degree)
    if total > ENUMERATION_CAP:
        raise ResourceCapError(
            f"{total} T-monomials up to degree {max_degree},"
            f" cap is {ENUMERATION_CAP}")
    refs = fam.refs()
    images = [psi_eval(TMonomial._of_sorted((ref,)), fam) for ref in refs]
    split = len(images[0].x)
    vectors = [img.x + img.t for img in images]
    width = len(vectors[0])
    bits = (max_degree * max(map(max, vectors))).bit_length()
    packed = [sum(e << (bits * k) for k, e in enumerate(vec))
              for vec in vectors]
    of_sorted = TMonomial._of_sorted
    flat: dict[int, list[TMonomial]] = {}
    # (refs, packed image, index of the last ref) of every monomial of
    # degree d
    frontier = [((), 0, 0)]
    for d in range(1, max_degree + 1):
        grown = []
        for combo, key, last in frontier:
            for k in range(last, len(refs)):
                image = key + packed[k]
                grew = combo + (refs[k],)
                members = flat.get(image)
                if members is None:
                    flat[image] = [of_sorted(grew)]
                else:
                    members.append(of_sorted(grew))
                if d < max_degree:
                    grown.append((grew, image, k))
        frontier = grown
    mask = (1 << bits) - 1
    out = {}
    for image, members in flat.items():
        vec = tuple(image >> (bits * k) & mask for k in range(width))
        out[PsiImage(vec[:split], vec[split:])] = members
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


def verify_unique_normal_forms(fam: LeveledFamily, basis, max_degree: int,
                               *, buckets=None, memo=None) -> FiberReport:
    """Every fiber must hold exactly one completely reduced monomial and
    every member must reduce to exactly that one.  ``buckets`` may hand
    in ``enumerate_fibers(fam, max_degree)``, and ``memo`` a
    ``_normal_form`` memo of the same basis, each shared between
    suites."""
    if buckets is None:
        buckets = enumerate_fibers(fam, max_degree)
    if memo is None:
        memo = {}
    pairs = fam.incomparable_pairs()
    index = _lead_index(basis)
    failures = []
    truncated = False
    reductions = 0
    largest = 0

    def record(image, reason, monos):
        nonlocal truncated
        if len(failures) < FAILURE_CAP:
            failures.append(FiberFailure(image, reason, tuple(monos)))
        else:
            truncated = True

    for image, members in buckets.items():
        largest = max(largest, len(members))
        reduced = [m for m in members if _least_lead(m.refs, pairs) is None]
        if len(reduced) != 1:
            record(image,
                   f"expected exactly one completely reduced member,"
                   f" found {len(reduced)}", reduced or members)
        rep = reduced[0] if len(reduced) == 1 else None
        for m in members:
            out = _normal_form(m.refs, index, memo)[0]
            reductions += 1
            if rep is not None and out != rep.refs:
                out = TMonomial(out)
                record(image,
                       f"normal form of {m} is {out}, not the reduced"
                       f" representative {rep}", (m, out, rep))
    return FiberReport(
        max_degree, sum(len(v) for v in buckets.values()), len(buckets),
        largest, reductions, tuple(failures), truncated)


class KernelReport(NamedTuple):
    max_degree: int
    fibers: int
    differences: int
    failures: tuple[FiberFailure, ...]
    truncated: bool

    @property
    def passed(self) -> bool:
        return not self.failures and not self.truncated


def verify_kernel_generation(fam: LeveledFamily, basis, max_degree: int,
                             *, buckets=None, memo=None) -> KernelReport:
    """The basis must reduce every fiber difference to zero.

    The differences member - representative span the degree-bounded part
    of the kernel of the monomial map, so this certifies generation up
    to the cap degree.  A difference m - rep of two monomials reduces to
    zero exactly when nf(m) == nf(rep), which is what is compared.
    ``buckets`` and ``memo`` are as in ``verify_unique_normal_forms``.
    """
    if buckets is None:
        buckets = enumerate_fibers(fam, max_degree)
    if memo is None:
        memo = {}
    pairs = fam.incomparable_pairs()
    index = _lead_index(basis)
    failures = []
    truncated = False
    differences = 0
    for image, members in buckets.items():
        if len(members) < 2:
            continue
        reduced = [m for m in members if _least_lead(m.refs, pairs) is None]
        rep = reduced[0] if len(reduced) == 1 else members[0]
        rep_nf = _normal_form(rep.refs, index, memo)[0]
        for m in members:
            if m == rep:
                continue
            differences += 1
            m_nf = _normal_form(m.refs, index, memo)[0]
            if m_nf != rep_nf:
                if len(failures) < FAILURE_CAP:
                    nf = TPolynomial([(TMonomial(m_nf), 1),
                                      (TMonomial(rep_nf), -1)])
                    failures.append(FiberFailure(
                        image, f"{m} - {rep} does not reduce to zero"
                        f" (normal form {nf})", (m, rep)))
                else:
                    truncated = True
    return KernelReport(max_degree, len(buckets), differences,
                        tuple(failures), truncated)


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
    strictly in lexicographic order at every single step.  One memo of
    ref and pair parts serves every measure of the suite."""
    import random

    if samples < 1:
        raise ValueError("samples must be at least 1")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    rng = random.Random(seed)
    refs = fam.refs()
    index = _lead_index(basis)
    parts = {}
    steps = 0
    failures = []
    for _ in range(samples):
        mono = TMonomial._of_sorted(tuple(sorted(
            rng.choices(refs, k=rng.randint(1, max_degree)))))
        walk = {}
        steps += _normal_form(mono.refs, index, walk)[1]
        # one chain: its distances to the normal form are distinct
        chain = sorted(walk, key=lambda r: walk[r][1], reverse=True)
        seq = [_measure(r, fam, parts) for r in chain]
        ok = all(after < before for before, after in zip(seq, seq[1:]))
        if not ok or seq[-1] != (0, 0):
            if len(failures) < FAILURE_CAP:
                failures.append(mono)
    return MeasureReport(samples, max_degree, steps, tuple(failures))
