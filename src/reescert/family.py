"""Leveled generator families and closure under comparability.

A family collects, level by level, the ordered generator lists
``u_i1 > u_i2 > ... > u_i n_i`` (revlex descending) of equigenerated
strongly-stable-friendly ideals with non-decreasing degrees.  In rees
mode a level 0 holding the plain variables x1..xn is always present in
front of whatever the description lists; in fiber mode the listed levels
stand alone and an embedding degree larger than every generator degree
must be supplied.

Generators are addressed by ``GenRef(level, index)`` with 1-based index
inside the level; these are exactly the subscripts of the presentation
variables T[level, index] used downstream.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FamilyError, ResourceCapError
from .monomials import (
    Monomial,
    borel_closure,
    borel_member,
    ord_factors,
    ord_pair,
    parse_monomial,
    revlex_key,
    sort_factors,
    sort_pair,
)

MODES = ("rees", "fiber")

# Most ref pairs a family classifies (C(v, 2), about 1,415 refs).
PAIR_CAP = 10**6
# Highest declared level degree; the family keeps one factor tuple of
# this length per generator.  Matches MAX_TERM_DEGREE in presentation.
MAX_GENERATOR_DEGREE = 1000


class GenRef(NamedTuple):
    level: int
    index: int

    def __str__(self) -> str:
        return f"T[{self.level},{self.index}]"


@dataclass(frozen=True)
class Level:
    index: int
    degree: int
    generators: tuple[Monomial, ...]

    def __len__(self) -> int:
        return len(self.generators)

    @property
    def last(self) -> Monomial:
        """The revlex-least generator of the level."""
        return self.generators[-1]


class LeveledFamily:
    """Validated family with fast ref lookup.  Treat as immutable.

    Every generator is factored once, on construction, and its standard
    factorization kept (``factors``).  Every ref pair is classified once,
    on those factorizations: the incomparable ones, with the positions
    of their rewrite images, make the pair table that closure, the
    marked basis and complete reducedness read.  ``level_refs`` maps a
    position back to its ref.  More than ``PAIR_CAP`` pairs raise
    ``ResourceCapError`` before any is classified.
    """

    __slots__ = ("mode", "n", "embedding_degree", "levels", "_by_index",
                 "_level_refs", "_factors", "_refs", "_pairs")

    def __init__(self, mode, n, levels, embedding_degree=None):
        self.mode = mode
        self.n = n
        self.embedding_degree = embedding_degree
        self.levels = tuple(levels)
        self._by_index = {lv.index: lv for lv in self.levels}
        # level index -> {standard factorization: 1-based position}
        positions = {}
        # level index -> the level's refs, so a position maps to its ref
        self._level_refs = {}
        # ref -> standard factorization of its generator
        self._factors = {}
        for lv in self.levels:
            refs = tuple(GenRef(lv.index, j)
                         for j in range(1, len(lv.generators) + 1))
            self._level_refs[lv.index] = refs
            here = positions[lv.index] = {}
            for ref, g in zip(refs, lv.generators):
                f = self._factors[ref] = g.factors()
                here[f] = ref.index
        self._refs = tuple(self._factors)
        v = len(self._refs)
        if v * (v - 1) // 2 > PAIR_CAP:
            raise ResourceCapError(
                f"{v} generators make {v * (v - 1) // 2} pairs,"
                f" more than {PAIR_CAP}")
        # positions, not images: a Monomial pair per entry costs
        # megabytes on the larger families
        blocks = [(positions[i], [(ref, self._factors[ref]) for ref in refs])
                  for i, refs in self._level_refs.items()]
        pairs = {}
        for li, (here, row) in enumerate(blocks):
            for ai, (a, fa) in enumerate(row):
                # same level sorts, a higher level orders; lexicographic
                # ref order either way
                targets = [(sort_factors, here, row[ai + 1:])]
                targets += [(ord_factors, there, col)
                            for there, col in blocks[li + 1:]]
                for rewrite, there, col in targets:
                    for b, fb in col:
                        images = rewrite(fa, fb)
                        if images != (fa, fb):
                            pairs[(a, b)] = (here.get(images[0]),
                                             there.get(images[1]))
        self._pairs = pairs

    @property
    def top_level(self) -> int:
        """Largest level index; the t-vector in rees mode has this length."""
        return self.levels[-1].index if self.levels else 0

    def level(self, i: int) -> Level:
        try:
            return self._by_index[i]
        except KeyError:
            raise ValueError(f"no level {i} in this family") from None

    def level_indices(self) -> tuple[int, ...]:
        return tuple(lv.index for lv in self.levels)

    def refs(self) -> tuple[GenRef, ...]:
        """All generator refs in lexicographic order."""
        return self._refs

    def generator(self, ref: GenRef) -> Monomial:
        lv = self.level(ref[0])
        if not 1 <= ref[1] <= len(lv.generators):
            raise ValueError(
                f"index {ref[1]} out of range 1..{len(lv.generators)}"
                f" at level {ref[0]}")
        return lv.generators[ref[1] - 1]

    def level_refs(self, level_index: int) -> tuple[GenRef, ...]:
        """The level's refs in position order: entry j - 1 is the ref at
        1-based position j."""
        self.level(level_index)
        return self._level_refs[level_index]

    def factors(self, ref: GenRef) -> tuple[int, ...]:
        """Standard factorization of the referenced generator, as kept
        since construction.  An unknown ref raises like ``generator``."""
        try:
            return self._factors[ref]
        except (KeyError, TypeError):
            return self.generator(ref).factors()

    def incomparable_pairs(self) -> dict:
        """The pair table: each incomparable ref pair (a, b), a < b, in
        lexicographic order, mapped to the 1-based positions of its two
        rewrite images in the levels of a and b.  A position is None
        when that image is not in the family.  Do not mutate."""
        return self._pairs

    def __len__(self) -> int:
        return len(self._refs)

    def __repr__(self) -> str:
        sizes = ",".join(str(len(lv)) for lv in self.levels)
        return f"LeveledFamily(mode={self.mode!r}, n={self.n}, sizes=[{sizes}])"


def _is_int(value) -> bool:
    """An int from JSON; bool is an int subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_level(entry, pos: int, n: int):
    if not isinstance(entry, dict):
        raise FamilyError(f"level {pos}: expected an object")
    unknown = set(entry) - {"degree", "borel", "generators"}
    if unknown:
        raise FamilyError(f"level {pos}: unknown keys {sorted(unknown)}")
    degree = entry.get("degree")
    if not _is_int(degree) or degree < 1:
        raise FamilyError(f"level {pos}: degree must be a positive integer")
    if degree > MAX_GENERATOR_DEGREE:
        raise ResourceCapError(
            f"level {pos}: degree {degree} is over {MAX_GENERATOR_DEGREE}")
    has_borel = "borel" in entry
    has_list = "generators" in entry
    if has_borel == has_list:
        raise FamilyError(
            f"level {pos}: give exactly one of 'borel' or 'generators'")
    if has_borel:
        gen = parse_monomial(entry["borel"], n)
        if gen.degree != degree:
            raise FamilyError(
                f"level {pos}: borel generator {gen} has degree {gen.degree},"
                f" expected {degree}")
        return degree, borel_closure(gen)
    raw = entry["generators"]
    if not isinstance(raw, list) or not raw:
        raise FamilyError(f"level {pos}: generators must be a non-empty list")
    monos = []
    for text in raw:
        m = parse_monomial(text, n)
        if m.degree != degree:
            raise FamilyError(
                f"level {pos}: generator {m} has degree {m.degree},"
                f" expected {degree}")
        if m in monos:
            warnings.warn(
                f"level {pos}: duplicate generator {m} dropped")
            continue
        monos.append(m)
    monos.sort(key=revlex_key, reverse=True)
    return degree, tuple(monos)


def build_family(data: dict) -> LeveledFamily:
    """Validate a family description (parsed JSON) and build the family."""
    if not isinstance(data, dict):
        raise FamilyError("family description must be an object")
    unknown = set(data) - {"mode", "variables", "embedding_degree",
                           "levels", "name", "comment"}
    if unknown:
        raise FamilyError(f"unknown keys {sorted(unknown)}")
    mode = data.get("mode")
    if mode not in MODES:
        raise FamilyError(f"mode must be one of {MODES}, got {mode!r}")
    n = data.get("variables")
    if not _is_int(n) or n < 1:
        raise FamilyError("variables must be a positive integer")
    raw_levels = data.get("levels")
    if not isinstance(raw_levels, list):
        raise FamilyError("levels must be a list")

    parsed = [_parse_level(entry, pos, n)
              for pos, entry in enumerate(raw_levels, start=1)]
    degrees = [d for d, _ in parsed]
    for a, b in zip(degrees, degrees[1:]):
        if a > b:
            raise FamilyError(
                f"level degrees must be non-decreasing, got {degrees}")

    m = data.get("embedding_degree")
    if mode == "rees":
        if m is not None:
            raise FamilyError("embedding_degree only applies to fiber mode")
        level0 = Level(0, 1, tuple(
            Monomial.variable(i, n) for i in range(1, n + 1)))
        levels = [level0] + [
            Level(i, d, gens) for i, (d, gens) in enumerate(parsed, start=1)]
        return LeveledFamily("rees", n, levels)

    if not parsed:
        raise FamilyError("fiber mode needs at least one level")
    if not _is_int(m) or m <= degrees[-1]:
        raise FamilyError(
            "embedding_degree must be an integer larger than every level"
            f" degree (top degree is {degrees[-1]})")
    levels = [Level(i, d, gens) for i, (d, gens) in enumerate(parsed, start=1)]
    return LeveledFamily("fiber", n, levels, embedding_degree=m)


def family_from_file(path) -> LeveledFamily:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, over-long ints
            raise FamilyError(f"{path}: not valid JSON ({exc})") from exc
    return build_family(data)


def _check_refs(fam: LeveledFamily, a: GenRef, b: GenRef):
    ua = fam.generator(a)
    ub = fam.generator(b)
    if not tuple(a) < tuple(b):
        raise ValueError(f"need {GenRef(*a)} < {GenRef(*b)} lexicographically")
    return ua, ub


def rewrite_images(fam: LeveledFamily, a: GenRef, b: GenRef):
    """The sorted (same level) or ordered (lower by higher level) pair of
    monomials that replaces the product of the two referenced generators."""
    ua, ub = _check_refs(fam, a, b)
    if a[0] == b[0]:
        return sort_pair(ua, ub)
    return ord_pair(ua, ub)


def comparable(fam: LeveledFamily, a: GenRef, b: GenRef) -> bool:
    """True when the referenced pair is fixed by its rewrite: sorted for
    same-level pairs, ordered for cross-level pairs."""
    _check_refs(fam, a, b)
    return (tuple(a), tuple(b)) not in fam.incomparable_pairs()


@dataclass(frozen=True)
class Witness:
    """An incomparable pair whose rewrite leaves the family.

    ``images`` is the rewritten monomial pair; ``missing`` flags which of
    the two images (positions 0 and 1) is absent from its target level.
    """
    pair: tuple[GenRef, GenRef]
    images: tuple[Monomial, Monomial]
    missing: tuple[int, ...]


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    witnesses: tuple[Witness, ...]
    pairs_checked: int
    truncated: bool


def is_closed_under_comparability(
        fam: LeveledFamily, all_witnesses: bool = False,
        max_witnesses: int = 32) -> ClosureReport:
    """Check that every incomparable pair rewrites back into the family.

    Walks the family's pair table in lexicographic ref order, so the
    witness list is deterministic.  Collection stops at ``max_witnesses``
    unless ``all_witnesses`` is set; closure itself is always decided
    exactly.
    """
    witnesses = []
    truncated = False
    for (a, b), positions in fam.incomparable_pairs().items():
        if None not in positions:
            continue
        missing = tuple(k for k in (0, 1) if positions[k] is None)
        if all_witnesses or len(witnesses) < max_witnesses:
            witnesses.append(
                Witness((a, b), rewrite_images(fam, a, b), missing))
        else:
            truncated = True
    pairs = len(fam) * (len(fam) - 1) // 2
    return ClosureReport(not witnesses and not truncated,
                         tuple(witnesses), pairs, truncated)


@dataclass(frozen=True)
class Characterization:
    """Structural test of the levels: each level equal to (or inside) the
    Borel set of its least generator, plus the variable-support chain
    between consecutive least generators."""
    level_indices: tuple[int, ...]
    borel_equal: tuple[bool, ...]
    borel_subset: tuple[bool, ...]
    chain: tuple[bool, ...]
    conjunction: bool


def characterize(fam: LeveledFamily) -> Characterization:
    levels = [lv for lv in fam.levels if lv.index > 0]
    equal = []
    subset = []
    for lv in levels:
        bset = borel_closure(lv.last)
        equal.append(lv.generators == bset)
        subset.append(all(borel_member(g, lv.last) for g in lv.generators))
    chain = []
    for prev, nxt in zip(levels, levels[1:]):
        # greatest variable of the lower last divides nothing above the
        # least variable of the upper last
        chain.append(prev.last.head_index() >= nxt.last.tail_index())
    return Characterization(
        tuple(lv.index for lv in levels),
        tuple(equal), tuple(subset), tuple(chain),
        all(equal) and all(chain))
