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

import warnings
from typing import NamedTuple

from .errors import FamilyError, ResourceCapError
from .monomials import (
    Monomial,
    borel_closure,
    borel_member,
    borel_size,
    monomial_of_terms,
    ord_factors,
    ord_pair,
    parse_terms,
    revlex_key,
    sort_factors,
    sort_pair,
)

MODES = ("rees", "fiber")

# Most ref pairs a family classifies (C(v, 2), about 1,415 refs).
# ``build_family`` counts the refs of a description before it builds
# any level.
PAIR_CAP = 10**6
# Most variables a family (or ``reescert bset -n``) declares, refused
# before any exponent vector of that length exists.  Level 0 of a rees
# family alone is over PAIR_CAP from 1,416 variables on.
MAX_VARIABLES = 2000
# Highest declared level degree; the family keeps one factor tuple of
# this length per generator.  Matches MAX_TERM_DEGREE in reduction.
MAX_GENERATOR_DEGREE = 1000
# Bits per variable of a packed exponent vector: a product of two
# generators has exponents up to 2 * MAX_GENERATOR_DEGREE, so adding two
# packed generators never carries from one variable into the next.
PACK_BITS = (2 * MAX_GENERATOR_DEGREE).bit_length()
# Widest packed product a family memoizes its rewrites by: a family near
# PAIR_CAP can hold a million keys.  A family in more than
# MEMO_KEY_BITS // PACK_BITS (23) variables rewrites every pair instead.
MEMO_KEY_BITS = 256
# Witness pairs ``is_closed_under_comparability`` collects unless asked
# for all of them.
WITNESS_CAP = 32


def _check_pair_cap(refs: int) -> None:
    """Refuse a family of ``refs`` generators with more than
    ``PAIR_CAP`` ref pairs."""
    pairs = refs * (refs - 1) // 2
    if pairs > PAIR_CAP:
        raise ResourceCapError(
            f"{refs} generators make {pairs} pairs, more than {PAIR_CAP}")


def check_variable_cap(n: int) -> None:
    """Refuse a variable count over ``MAX_VARIABLES``."""
    if n > MAX_VARIABLES:
        raise ResourceCapError(
            f"{n} variables are more than {MAX_VARIABLES}")


def _packed(exps) -> int:
    """The exponent vector as one int, ``PACK_BITS`` bits per variable,
    x1 lowest: the packed product of two generators is the sum of their
    packed exponent vectors."""
    key = 0
    for e in reversed(exps):
        key = (key << PACK_BITS) | e
    return key


class GenRef(NamedTuple):
    level: int
    index: int

    def __str__(self) -> str:
        return f"T[{self.level},{self.index}]"


class Level:
    """One level: its index, its degree and its generators, revlex
    descending.  Immutable; ``len`` is the number of generators."""

    __slots__ = ("index", "degree", "generators")

    def __init__(self, index: int, degree: int,
                 generators: tuple[Monomial, ...]):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name, value):
        raise AttributeError("Level is immutable")

    def _key(self):
        return (self.index, self.degree, self.generators)

    def __eq__(self, other):
        return isinstance(other, Level) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Level(index={self.index!r}, degree={self.degree!r},"
                f" generators={self.generators!r})")

    def __len__(self) -> int:
        return len(self.generators)

    @property
    def last(self) -> Monomial:
        """The revlex-least generator of the level."""
        return self.generators[-1]


class LeveledFamily:
    """Validated family with fast ref lookup.  Treat as immutable.

    Every generator is factored once, on construction, and its standard
    factorization kept (``factors``).  The ref pairs are classified on
    demand, in lexicographic order, into the pair table that closure,
    the marked basis and complete reducedness read: each incomparable
    pair mapped to the refs of its rewrite images, lead to trail.  The
    rewrite of a pair is a function of its product alone, so each
    distinct product of a level block (the pairs of one level, or of two
    levels) is rewritten once, keyed by its packed exponent vector; a
    pair is comparable exactly when its product's image refs are its
    own.  ``open_pairs`` lists the entries with a missing image.
    ``incomparable_pairs`` and ``open_pairs`` classify every pair left
    on their first call; the closure scan stops at the first open pair
    past its witness cap.
    More than ``PAIR_CAP`` pairs raise ``ResourceCapError`` on
    construction, before any is classified.
    """

    __slots__ = ("mode", "n", "embedding_degree", "levels", "_by_index",
                 "_factors", "_refs", "_pairs", "_open", "_scan")

    def __init__(self, mode, n, levels, embedding_degree=None):
        self.mode = mode
        self.n = n
        self.embedding_degree = embedding_degree
        self.levels = tuple(levels)
        self._by_index = {lv.index: lv for lv in self.levels}
        # ref -> standard factorization of its generator
        self._factors = {}
        _check_pair_cap(sum(len(lv) for lv in self.levels))
        # a wide family keys every product 0 and memoizes none
        memoize = n * PACK_BITS <= MEMO_KEY_BITS
        # per level: ({standard factorization: ref}, its generators as
        # (ref, factorization, packed exponents))
        blocks = []
        for lv in self.levels:
            here = {}
            row = []
            for j, g in enumerate(lv.generators, start=1):
                ref = GenRef(lv.index, j)
                f = self._factors[ref] = g.factors()
                here[f] = ref
                row.append((ref, f, _packed(g.exps) if memoize else 0))
            blocks.append((here, row))
        self._refs = tuple(self._factors)
        # the refs already held in ``blocks``, not images: a Monomial
        # pair per entry costs megabytes on the larger families
        self._pairs = {}
        self._open = []
        # None once every pair is classified; then _open is a tuple
        self._scan = _classify(blocks, memoize, self._pairs, self._open)

    def _open_upto(self, count: int) -> list:
        """The first ``count`` open pairs in table order, or all of them
        when there are fewer: pairs are classified only that far."""
        while self._scan is not None and len(self._open) < count:
            if next(self._scan, None) is None:
                self._finish()
        return self._open[:count]

    def _finish(self) -> None:
        """Classify every pair not yet classified."""
        if self._scan is not None:
            for _ in self._scan:
                pass
            self._scan = None
            self._open = tuple(self._open)

    @property
    def top_level(self) -> int:
        """Largest level index; the t-vector in rees mode has this length."""
        return self.levels[-1].index if self.levels else 0

    def level(self, i: int) -> Level:
        try:
            return self._by_index[i]
        except KeyError:
            raise ValueError(f"no level {i} in this family") from None

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

    def factors(self, ref: GenRef) -> tuple[int, ...]:
        """Standard factorization of the referenced generator, as kept
        since construction.  An unknown ref raises like ``generator``."""
        try:
            return self._factors[ref]
        except (KeyError, TypeError):
            return self.generator(ref).factors()

    def incomparable_pairs(self) -> dict:
        """The pair table: each incomparable ref pair (a, b), a < b, in
        lexicographic order, mapped to the refs (c, d) of its two
        rewrite images in the levels of a and b, so that each entry is
        the rule ``T_a*T_b -> T_c*T_d``.  A ref is None when that image
        is not in the family.  Completed on the first call, one rewrite
        per distinct product of a level block.  Do not mutate."""
        self._finish()
        return self._pairs

    def open_pairs(self) -> tuple:
        """The pair-table keys with a missing image (a None ref),
        in table order; empty exactly when the family is closed under
        comparability."""
        self._finish()
        return self._open

    def __len__(self) -> int:
        return len(self._refs)

    def __repr__(self) -> str:
        sizes = ",".join(str(len(lv)) for lv in self.levels)
        return f"LeveledFamily(mode={self.mode!r}, n={self.n}, sizes=[{sizes}])"


def _classify(blocks, memoize: bool, pairs: dict, open_pairs: list):
    """Classify the ref pairs of ``blocks`` in lexicographic order:
    enter each incomparable pair in ``pairs`` with its image refs,
    append each one with a missing image to ``open_pairs``, and yield
    it.  A module-level generator, so that a family it fills is not held
    by its own pending scan."""
    for li, (here, row) in enumerate(blocks):
        # same level sorts, a higher level orders; lexicographic ref
        # order either way.  Each target block keeps its own memo,
        # packed product -> image refs, for as long as this level's
        # rows are paired.
        targets = [(sort_factors, here, None, {})]
        targets += [(ord_factors, there, col, {})
                    for there, col in blocks[li + 1:]]
        for ai, (a, fa, ka) in enumerate(row):
            for rewrite, there, col, memo in targets:
                for b, fb, kb in (row[ai + 1:] if col is None else col):
                    key = ka + kb
                    trail = memo.get(key)
                    if trail is None:
                        first, second = rewrite(fa, fb)
                        trail = (here.get(first), there.get(second))
                        if memoize:
                            memo[key] = trail
                    # the image refs come from the same blocks as a and
                    # b, so identity is equality
                    if trail[0] is not a or trail[1] is not b:
                        pair = (a, b)
                        pairs[pair] = trail
                        if None in trail:
                            open_pairs.append(pair)
                            yield pair


def _is_int(value) -> bool:
    """An int from JSON; bool is an int subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_level(entry, pos: int, n: int):
    """Validate one level of a description and count its generators,
    building none of them: (degree, generator count, a function that
    builds the generators, revlex descending)."""
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
        if not isinstance(entry["borel"], str):
            raise FamilyError(f"level {pos}: borel must be a string")
        terms = parse_terms(entry["borel"], n)
        gen = monomial_of_terms(terms, n)
        if gen.degree != degree:
            raise FamilyError(
                f"level {pos}: borel generator {gen} has degree {gen.degree},"
                f" expected {degree}")
        return (degree, borel_size(gen),
                lambda: borel_closure(monomial_of_terms(terms, n)))
    raw = entry["generators"]
    if not isinstance(raw, list) or not raw:
        raise FamilyError(f"level {pos}: generators must be a non-empty list")
    seen = set()
    listed = []
    for text in raw:
        if not isinstance(text, str):
            raise FamilyError(f"level {pos}: generators must be strings")
        terms = parse_terms(text, n)
        if sum(terms.values()) != degree:
            m = monomial_of_terms(terms, n)
            raise FamilyError(
                f"level {pos}: generator {m} has degree {m.degree},"
                f" expected {degree}")
        key = frozenset(terms.items())
        if key in seen:
            warnings.warn(f"level {pos}: duplicate generator"
                          f" {monomial_of_terms(terms, n)} dropped")
            continue
        seen.add(key)
        listed.append(terms)
    return degree, len(listed), lambda: tuple(sorted(
        (monomial_of_terms(terms, n) for terms in listed),
        key=revlex_key, reverse=True))


def build_family(data: dict) -> LeveledFamily:
    """Validate a family description (parsed JSON) and build the family.

    The generators are counted from the description first, so that an
    oversized family is refused before any of its levels is built."""
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
    check_variable_cap(n)
    raw_levels = data.get("levels")
    if not isinstance(raw_levels, list):
        raise FamilyError("levels must be a list")

    parsed = [_parse_level(entry, pos, n)
              for pos, entry in enumerate(raw_levels, start=1)]
    degrees = [d for d, _, _ in parsed]
    for a, b in zip(degrees, degrees[1:]):
        if a > b:
            raise FamilyError(
                f"level degrees must be non-decreasing, got {degrees}")

    m = data.get("embedding_degree")
    if mode == "rees":
        if m is not None:
            raise FamilyError("embedding_degree only applies to fiber mode")
    else:
        if not parsed:
            raise FamilyError("fiber mode needs at least one level")
        if not _is_int(m) or m <= degrees[-1]:
            raise FamilyError(
                "embedding_degree must be an integer larger than every level"
                f" degree (top degree is {degrees[-1]})")
    _check_pair_cap((n if mode == "rees" else 0)
                    + sum(size for _, size, _ in parsed))
    levels = [Level(i, d, build())
              for i, (d, _, build) in enumerate(parsed, start=1)]
    if mode == "rees":
        level0 = Level(0, 1, tuple(
            Monomial.variable(i, n) for i in range(1, n + 1)))
        return LeveledFamily("rees", n, [level0] + levels)
    return LeveledFamily("fiber", n, levels, embedding_degree=m)


def family_from_file(path) -> LeveledFamily:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, over-long ints
            raise FamilyError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise FamilyError(
                f"{path}: not valid JSON (nested too deeply)") from exc
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


class Witness(NamedTuple):
    """An incomparable pair whose rewrite leaves the family.

    ``images`` is the rewritten monomial pair; ``missing`` flags which of
    the two images (positions 0 and 1) is absent from its target level.
    """
    pair: tuple[GenRef, GenRef]
    images: tuple[Monomial, Monomial]
    missing: tuple[int, ...]


class ClosureReport(NamedTuple):
    """The closure verdict and its witnesses, at most ``WITNESS_CAP``
    unless all were asked for (``truncated`` when more exist).
    ``pairs_checked`` counts the ref pairs, in lexicographic order,
    that the verdict rests on: C(v, 2) for v refs, or, when the scan
    stopped at the first open pair past ``WITNESS_CAP``, the pairs up to
    and including that one.  A certificate of a family with the
    structural conjunction reports the C(v, 2) pairs the paper's theorem
    settles without classifying one; ``reescert check`` rescans them."""
    closed: bool
    witnesses: tuple[Witness, ...]
    pairs_checked: int
    truncated: bool


def is_closed_under_comparability(
        fam: LeveledFamily, all_witnesses: bool = False) -> ClosureReport:
    """Check that every incomparable pair rewrites back into the family.

    Walks the entries of the family's pair table with a missing image
    (``open_pairs``), in lexicographic ref order, so the witness list is
    deterministic.  Unless ``all_witnesses`` is set, witnesses stop at
    ``WITNESS_CAP`` and pairs are classified only as far as the next
    open pair, which marks the report truncated; closure itself is
    always decided exactly.
    """
    refs = len(fam)
    checked = refs * (refs - 1) // 2
    found = (fam.open_pairs() if all_witnesses
             else fam._open_upto(WITNESS_CAP + 1))
    truncated = not all_witnesses and len(found) > WITNESS_CAP
    if truncated:
        # ordinal of the stop pair (i, j) among the pairs of refs i < j
        i, j = (fam.refs().index(ref) for ref in found[WITNESS_CAP])
        checked = i * (2 * refs - i - 1) // 2 + (j - i - 1) + 1
        found = found[:WITNESS_CAP]
    trails = fam._pairs
    witnesses = tuple(
        Witness(pair, rewrite_images(fam, *pair),
                tuple(k for k in (0, 1) if trails[pair][k] is None))
        for pair in found)
    return ClosureReport(not witnesses and not truncated, witnesses,
                         checked, truncated)


class Characterization(NamedTuple):
    """Structural test of the levels: each level equal to (or inside) the
    Borel set of its least generator, plus the variable-support chain
    between consecutive least generators."""
    level_indices: tuple[int, ...]
    borel_equal: tuple[bool, ...]
    borel_subset: tuple[bool, ...]
    chain: tuple[bool, ...]
    conjunction: bool


def characterize(fam: LeveledFamily) -> Characterization:
    """A level equals the Borel set of its least generator exactly when
    it lies inside it and has as many members: its generators are
    distinct and revlex-sorted, like the set's.  The set is counted, not
    built, though one over ``BOREL_CAP`` is still refused."""
    levels = [lv for lv in fam.levels if lv.index > 0]
    equal = []
    subset = []
    for lv in levels:
        size = borel_size(lv.last)
        inside = all(borel_member(g, lv.last) for g in lv.generators)
        subset.append(inside)
        equal.append(inside and len(lv) == size)
    chain = []
    for prev, nxt in zip(levels, levels[1:]):
        # greatest variable of the lower last divides nothing above the
        # least variable of the upper last
        chain.append(prev.last.head_index() >= nxt.last.tail_index())
    return Characterization(
        tuple(lv.index for lv in levels),
        tuple(equal), tuple(subset), tuple(chain),
        all(equal) and all(chain))
