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
from bisect import bisect_right
from itertools import accumulate, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import FamilyError, ResourceCapError
from .monomials import (
    BOREL_ENTRY_CAP,
    Monomial,
    _borel_count,
    _borel_factors,
    _factors_below,
    borel_closure,
    borel_size,
    monomial_of_terms,
    ord_factors,
    ord_pair,
    parse_terms,
    sort_factors,
    sort_pair,
)

MODES = ("rees", "fiber")

# Most ref pairs a family classifies (C(v, 2), about 1,415 refs).
# ``refs()``, and so the pair scan, checks it before building a ref; a
# certificate from the paper's theorem builds neither.  Construction
# caps the pairs of levels at it too, since that certificate counts one
# Borel set per pair of levels; each level holds a ref, so no family
# within the ref cap is refused by it.
PAIR_CAP = 10**6
# Most variables a family (or ``reescert bset -n``) declares, refused
# before any exponent vector of that length exists.  Level 0 of a rees
# family alone is over PAIR_CAP from 1,416 variables on.
MAX_VARIABLES = 2000
# Highest declared level degree; a level keeps one factor tuple of this
# length per generator.  Matches MAX_TERM_DEGREE in reduction.
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


def _check_pair_cap(count: int, what: str = "generators") -> None:
    """Refuse a family of ``count`` generators, or levels, with more
    than ``PAIR_CAP`` pairs of them."""
    pairs = count * (count - 1) // 2
    if pairs > PAIR_CAP:
        raise ResourceCapError(
            f"{count} {what} make {pairs} pairs, more than {PAIR_CAP}")


def check_variable_cap(n: int) -> None:
    """Refuse a variable count over ``MAX_VARIABLES``."""
    if n > MAX_VARIABLES:
        raise ResourceCapError(
            f"{n} variables are more than {MAX_VARIABLES}")


def _weights(n: int):
    """Per variable index i, x_i's exponent vector packed into one int,
    ``PACK_BITS`` bits per variable, x1 lowest, or None when n variables
    are wider than ``MEMO_KEY_BITS``.  A generator packs as the sum of
    its factors' weights, and the packed product of two generators is
    the sum of theirs."""
    if n * PACK_BITS > MEMO_KEY_BITS:
        return None
    return [0] + [1 << (PACK_BITS * i) for i in range(n)]


class GenRef(NamedTuple):
    level: int
    index: int

    def __str__(self) -> str:
        return f"T[{self.level},{self.index}]"


class Level:
    """One level: its index, its degree and its generators, revlex
    descending, the last of them ``last``.  Immutable and non-empty;
    ``len`` is the number of generators.

    A level keeps its size, its least generator and that generator's
    head and tail as its parse read them (``_ends``, for the chain tests
    of ``characterize`` and ``certify``), and builds its generators on
    their first read.  A listed level keeps the standard factorizations
    its parse made, ``factors``; a counted level (``build_family``'s
    Borel levels and level 0, the Borel set of x_n), given None for
    them, makes its ``factors`` with none of its members built, and
    builds its generators as ``borel_closure(last)``.  ``borel`` is true
    for a level built as the Borel set of its least generator."""

    __slots__ = ("index", "degree", "borel", "last", "_size", "_generators",
                 "_factors", "_ends")

    def __init__(self, index: int, last: Monomial, size: int,
                 ends: tuple[int, int], factors: tuple | None):
        put = object.__setattr__
        put(self, "index", index)
        put(self, "degree", last.degree)
        put(self, "borel", factors is None)
        put(self, "last", last)
        put(self, "_size", size)
        put(self, "_generators", None)
        put(self, "_factors", factors)
        put(self, "_ends", ends)

    def __setattr__(self, name, value):
        raise AttributeError("Level is immutable")

    @property
    def generators(self) -> tuple[Monomial, ...]:
        gens = self._generators
        if gens is None:
            if self.borel:
                # read from this module's globals, so a patch of
                # ``family.borel_closure`` sees the build
                gens = borel_closure(self.last)
            else:
                n = self.last.n
                gens = tuple(Monomial._of_factors(f, n)
                             for f in self._factors)
            object.__setattr__(self, "_generators", gens)
        return gens

    @property
    def factors(self) -> tuple[tuple[int, ...], ...]:
        """The standard factorizations of the generators, in their order;
        the one place that decides how.  A counted level's come from
        ``_borel_factors`` on first read and are kept, refused before
        any is made when they hold more than ``BOREL_ENTRY_CAP`` factors
        in all."""
        fs = self._factors
        if fs is None:
            if self._size * self.degree > BOREL_ENTRY_CAP:
                raise ResourceCapError(
                    f"Borel set of {self.last} has {self._size} members of"
                    f" degree {self.degree}, more than {BOREL_ENTRY_CAP}"
                    " factors")
            fs = _borel_factors(self.last)
            object.__setattr__(self, "_factors", fs)
        return fs

    def __eq__(self, other):
        """Equal index, degree and generators.  Equal generators have
        equal least ones, and two counted levels with equal least ones
        are equal, since B(u) = B(v) exactly when u = v; any other pair
        compares sizes, then factorizations, so no member is built."""
        return isinstance(other, Level) and (
            (self.index, self.degree, self.last)
            == (other.index, other.degree, other.last)) and (
            self.borel and other.borel
            or self._size == other._size and self.factors == other.factors)

    def __hash__(self) -> int:
        return hash((self.index, self.degree, self.last))

    def __repr__(self) -> str:
        return (f"Level(index={self.index!r}, degree={self.degree!r},"
                f" generators={self.generators!r})")

    def __len__(self) -> int:
        return self._size


class LeveledFamily:
    """Validated family with fast ref lookup.  Treat as immutable.

    Construction keeps the levels and their sizes and computes nothing
    else: a certificate read off the paper's theorem builds no member of
    a level but its least, no ref and no pair.  ``refs()`` builds one
    ``GenRef`` per generator on first use, and ``factors`` reads a
    generator's standard factorization off its level.  The ref pairs are
    classified on demand, in lexicographic order, into the pair table
    that closure, the marked basis and complete reducedness read: each
    incomparable pair mapped to the refs of its rewrite images, lead to
    trail.  The scan's first step packs the factorizations of every
    level it classifies (``Level.factors``) into level blocks, with no
    member of a level built.  The
    rewrite of a pair is a function of its product alone, so each
    distinct product of a level block (the pairs of one level, or of two
    levels) is rewritten once, keyed by its packed exponent vector; a
    pair is comparable exactly when its product's image refs are its
    own, and an open pair keeps the image factorizations its product's
    rewrite dealt, for its witness.  ``incomparable_pairs`` classifies
    every pair on its first call; the closure scan stops at the first
    open pair past its witness cap.  A scan classifies the blocks of
    levels it is handed, or every block (``certify`` hands it those the
    paper's theorem leaves open and the levels' Borel hulls do not
    settle), so what it holds follows the blocks it reads.  The family
    holds one whole table, that of the last finished scan, and replaces
    it when a scan of other blocks finishes; a stopped scan is not
    held.
    More than ``PAIR_CAP`` pairs raise ``ResourceCapError`` from
    ``refs()``, before any ref is built or pair classified, and more
    than ``PAIR_CAP`` pairs of levels on construction.
    """

    __slots__ = ("mode", "n", "embedding_degree", "levels", "_by_index",
                 "_size", "_refs", "_scan")

    def __init__(self, mode, n, levels, embedding_degree=None):
        self.mode = mode
        self.n = n
        self.embedding_degree = embedding_degree
        self.levels = tuple(levels)
        _check_pair_cap(len(self.levels), "levels")
        self._by_index = {lv.index: lv for lv in self.levels}
        self._size = sum(lv._size for lv in self.levels)
        self._refs = None
        # (blocks classified, pair table, open pairs, their images) of
        # the last finished scan; the table holds the refs of ``_refs``,
        # not images: a Monomial pair per entry costs megabytes on the
        # larger families.  The open pairs' image factorizations are a list of
        # their own: a (pair, images) tuple per open pair stays with the
        # collector, which slowed a full scan of an open family by a
        # third.
        self._scan = None

    def _table(self, blocks: frozenset | None = None, count=None):
        """The pair table of the blocks of levels in ``blocks`` (every
        block when None), its first ``count`` open pairs (all of them
        when None) in table order, and the factorizations of their
        images, a pair of tuples for each, in the same order.  The held
        table answers when it was made for these blocks.  Otherwise
        pairs are classified only as far as the ``count``-th open pair,
        and the table is held, in place of the one before, only when
        the scan finished.  Blocks that hold no pair, diagonal blocks
        of one-generator levels or none at all, classify nothing.  A
        wide family keys every product 0 and memoizes none."""
        if blocks is not None and all(
                i == j and len(self._by_index[i]) == 1 for i, j in blocks):
            return {}, [], []
        scan = self._scan
        if scan is None or scan[0] != blocks:
            pairs, found, images = {}, [], []
            if not _classify(self.levels, self.refs(), _weights(self.n),
                             pairs, found, images, blocks, count):
                return pairs, found, images
            self._scan = scan = (blocks, pairs, found, images)
        return scan[1], scan[2][:count], scan[3][:count]

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
        """All generator refs in lexicographic order, built on first use
        once ``PAIR_CAP`` admits their pairs."""
        if self._refs is None:
            _check_pair_cap(self._size)
            # the NamedTuple's __new__ is a Python function; the tuple's
            # builds the same ref in C
            ref = tuple.__new__
            self._refs = tuple(ref(GenRef, (lv.index, j))
                               for lv in self.levels
                               for j in range(1, len(lv) + 1))
        return self._refs

    def _level_of(self, ref) -> Level:
        """The level of ``ref``, once its index is in range there."""
        lv = self.level(ref[0])
        if not 1 <= ref[1] <= len(lv):
            raise ValueError(
                f"index {ref[1]} out of range 1..{len(lv)}"
                f" at level {ref[0]}")
        return lv

    def generator(self, ref: GenRef) -> Monomial:
        return self._level_of(ref).generators[ref[1] - 1]

    def factors(self, ref: GenRef) -> tuple[int, ...]:
        """Standard factorization of the referenced generator, as its
        level keeps it (``Level.factors``)."""
        return self._level_of(ref).factors[ref[1] - 1]

    def incomparable_pairs(self) -> dict:
        """The pair table: each incomparable ref pair (a, b), a < b, in
        lexicographic order, mapped to the refs (c, d) of its two
        rewrite images in the levels of a and b, so that each entry is
        the rule ``T_a*T_b -> T_c*T_d``.  A ref is None when that image
        is not in the family.  Completed on the first call, one rewrite
        per distinct product of a level block.  Do not mutate."""
        return self._table()[0]

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        sizes = ",".join(str(len(lv)) for lv in self.levels)
        return f"LeveledFamily(mode={self.mode!r}, n={self.n}, sizes=[{sizes}])"


def _classify(levels, refs, weight, pairs: dict, open_pairs: list,
              open_images: list, blocks, stop=None) -> bool:
    """Classify the ref pairs of ``levels`` in lexicographic order,
    those of each block of levels (i, j), i <= j by level index, in
    ``blocks``, or of every block when it is None: enter each
    incomparable pair in ``pairs`` with its image refs, and append each
    one with a missing image to ``open_pairs``, and the factorizations
    its rewrite dealt to ``open_images``, so that a witness needs no
    second rewrite.  Return False as soon as ``open_pairs`` holds
    ``stop`` entries, True once every pair is classified.  ``refs`` are
    the family's refs, in level order.  The first step reads
    ``Level.factors`` of every level of a block left to classify, so no
    level builds its members.  Each product is memoized
    by its packed exponent vector, the sum of its factors' ``weight``,
    unless ``weight`` is None; beside that memo, each target block
    keeps the images of its open products.

    A cross-level pair (a, b) is fixed by ``ord_factors`` exactly when
    tail(b) <= head(a), head and tail the first and last standard
    factors: the merge puts b's factors first, as the rewrite's second
    output, exactly when none of them exceeds a factor of a.  A level's
    generators are revlex descending, so their tails never decrease (a
    generator with a later tail than the next would be revlex-smaller);
    the comparable b of each a in a higher level are therefore a prefix
    of its block, found by bisection on the tails and skipped."""
    # per level, the positions of the levels it is classified against,
    # its own first, read off the sorted blocks: levels are held in index
    # order, so each row comes out ascending
    if blocks is None:
        partners = [range(li, len(levels)) for li in range(len(levels))]
    else:
        at = {lv.index: k for k, lv in enumerate(levels)}
        partners = [[] for _ in levels]
        for i, j in sorted(blocks):
            partners[at[i]].append(at[j])
    used = {lj for row in partners for lj in row}
    used.update(li for li, row in enumerate(partners) if row)
    # per level used: ({standard factorization: ref}, its generators as
    # (ref, factorization, packed exponents), their tails)
    blocks = []
    start = 0
    for li, lv in enumerate(levels):
        here = {}
        row = []
        if li in used:
            for ref, f in zip(refs[start:start + len(lv)], lv.factors):
                here[f] = ref
                key = sum(map(weight.__getitem__, f)) if weight else 0
                row.append((ref, f, key))
        start += len(lv)
        blocks.append((here, row, [f[-1] for _, f, _ in row]))
    for li, (here, row, _) in enumerate(blocks):
        # same level sorts, a higher level orders; lexicographic ref
        # order either way.  Each target block keeps its own memo,
        # packed product -> image refs, for as long as this level's
        # rows are paired.
        targets = [(sort_factors, here, None, None, {}, {}) if lj == li
                   else (ord_factors, *blocks[lj], {}, {})
                   for lj in partners[li]]
        for ai, (a, fa, ka) in enumerate(row):
            for rewrite, there, col, tails, memo, dealt in targets:
                if col is None:
                    others = row[ai + 1:]
                else:
                    others = col[bisect_right(tails, fa[0]):]
                for b, fb, kb in others:
                    key = ka + kb
                    trail = memo.get(key)
                    if trail is None:
                        first, second = images = rewrite(fa, fb)
                        trail = (here.get(first), there.get(second))
                        if None in trail:
                            dealt[key] = images
                        if weight:
                            memo[key] = trail
                    # the image refs come from the same blocks as a and
                    # b, so identity is equality
                    if trail[0] is not a or trail[1] is not b:
                        pair = (a, b)
                        pairs[pair] = trail
                        if None in trail:
                            # key 0 of a wide family was dealt just now
                            open_pairs.append(pair)
                            open_images.append(dealt[key])
                            if len(open_pairs) == stop:
                                return False
    return True


def _is_int(value) -> bool:
    """An int from JSON; bool is an int subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_level(entry, pos: int, n: int, sizes: dict) -> Level:
    """Validate one level of a description and make it the ``Level`` of
    index ``pos``.  A ``"borel"`` level is counted from its generator and
    builds no member; ``sizes`` maps the sorted parsed terms of each
    generator counted so far to the generator and its count, so a
    generator is built and counted once per description, and its head
    and tail are the least and greatest index of those terms.  A listed
    level keeps its generators' standard factorizations, revlex
    descending, and builds only its least generator."""
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
        key = tuple(sorted(terms.items()))
        gen, size = sizes.get(key) or (monomial_of_terms(terms, n), None)
        # before any count, so that a mis-declared degree is malformed
        # input even when the generator's Borel set is past the cap
        if gen.degree != degree:
            raise FamilyError(
                f"level {pos}: borel generator {gen} has degree {gen.degree},"
                f" expected {degree}")
        if size is None:
            size = borel_size(gen)
            sizes[key] = gen, size
        return Level(pos, gen, size, (key[0][0], key[-1][0]), None)
    raw = entry["generators"]
    if not isinstance(raw, list) or not raw:
        raise FamilyError(f"level {pos}: generators must be a non-empty list")
    listed = set()  # standard factorizations
    for text in raw:
        if not isinstance(text, str):
            raise FamilyError(f"level {pos}: generators must be strings")
        terms = parse_terms(text, n)
        if sum(terms.values()) != degree:
            m = monomial_of_terms(terms, n)
            raise FamilyError(
                f"level {pos}: generator {m} has degree {m.degree},"
                f" expected {degree}")
        f = tuple(i for i, e in sorted(terms.items()) for _ in range(e))
        if f in listed:
            warnings.warn(f"level {pos}: duplicate generator"
                          f" {monomial_of_terms(terms, n)} dropped")
            continue
        listed.add(f)
    # revlex descending is ascending order of the factors read last to
    # first, within one degree
    factors = tuple(sorted(listed, key=lambda f: f[::-1]))
    least = factors[-1]
    return Level(pos, Monomial._of_factors(least, n), len(factors),
                 (least[0], least[-1]), factors)


def build_family(data: dict) -> LeveledFamily:
    """Validate a family description (parsed JSON) and build the family.

    A ``"borel"`` level and level 0 are kept as counts, and each
    distinct ``"borel"`` generator is built and counted once; a listed
    level as its generators' factorizations.  Either builds its members
    on first read."""
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

    sizes = {}
    levels = [_parse_level(entry, pos, n, sizes)
              for pos, entry in enumerate(raw_levels, start=1)]
    degrees = [lv.degree for lv in levels]
    for a, b in zip(degrees, degrees[1:]):
        if a > b:
            raise FamilyError(
                f"level degrees must be non-decreasing, got {degrees}")

    m = data.get("embedding_degree")
    if mode == "rees":
        if m is not None:
            raise FamilyError("embedding_degree only applies to fiber mode")
    else:
        if not levels:
            raise FamilyError("fiber mode needs at least one level")
        if not _is_int(m) or m <= degrees[-1]:
            raise FamilyError(
                "embedding_degree must be an integer larger than every level"
                f" degree (top degree is {degrees[-1]})")
    if mode == "fiber":
        return LeveledFamily("fiber", n, levels, embedding_degree=m)
    # the variables are the Borel set of x_n
    level0 = Level(0, Monomial.variable(n, n), n, (n, n), None)
    return LeveledFamily("rees", n, [level0] + levels)


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


def _check_refs(fam: LeveledFamily, a: GenRef, b: GenRef) -> None:
    """Refuse a ref out of range, then a pair out of order; no member of
    a level is built."""
    fam._level_of(a)
    fam._level_of(b)
    if not tuple(a) < tuple(b):
        raise ValueError(f"need {GenRef(*a)} < {GenRef(*b)} lexicographically")


def rewrite_images(fam: LeveledFamily, a: GenRef, b: GenRef):
    """The sorted (same level) or ordered (lower by higher level) pair of
    monomials that replaces the product of the two referenced generators."""
    _check_refs(fam, a, b)
    ua, ub = fam.generator(a), fam.generator(b)
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

    ``images`` is the rewritten monomial pair, ``rewrite_images`` of the
    pair; the witnesses of one report share one ``Monomial`` per
    distinct image.  ``missing`` flags which of the two images
    (positions 0 and 1) is absent from its target level.
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
    and including that one.  A scan handed only some blocks of levels
    (``blocks``) counts the pairs of the others, which the paper's
    theorem settles for ``certify`` or which it classifies from their
    levels' Borel hulls (``known``), as checked without classifying
    them, so a certificate reports the same figure as a full scan,
    C(v, 2) for a family whose blocks are all settled; ``reescert
    check`` rescans them."""
    closed: bool
    witnesses: tuple[Witness, ...]
    pairs_checked: int
    truncated: bool


def _starts(fam: LeveledFamily) -> dict:
    """Each level's first position among the family's refs, by level
    index, read off the level sizes."""
    return dict(zip(fam._by_index,
                    accumulate(map(len, fam.levels), initial=0)))


def _pair_ordinal(fam: LeveledFamily, a, b) -> int:
    """The rank, from 1, of the ref pair (a, b), a < b, among all ref
    pairs in lexicographic order."""
    start, v = _starts(fam), len(fam)
    i, j = (start[level] + index - 1 for level, index in (a, b))
    return i * (2 * v - i - 1) // 2 + j - i


def is_closed_under_comparability(
        fam: LeveledFamily, all_witnesses: bool = False, *,
        blocks=None, known=()) -> ClosureReport:
    """Check that every incomparable pair rewrites back into the family.

    Walks the entries of the family's pair table with a missing image,
    in lexicographic ref order, so the witness list is deterministic.
    Unless ``all_witnesses`` is set, witnesses stop at ``WITNESS_CAP``
    and pairs are classified only as far as the next open pair, which
    marks the report truncated, and the family holds no table of that
    stopped scan; closure itself is always decided exactly.  A
    witness's images are built from the factorizations the scan dealt
    when it rewrote the pair's product, one ``Monomial`` per distinct
    image, and ``missing`` is read off its table entry: no pair is
    rewritten again, no factorization read again and no generator
    built for them.

    ``blocks`` names the blocks of levels (i, j), i <= j by level index,
    to classify, every block when None; the caller knows the others,
    as ``certify`` knows those the paper's theorem settles.  Only the
    pairs of these blocks are classified, in the same order, and a
    finished scan's table replaces the one the family held for other
    blocks.  ``known`` lists the open pairs of the blocks left out that
    the caller classified itself, in lexicographic order, each as
    (pair, image factorizations, image refs), a ref None where its
    image is missing, as in a table entry, and the images shared by the
    pairs of one product; they are merged with the scan's.  The report
    is that of a full scan.
    """
    refs = len(fam)
    checked = refs * (refs - 1) // 2
    count = None if all_witnesses else WITNESS_CAP + 1
    trails, found, dealt_images = fam._table(
        None if blocks is None else frozenset(blocks), count)
    # a scanned pair's image refs are read off its table entry
    opened = [*zip(found, dealt_images, repeat(None)), *known]
    if known:
        # two runs in lexicographic order, which the sort merges
        opened.sort(key=itemgetter(0))
        opened = opened[:count]
    truncated = not all_witnesses and len(opened) > WITNESS_CAP
    if truncated:
        checked = _pair_ordinal(fam, *opened[WITNESS_CAP][0])
        del opened[WITNESS_CAP:]
    monomials = {}  # factorization -> its image, shared by witnesses
    # The pairs of one open product share its dealt images, one object
    # while ``opened`` holds it, and its image refs: (images, missing)
    # by the id of that object.
    shared = {}
    witnesses = []
    # the NamedTuple's __new__ is a Python function; the tuple's builds
    # the same witness in C
    witness = tuple.__new__
    for pair, dealt, trail in opened:
        parts = shared.get(id(dealt))
        if parts is None:
            if trail is None:
                trail = trails[pair]
            images, missing = [], []
            for k, f in enumerate(dealt):
                image = monomials.get(f)
                if image is None:
                    image = monomials[f] = Monomial._of_factors(f, fam.n)
                images.append(image)
                if trail[k] is None:
                    missing.append(k)
            parts = shared[id(dealt)] = (tuple(images), tuple(missing))
        witnesses.append(witness(Witness, (pair, *parts)))
    return ClosureReport(not witnesses and not truncated, tuple(witnesses),
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
    built, and only as far as the level's size, so no size is refused.

    Only listed levels are tested, each generator's kept factorization
    but the least against the least one (``_factors_below``); a level of
    one generator, its own least, is not factored.  A level built as the
    Borel set of its least generator (``Level.borel``) is that set by
    construction, and none of its members is built."""
    levels = [lv for lv in fam.levels if lv.index > 0]
    equal = []
    subset = []
    for lv in levels:
        if lv.borel:
            subset.append(True)
            equal.append(True)
            continue
        inside = True
        if len(lv) > 1:
            *others, least = lv.factors
            inside = all(_factors_below(f, least) for f in others)
        subset.append(inside)
        equal.append(inside and len(lv) == _borel_count(lv.last.exps, len(lv)))
    chain = []
    for prev, nxt in zip(levels, levels[1:]):
        # greatest variable of the lower last divides nothing above the
        # least variable of the upper last
        chain.append(prev._ends[0] >= nxt._ends[1])
    return Characterization(
        tuple(lv.index for lv in levels),
        tuple(equal), tuple(subset), tuple(chain),
        all(equal) and all(chain))
