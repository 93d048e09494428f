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
    revlex_key,
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

    A counted level (``build_family``'s Borel levels and level 0, the
    Borel set of x_n) keeps its size and its least generator, and builds
    its generators on their first read as ``borel_closure(last)``, and
    its ``factors`` with none of them built.  ``borel`` is true for a
    level built as the Borel set of its least generator."""

    __slots__ = ("index", "degree", "borel", "last", "_size", "_generators",
                 "_factors")

    def __init__(self, index: int, degree: int,
                 generators: tuple[Monomial, ...]):
        self._set(index=index, degree=degree, borel=False,
                  last=generators[-1], _size=len(generators),
                  _generators=generators, _factors=None)

    @classmethod
    def _counted(cls, index: int, least: Monomial, size: int) -> "Level":
        """The Borel set of ``least``, of ``size`` members, built on
        first read."""
        lv = object.__new__(cls)
        lv._set(index=index, degree=least.degree, borel=True, last=least,
                _size=size, _generators=None, _factors=None)
        return lv

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Level is immutable")

    @property
    def generators(self) -> tuple[Monomial, ...]:
        gens = self._generators
        if gens is None:
            # read from this module's globals, so a patch of
            # ``family.borel_closure`` sees the build
            gens = borel_closure(self.last)
            object.__setattr__(self, "_generators", gens)
        return gens

    @property
    def factors(self) -> tuple[tuple[int, ...], ...]:
        """The standard factorizations of the generators, in their order,
        made on first read and kept; the one place that decides how.  A
        counted level's come from ``_borel_factors``, refused before any
        is made when they hold more than ``BOREL_ENTRY_CAP`` factors in
        all; a listed level's from its generators."""
        fs = self._factors
        if fs is None:
            if not self.borel:
                fs = tuple(g.factors() for g in self.generators)
            elif self._size * self.degree > BOREL_ENTRY_CAP:
                raise ResourceCapError(
                    f"Borel set of {self.last} has {self._size} members of"
                    f" degree {self.degree}, more than {BOREL_ENTRY_CAP}"
                    " factors")
            else:
                fs = _borel_factors(self.last)
            object.__setattr__(self, "_factors", fs)
        return fs

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
        return self._size


class LeveledFamily:
    """Validated family with fast ref lookup.  Treat as immutable.

    Construction keeps the levels and their sizes and computes nothing
    else: a certificate read off the paper's theorem builds no member of
    a counted level, no ref and no pair.  ``refs()`` builds one
    ``GenRef`` per generator on first use, and ``factors`` reads a
    generator's standard factorization off its level.  The ref pairs are
    classified on demand, in lexicographic order, into the pair table
    that closure, the marked basis and complete reducedness read: each
    incomparable pair mapped to the refs of its rewrite images, lead to
    trail.  The scan's first step packs the factorizations of every
    level it classifies (``Level.factors``) into level blocks, with no
    member of a counted level built.  The
    rewrite of a pair is a function of its product alone, so each
    distinct product of a level block (the pairs of one level, or of two
    levels) is rewritten once, keyed by its packed exponent vector; a
    pair is comparable exactly when its product's image refs are its
    own.  ``incomparable_pairs`` classifies every pair on its first
    call; the closure scan stops at the first open pair past its
    witness cap.  The family holds one whole table, that of the last
    finished scan (``certify`` leaves out the blocks of levels the
    paper's theorem settles), and replaces it when a scan of other
    settled blocks finishes; a stopped scan is not held.
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
        self._size = sum(len(lv) for lv in self.levels)
        self._refs = None
        # (settled blocks, pair table, open pairs) of the last finished
        # scan; the table holds the refs of ``_refs``, not images: a
        # Monomial pair per entry costs megabytes on the larger families
        self._scan = None

    def _table(self, settled: frozenset, count=None):
        """The pair table of the blocks of levels not in ``settled``, and
        its first ``count`` open pairs (all of them when None) in table
        order.  The held table answers when it was made for these
        settled blocks.  Otherwise pairs are classified only as far as
        the ``count``-th open pair, and the table is held, in place of
        the one before, only when the scan finished.  A wide family
        keys every product 0 and memoizes none."""
        scan = self._scan
        if scan is None or scan[0] != settled:
            pairs, found = {}, []
            if not _classify(self.levels, self.refs(), _weights(self.n),
                             pairs, found, settled, count):
                return pairs, found
            self._scan = scan = (settled, pairs, found)
        return scan[1], scan[2][:count]

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
            self._refs = tuple(GenRef(lv.index, j) for lv in self.levels
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
        return self._table(frozenset())[0]

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        sizes = ",".join(str(len(lv)) for lv in self.levels)
        return f"LeveledFamily(mode={self.mode!r}, n={self.n}, sizes=[{sizes}])"


def _classify(levels, refs, weight, pairs: dict, open_pairs: list,
              settled: frozenset, stop=None) -> bool:
    """Classify the ref pairs of ``levels`` in lexicographic order,
    leaving out those of each block of levels (i, j), i <= j by level
    index, in ``settled``: enter each incomparable pair in ``pairs``
    with its image refs, and append each one with a missing image to
    ``open_pairs``.  Return False as soon as ``open_pairs`` holds
    ``stop`` entries, True once every pair is classified.  ``refs``
    are the family's refs, in level order.  The first step reads
    ``Level.factors`` of every level of a block left to classify, so a
    counted level builds none of its members.  Each product is memoized
    by its packed exponent vector, the sum of its factors' ``weight``,
    unless ``weight`` is None.

    A cross-level pair (a, b) is fixed by ``ord_factors`` exactly when
    tail(b) <= head(a), head and tail the first and last standard
    factors: the merge puts b's factors first, as the rewrite's second
    output, exactly when none of them exceeds a factor of a.  A level's
    generators are revlex descending, so their tails never decrease (a
    generator with a later tail than the next would be revlex-smaller);
    the comparable b of each a in a higher level are therefore a prefix
    of its block, found by bisection on the tails and skipped."""
    # per level, the positions of the levels it is classified against,
    # its own first
    partners = [[lj for lj in range(li, len(levels))
                 if (lv.index, levels[lj].index) not in settled]
                for li, lv in enumerate(levels)]
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
        targets = [(sort_factors, here, None, None, {}) if lj == li
                   else (ord_factors, *blocks[lj], {})
                   for lj in partners[li]]
        for ai, (a, fa, ka) in enumerate(row):
            for rewrite, there, col, tails, memo in targets:
                if col is None:
                    others = row[ai + 1:]
                else:
                    others = col[bisect_right(tails, fa[0]):]
                for b, fb, kb in others:
                    key = ka + kb
                    trail = memo.get(key)
                    if trail is None:
                        first, second = rewrite(fa, fb)
                        trail = (here.get(first), there.get(second))
                        if weight:
                            memo[key] = trail
                    # the image refs come from the same blocks as a and
                    # b, so identity is equality
                    if trail[0] is not a or trail[1] is not b:
                        pair = (a, b)
                        pairs[pair] = trail
                        if None in trail:
                            open_pairs.append(pair)
                            if len(open_pairs) == stop:
                                return False
    return True


def _is_int(value) -> bool:
    """An int from JSON; bool is an int subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_level(entry, pos: int, n: int) -> Level:
    """Validate one level of a description and make it the ``Level`` of
    index ``pos``.  A ``"borel"`` level is counted from its generator and
    builds no member; a listed one builds its generators, revlex
    descending."""
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
        return Level._counted(pos, gen, borel_size(gen))
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
    return Level(pos, degree, tuple(sorted(
        (monomial_of_terms(terms, n) for terms in listed),
        key=revlex_key, reverse=True)))


def build_family(data: dict) -> LeveledFamily:
    """Validate a family description (parsed JSON) and build the family.

    A ``"borel"`` level and level 0 are kept as counts, their members
    built on first read; a listed level is built here."""
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

    levels = [_parse_level(entry, pos, n)
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
    level0 = Level._counted(0, Monomial.variable(n, n), n)
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
    and including that one.  The pairs of a block of levels settled by
    the paper's theorem count as checked without being classified, so a
    certificate reports the same figure as a full scan, C(v, 2) for a
    family whose blocks are all settled; ``reescert check`` rescans
    them."""
    closed: bool
    witnesses: tuple[Witness, ...]
    pairs_checked: int
    truncated: bool


def is_closed_under_comparability(
        fam: LeveledFamily, all_witnesses: bool = False, *,
        settled=frozenset()) -> ClosureReport:
    """Check that every incomparable pair rewrites back into the family.

    Walks the entries of the family's pair table with a missing image,
    in lexicographic ref order, so the witness list is deterministic.
    Unless ``all_witnesses`` is set, witnesses stop at ``WITNESS_CAP``
    and pairs are classified only as far as the next open pair, which
    marks the report truncated, and the family holds no table of that
    stopped scan; closure itself is always decided exactly.  A
    witness's images are rewritten again from the factorizations the
    scan kept, by ``sort_factors`` or ``ord_factors`` as in the scan,
    one ``Monomial`` per distinct image, and ``missing`` is read off its
    table entry, so no generator is built for them.

    ``settled`` names blocks of levels (i, j), i <= j by level index,
    that the caller knows to hold no open pair, as those the paper's
    theorem settles (``certify``) do.  Their pairs are not classified;
    the others are, in the same order, and a finished scan's table
    replaces the one the family held for other blocks.  The report is
    that of a full scan.
    """
    refs = len(fam)
    checked = refs * (refs - 1) // 2
    trails, found = fam._table(frozenset(settled),
                               None if all_witnesses else WITNESS_CAP + 1)
    truncated = not all_witnesses and len(found) > WITNESS_CAP
    if truncated:
        # ordinal of the stop pair (i, j) among the pairs of refs i < j
        i, j = (fam.refs().index(ref) for ref in found[WITNESS_CAP])
        checked = i * (2 * refs - i - 1) // 2 + (j - i - 1) + 1
        found = found[:WITNESS_CAP]
    monomials = {}  # factorization -> its image, shared by witnesses
    witnesses = []
    for pair in found:
        a, b = pair
        rewrite = sort_factors if a[0] == b[0] else ord_factors
        images = []
        for f in rewrite(fam.factors(a), fam.factors(b)):
            image = monomials.get(f)
            if image is None:
                image = monomials[f] = Monomial._of_factors(f, fam.n)
            images.append(image)
        witnesses.append(Witness(pair, tuple(images), tuple(
            k for k in (0, 1) if trails[pair][k] is None)))
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
        chain.append(prev.last.head_index() >= nxt.last.tail_index())
    return Characterization(
        tuple(lv.index for lv in levels),
        tuple(equal), tuple(subset), tuple(chain),
        all(equal) and all(chain))
