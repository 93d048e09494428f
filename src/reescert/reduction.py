"""Reduction by the marked basis, and the polynomials it acts on.

Reduction replaces leads by trails until no lead divides any support
monomial; with the family closed under comparability this terminates and
the normal forms are the completely reduced monomials, one per fiber of
the monomial map.  The module also holds that map (``psi_eval``), the
critical-pair check ``confluence_check`` and the T-polynomial parser.
None of it is on the certify path; it loads on first use.

Coefficients are exact rationals throughout.
"""

from __future__ import annotations

import gc
import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import (
    InternalInvariantError,
    MonomialParseError,
    ResourceCapError,
)
from .family import GenRef, LeveledFamily
from .monomials import _power_parts
from .presentation import MarkedBinomial, TMonomial

DEFAULT_STEP_CAP = 10**6
MAX_TERM_DEGREE = 1000
# Most digits the coefficient numbers of one expression (numerators and
# denominators, not powers) may hold in all, so that every coefficient
# prints within str(int)'s 4,300-digit limit.  Merging and rewriting
# only ever add signed term coefficients, so each printed coefficient is
# a sum of m of them, each a product of its term's numbers and their
# reciprocals.  Over the product of the m terms' denominators, that
# sum's numerator is a sum of m products of distinct numbers of the
# expression, and its denominator is one such product.  Each product is
# below 10^4000, so both stay within 4,000 + len(str(m)) digits: under
# the limit for any m < 10^300 terms.
MAX_COEFFICIENT_DIGITS = 4000
# Most critical pairs confluence_check reduces (max(4,4) has 103,047)
CRITICAL_PAIR_CAP = 10**6


class TPolynomial:
    """Sparse polynomial in the T variables over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in (terms.items()
                                if isinstance(terms, dict) else terms):
                c = clean.get(mono, Fraction(0)) + Fraction(coeff)
                if c:
                    clean[mono] = c
                elif mono in clean:
                    del clean[mono]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TPolynomial is immutable")

    @classmethod
    def monomial(cls, mono: TMonomial, coeff=1) -> "TPolynomial":
        return cls([(mono, Fraction(coeff))])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> list[TMonomial]:
        """Support monomials, greatest first in factor-lex order."""
        return sorted(self.terms, reverse=True)

    def __add__(self, other: "TPolynomial") -> "TPolynomial":
        return TPolynomial([*self.terms.items(), *other.terms.items()])

    def __eq__(self, other) -> bool:
        return isinstance(other, TPolynomial) and self.terms == other.terms

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in self.support():
            c = self.terms[mono]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if mono.degree == 0:
                body = str(mag)
            elif mag == 1:
                body = mono.text()
            else:
                body = f"{mag}*{mono.text()}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"TPolynomial({self.text()!r})"


class PsiImage(NamedTuple):
    """Exponent vectors of the image monomial under the presentation map."""
    x: tuple[int, ...]
    t: tuple[int, ...]

    def text(self) -> str:
        parts = _power_parts(self.x) + _power_parts(self.t, "t")
        return "*".join(parts) or "1"


def psi_eval(mono: TMonomial, fam: LeveledFamily) -> PsiImage:
    """Image of a T-monomial: multiply the referenced generators, read
    as their standard factorizations (``fam.factors``), so that no
    member of a level is built.

    rees mode records one t_i per level-i factor (levels >= 1); fiber
    mode pads each level-i generator with the auxiliary variable
    x_{n+i} up to the embedding degree.
    """
    n = fam.n
    rees = fam.mode == "rees"
    # x_1..x_n, then one entry per level 0..top: t_i in rees mode,
    # x_{n+i} in fiber mode, which has no level 0
    xs = [0] * (n + 1 + fam.top_level)
    for ref in mono:
        for k in fam.factors(ref):
            xs[k - 1] += 1
        i = ref[0]
        xs[n + i] += 1 if rees else (
            fam.embedding_degree - fam.level(i).degree)
    x, t = tuple(xs[:n]), tuple(xs[n + 1:])
    return PsiImage(x, t) if rees else PsiImage(x + t, ())


class _RuleIndex:
    """The basis on ref positions, the one form every reduction reads,
    and the one place that checks a basis's shape and turns refs into
    positions.

    ``basis`` is read once, so any iterable of rules will do.  ``refs``
    lists the distinct refs of the basis and the extra refs passed in,
    in lexicographic order; a ref's position is its place there, and
    ``pos`` maps each ref to it, so int order is ref order and a sorted
    ref tuple maps to a sorted position tuple and back.  ``trails`` maps
    each lead, as its sorted position pair (a, b), to its trail's sorted
    position pair, in basis order; it is the index's only record of the
    rules.  ``partners`` holds, per position a, the set of positions
    b > a with (a, b) a lead: the lead partners ``_least_lead`` reads.
    A lead that is not squarefree quadratic, a duplicate one, or a trail
    that is not quadratic raises ``ValueError``, the first in basis
    order, so every rule is a quadratic binomial.  Leads and trails may
    come as unsorted ref tuples; the message names them as T-monomials.
    A step's rule is rebuilt from the positions (``_polynomial_step``),
    so ``TraceStep.rule`` is the ``MarkedBinomial`` of the sorted lead
    and trail even for a rule given as unsorted ref tuples.
    """

    __slots__ = ("refs", "pos", "partners", "trails")

    def __init__(self, basis, refs=()):
        basis = tuple(basis)
        self.refs = tuple(sorted(set(chain(
            refs, *(g.lead + g.trail for g in basis)))))
        self.pos = pos = {ref: i for i, ref in enumerate(self.refs)}
        self.trails = trails = {}
        self.partners = partners = [set() for _ in self.refs]
        for g in basis:
            lead, trail = g.lead, g.trail
            if len(lead) != 2 or lead[0] == lead[1]:
                raise ValueError(
                    f"lead {TMonomial(lead)} is not squarefree quadratic")
            a, b = pos[lead[0]], pos[lead[1]]
            if a > b:
                a, b = b, a
            key = a, b
            if key in trails:
                raise ValueError(f"duplicate lead {TMonomial(lead)}")
            if len(trail) != 2:
                raise ValueError(
                    f"trail {TMonomial(trail)} of lead {TMonomial(lead)}"
                    " is not quadratic")
            p, q = pos[trail[0]], pos[trail[1]]
            trails[key] = (p, q) if p <= q else (q, p)
            partners[a].add(b)

    def positions(self, refs) -> tuple[int, ...]:
        """The sorted positions of these refs, given in any order."""
        return tuple(sorted(map(self.pos.__getitem__, refs)))

    def monomial(self, ps: tuple) -> TMonomial:
        """The T-monomial at these sorted positions."""
        return TMonomial._of_sorted(map(self.refs.__getitem__, ps))


def _least_lead(ps: tuple, partners) -> tuple[int, int] | None:
    """The least lead (a, b) dividing the monomial at these sorted
    positions, in lexicographic order, or None at a normal form.

    This is the one rule choice of every reduction in the package: a
    monomial rewrites along the rule with this lead.  ``_normal_form``
    probes quadratic and cubic monomials for it directly, in this order.
    ``partners`` is a ``_RuleIndex``'s.
    """
    for i, a in enumerate(ps):
        row = partners[a]
        if row:
            for b in ps[i + 1:]:
                if b in row:
                    return a, b
    return None


def _rewrite_step(ps: tuple, lead: tuple, trail: tuple) -> tuple:
    """The sorted positions of the monomial at ``ps`` once ``lead``,
    which must divide it, is replaced by ``trail``."""
    a, b = lead
    rest = list(ps)
    rest.remove(a)
    rest.remove(b)
    rest += trail
    rest.sort()
    return tuple(rest)


def _polynomial_step(f: TPolynomial, index: _RuleIndex
                     ) -> tuple[TMonomial, MarkedBinomial, TPolynomial] | None:
    """(rewritten monomial, rule, result) of one deterministic step on f,
    or None at a normal form: the greatest reducible support monomial
    (factor-lex order) rewrites along its ``_least_lead``.  The rule is
    the ``MarkedBinomial`` of that lead and its trail, read off the
    index as sorted T-monomials.  Every ref of f must have a position
    in the index."""
    for mono in f.support():
        ps = index.positions(mono)
        lead = _least_lead(ps, index.partners)
        if lead is not None:
            coeff, trail = f.terms[mono], index.trails[lead]
            out = index.monomial(_rewrite_step(ps, lead, trail))
            rule = MarkedBinomial(index.monomial(lead), index.monomial(trail))
            return mono, rule, f + TPolynomial({mono: -coeff, out: coeff})
    return None


def reduce_step(f: TPolynomial, basis) -> TPolynomial | None:
    """One deterministic reduction step, or None at a normal form; see
    ``_polynomial_step`` for the strategy."""
    step = _polynomial_step(
        f, _RuleIndex(basis, chain.from_iterable(f.terms)))
    return None if step is None else step[2]


def _step_cap_error(max_steps: int) -> InternalInvariantError:
    return InternalInvariantError(
        f"reduction exceeded {max_steps} steps; the termination"
        " measure should forbid this")


def _normal_form(ps: tuple, index: _RuleIndex,
                 memo: dict) -> tuple[tuple, int]:
    """(normal form, steps to it) of the monomial at these sorted
    positions of the index, the normal form as positions too.

    The one walk of every reduction in the package.  A monomial in
    ``memo`` answers at once.  Otherwise the walk follows ``_least_lead``
    to an irreducible monomial or one in ``memo``, and every monomial of
    the walk goes into ``memo`` with its normal form and its distance to
    it.  That is exact for any basis: the rule taken depends on the
    monomial alone, so both are functions of it.  More than
    ``DEFAULT_STEP_CAP`` steps in all, the walked ones plus those left
    from a memo hit, raise ``InternalInvariantError``, and so does a walk
    that comes back to a monomial it has walked: it would cycle forever.

    Every rule is quadratic, so a walk keeps its degree.  A quadratic
    monomial steps when it is a lead, to its trail.  A cubic (x, y, z)
    probes the lead partners for (x, y), (x, z), then (y, z), which is
    ``_least_lead``'s order, and puts the position the lead leaves into
    the sorted trail with two comparisons.  Any other degree steps by
    ``_least_lead`` and ``_rewrite_step``.
    """
    hit = memo.get(ps)
    if hit is not None:
        return hit
    # read at call time, so that the module's one cap rules every walk
    max_steps = DEFAULT_STEP_CAP
    partners, trails = index.partners, index.trails
    degree = len(ps)
    # each walked monomial with its place in the walk
    walked = {}
    while hit is None:
        if degree == 3:
            x, y, z = ps
            row = partners[x]
            # lead and the position it leaves
            if y in row:
                lead, c = (x, y), z
            elif z in row:
                lead, c = (x, z), y
            elif z in partners[y]:
                lead, c = (y, z), x
            else:
                lead = None
        elif degree == 2:
            lead = ps if ps in trails else None
        else:
            lead = _least_lead(ps, partners)
        if lead is None:
            hit = memo[ps] = (ps, 0)
            break
        n = len(walked)
        if n == max_steps:
            raise _step_cap_error(max_steps)
        if walked.setdefault(ps, n) != n:
            raise InternalInvariantError(
                f"reduction cycles through {n - walked[ps]} monomials;"
                " the termination measure should forbid this")
        if degree == 3:
            p, q = trails[lead]
            ps = (c, p, q) if c <= p else (p, c, q) if c <= q else (p, q, c)
        elif degree == 2:
            ps = trails[lead]
        else:
            ps = _rewrite_step(ps, lead, trails[lead])
        hit = memo.get(ps)
    nf, steps = hit
    if len(walked) + steps > max_steps:
        raise _step_cap_error(max_steps)
    for ps in reversed(walked):
        steps += 1
        memo[ps] = (nf, steps)
    return nf, steps


def normal_form(f: TPolynomial, basis) -> TPolynomial:
    """Deterministic normal form, the sum of c*nf(m) over the terms c*m.

    Every rule is a +-1 binomial, so a monomial rewrites to a monomial,
    and the rule ``_least_lead`` picks for a support monomial depends on
    that monomial alone.  Reducing term by term therefore gives the
    polynomial that repeated ``reduce_step`` reaches, for any basis,
    confluent or not.  A monomial whose chain is longer than
    ``DEFAULT_STEP_CAP`` raises ``InternalInvariantError``.
    """
    index = _RuleIndex(basis, chain.from_iterable(f.terms))
    memo = {}
    return TPolynomial(
        (index.monomial(
            _normal_form(index.positions(m), index, memo)[0]), c)
        for m, c in f.terms.items())


def s_polynomial(g1: MarkedBinomial, g2: MarkedBinomial) -> TPolynomial:
    """S-polynomial on the multiset lcm of the two leads."""
    lead1, lead2 = Counter(g1.lead), Counter(g2.lead)
    lcm = lead1 | lead2
    cof1 = TMonomial((lcm - lead1).elements())
    cof2 = TMonomial((lcm - lead2).elements())
    return (TPolynomial.monomial(TMonomial(g2.trail + cof2))
            + TPolynomial.monomial(TMonomial(g1.trail + cof1), -1))


class ConfluenceReport(NamedTuple):
    """Outcome of ``confluence_check`` on a basis of B rules.

    ``pairs_total`` is B(B-1)/2.  ``pairs_reduced`` counts the critical
    pairs, the rule pairs whose leads share a ref; the others have
    coprime leads and are skipped by Buchberger's product criterion.
    ``failures`` holds the (i, j) basis indices, i < j, of the critical
    pairs whose two rewrites reach different normal forms.
    ``max_reduction_length`` is the longest deterministic chain from one
    rewrite of a critical pair's lcm to its normal form.
    ``normal_forms`` counts the distinct monomials those chains pass
    through, normal forms included: each is reduced once.
    """
    pairs_total: int
    pairs_reduced: int
    failures: tuple[tuple[int, int], ...]
    max_reduction_length: int
    normal_forms: int

    @property
    def pairs_skipped(self) -> int:
        return self.pairs_total - self.pairs_reduced

    @property
    def confluent(self) -> bool:
        """No critical pair failed to join.

        That alone does not prove a Groebner basis.  Rules that cycle
        only through coprime leads have no critical pair to reduce, so
        they read confluent with 0 pairs reduced (the two-rule basis of
        ``test_step_cap_raises_on_cyclic_rules``).  The conclusion also
        needs termination, which the (c, e) measure suite checks.
        """
        return not self.failures


def _paused(run, *args):
    """``run(*args)`` with Python's cyclic garbage collector paused.

    The pause is process-wide: nothing is collected until ``run`` ends.
    It is safe around the passes that use it, which leave no cyclic
    garbage: their memos hold tuples, ints and lists, freed by reference
    counting, that the collector would traverse again and again as they
    grow.  Once ``run`` returns or raises, and its locals are gone, the
    collector runs again if it ran on entry: a caller that paused it
    keeps it paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(*args)
    finally:
        if enabled:
            gc.enable()


def confluence_check(basis) -> ConfluenceReport:
    """Join every critical pair of the basis on monomials.

    Every lead is a squarefree product a*b.  A pair of rules with coprime
    leads reduces to zero by Buchberger's product criterion, so only the
    pairs with leads a*b and a*c are visited.  Each rewrites the cubic
    lcm a*b*c to trail1*c and to trail2*b; the pair fails when the two
    deterministic normal forms differ.  Termination is a premise, shown
    by the (c, e) measure; given it, Newman's lemma makes joinable
    critical pairs equivalent to confluence, and two distinct normal
    forms are two irreducible reducts of one monomial.  A rewrite chain
    longer than ``DEFAULT_STEP_CAP`` raises ``InternalInvariantError``.
    More than ``CRITICAL_PAIR_CAP`` critical pairs raise
    ``ResourceCapError`` before any is reduced.

    The basis is read once, into the ``_RuleIndex``, which refuses any
    rule that is not quadratic, so any iterable of rules will do; B is
    its rule count.  The pairs are joined bucket by bucket, one bucket
    per shared lead ref.  A rewrite puts the partner into the trail's
    two sorted positions with two comparisons, then reads the walk memo
    of this call, and only a miss calls ``_normal_form``, so each distinct
    monomial is reduced once and a pair costs two dict reads and one
    comparison.  On max(4,3) that is 4,412 walks for 9,932 pairs.  Every
    walk is cubic, so each of its steps probes the rule index in
    ``_least_lead``'s order and puts the kept position into the trail
    the same way.
    Memoizing changes no verdict, failure or length.  The memo holds one
    entry per monomial the walks pass (``normal_forms``), so memory
    grows with that number: the tracemalloc peak of one call, rule index
    included, is about 1.0 MiB on max(4,3), 6.0 MiB on max(4,4) and
    27.6 MiB on max(5,4).  The check runs with the cyclic garbage
    collector paused (``_paused``).
    """
    return _paused(_joined, basis)


def _joined(basis) -> ConfluenceReport:
    """``confluence_check``'s pass, run with the collector paused."""
    index = _RuleIndex(basis)
    # per lead position, in basis order: (the rule's place in the basis,
    # the lead's other position, the trail's positions)
    by_ref = defaultdict(list)
    for i, ((a, b), trail) in enumerate(index.trails.items()):
        by_ref[a].append((i, b, trail))
        by_ref[b].append((i, a, trail))
    critical = sum(len(rules) * (len(rules) - 1) // 2
                   for rules in by_ref.values())
    if critical > CRITICAL_PAIR_CAP:
        raise ResourceCapError(
            f"{critical} critical pairs, more than {CRITICAL_PAIR_CAP}")
    memo = {}
    # a memo hit is the walk's whole answer, and an entry is a non-empty
    # tuple: ``hit(m) or _normal_form(m, ...)`` walks only on a miss
    hit = memo.get
    failures = []
    # two distinct squarefree leads share at most one ref, so each
    # critical pair sits in exactly one bucket; a sorted trail (p, q)
    # takes the partner c in place
    for rules in by_ref.values():
        for pos, (i, b, (p, q)) in enumerate(rules):
            for j, c, (r, s) in rules[pos + 1:]:
                one = ((c, p, q) if c <= p else (p, c, q) if c <= q
                       else (p, q, c))
                two = ((b, r, s) if b <= r else (r, b, s) if b <= s
                       else (r, s, b))
                if ((hit(one) or _normal_form(one, index, memo))[0]
                        != (hit(two) or _normal_form(two, index, memo))[0]):
                    failures.append((i, j))
    total = len(index.trails) * (len(index.trails) - 1) // 2
    longest = max((steps for _, steps in memo.values()), default=0)
    return ConfluenceReport(total, critical, tuple(sorted(failures)),
                            longest, len(memo))


# ------------------------------------------------------------- text forms

_TOKEN_RE = re.compile(r"""
    \s*(?P<tok>
      T\[\s*(?P<lvl>\d+)\s*,\s*(?P<idx>\d+)\s*\]
    | (?P<num>\d+)
    | (?P<op>[-+*/^()])
    | (?P<bad>\S)
    )""", re.VERBOSE)


def _tokens(text: str) -> tuple[list, list]:
    """The tokens of the text, then None: a ``GenRef`` per ``T[i,j]``, an
    int per number and a one-character str per operator; and where each
    stands, as its offset and its text (None at the end).  Every lexical
    error is raised here, before any term is read."""
    out, where = [], []
    for m in _TOKEN_RE.finditer(text):
        raw, lvl, idx, num, op, bad = m.groups()
        pos = m.start("tok")
        if bad:
            rest = text[pos:].rstrip()
            raise MonomialParseError(
                f"unexpected input {rest[:12]!r} at position {pos}")
        try:
            if op:
                out.append(op)
            elif num:
                out.append(int(num))
            else:
                out.append(GenRef(int(lvl), int(idx)))
        except ValueError:  # over Python's digit limit for int()
            raise MonomialParseError(
                f"number too long at position {pos}") from None
        where.append((pos, raw))
    out.append(None)
    where.append((len(text), None))
    return out, where


def _expected(what: str, where: list, i: int) -> MonomialParseError:
    """The error for token i, which is not the ``what`` expected."""
    pos, raw = where[i]
    got = "end of input" if raw is None else repr(raw)
    return MonomialParseError(f"expected {what}, got {got} at position {pos}")


def parse_tpolynomial(text: str, fam: LeveledFamily) -> TPolynomial:
    """Parse e.g. ``T[1,3]*T[1,4] - T[1,2]*T[1,5]`` or ``1/2*T[0,1]^2``.

    The grammar is  ['+'|'-'] term (('+'|'-') term)*, where a term is
    '*'-joined factors: an integer, optionally '/' and a denominator, or
    a T[i,j], optionally '^' and an integer power.  Every ref must name
    a generator of ``fam``.  Coefficient numbers of over
    ``MAX_COEFFICIENT_DIGITS`` digits in all raise
    ``MonomialParseError``, before any term is read.  A term of total
    degree over ``MAX_TERM_DEGREE`` raises ``ResourceCapError``, before
    its ref is checked.
    """
    if not text.strip():
        raise MonomialParseError("empty expression")
    tokens, where = _tokens(text)
    digits = 0
    for k, tok in enumerate(tokens):
        # a number is a coefficient's unless it is a power
        if isinstance(tok, int) and tokens[k - 1] != "^":
            digits += len(where[k][1])
            if digits > MAX_COEFFICIENT_DIGITS:
                raise MonomialParseError(
                    f"coefficients over {MAX_COEFFICIENT_DIGITS} digits in"
                    f" all at position {where[k][0]}")
    terms = []
    sign, i = 1, 0
    if tokens[0] in ("+", "-"):
        sign, i = (-1 if tokens[0] == "-" else 1), 1
    while True:
        coeff, refs = Fraction(1), []
        while True:
            tok = tokens[i]
            if not isinstance(tok, (int, GenRef)):
                raise _expected("a coefficient or T[i,j] factor", where, i)
            i += 1
            # a number's denominator or a ref's power
            arg = 1
            if tokens[i] == ("/" if isinstance(tok, int) else "^"):
                arg = tokens[i + 1]
                if not isinstance(arg, int):
                    raise _expected(f"a number after {tokens[i]!r}",
                                    where, i + 1)
                i += 2
            if isinstance(tok, int):
                if not arg:
                    raise MonomialParseError(
                        f"division by zero at position {where[i - 1][0]}")
                coeff *= Fraction(tok, arg)
            else:
                if len(refs) + arg > MAX_TERM_DEGREE:
                    raise ResourceCapError(
                        f"a term of degree over {MAX_TERM_DEGREE}")
                try:
                    fam._level_of(tok)
                except ValueError:
                    raise MonomialParseError(
                        f"unknown T-variable {tok}") from None
                refs += [tok] * arg
            if tokens[i] != "*":
                break
            i += 1
        terms.append((TMonomial(refs), sign * coeff))
        tok = tokens[i]
        if tok is None:
            return TPolynomial(terms)
        if tok not in ("+", "-"):
            raise _expected("'+' or '-' between terms", where, i)
        sign = -1 if tok == "-" else 1
        i += 1
