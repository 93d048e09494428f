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

    def __neg__(self) -> "TPolynomial":
        return TPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TPolynomial") -> "TPolynomial":
        return self + (-other)

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
        parts = [f"x{i}" if e == 1 else f"x{i}^{e}"
                 for i, e in enumerate(self.x, start=1) if e]
        parts += [f"t{i}" if e == 1 else f"t{i}^{e}"
                  for i, e in enumerate(self.t, start=1) if e]
        return "*".join(parts) if parts else "1"


def psi_eval(mono: TMonomial, fam: LeveledFamily) -> PsiImage:
    """Image of a T-monomial: multiply the referenced generators.

    rees mode records one t_i per level-i factor (levels >= 1); fiber
    mode pads each level-i generator with the auxiliary variable
    x_{n+i} up to the embedding degree.
    """
    if fam.mode == "rees":
        xs = [0] * fam.n
        ts = [0] * fam.top_level
        for ref in mono:
            for k, e in enumerate(fam.generator(ref).exps):
                xs[k] += e
            if ref.level >= 1:
                ts[ref.level - 1] += 1
        return PsiImage(tuple(xs), tuple(ts))
    s = fam.top_level
    xs = [0] * (fam.n + s)
    for ref in mono:
        lv = fam.level(ref.level)
        for k, e in enumerate(fam.generator(ref).exps):
            xs[k] += e
        xs[fam.n + ref.level - 1] += fam.embedding_degree - lv.degree
    return PsiImage(tuple(xs), ())


def _positions(refs) -> tuple[tuple[GenRef, ...], dict]:
    """The distinct refs in lexicographic order, and each one's position
    in that order: int order is ref order, so a sorted ref tuple maps to
    a sorted position tuple and back."""
    ordered = tuple(sorted(set(refs)))
    return ordered, {ref: i for i, ref in enumerate(ordered)}


def _partners(pairs, pos: dict, size: int) -> list[set]:
    """Per position a, the set of positions b > a with (a, b) among the
    sorted ref pairs: the lead partners ``_least_lead`` reads."""
    rows = [set() for _ in range(size)]
    for a, b in pairs:
        rows[pos[a]].add(pos[b])
    return rows


class _RuleIndex:
    """The basis on ref positions, the one form every reduction reads.

    ``refs`` lists the refs of the basis and the extra refs passed in,
    in lexicographic order (see ``_positions``); a ref's position is
    its place there, and ``pos`` maps each ref to it.  ``partners``
    holds the lead partners of each position, ``trails`` maps each lead
    (a, b) to its trail's sorted positions, and ``rules`` to its
    ``MarkedBinomial``, for reports.  A lead that is not squarefree
    quadratic, or a duplicate one, raises ``ValueError``, the first in
    basis order.
    """

    __slots__ = ("refs", "pos", "partners", "trails", "rules")

    def __init__(self, basis, refs=()):
        self.refs, pos = _positions(chain(
            refs, *(g.lead + g.trail for g in basis)))
        self.pos = pos
        self.trails = trails = {}
        self.rules = rules = {}
        for g in basis:
            lead = g.lead
            if len(lead) != 2 or lead[0] == lead[1]:
                raise ValueError(f"lead {lead} is not squarefree quadratic")
            key = pos[lead[0]], pos[lead[1]]
            if key in rules:
                raise ValueError(f"duplicate lead {lead}")
            trails[key] = tuple(map(pos.__getitem__, g.trail))
            rules[key] = g
        self.partners = _partners(
            (g.lead for g in basis), pos, len(self.refs))

    def positions(self, refs: tuple) -> tuple[int, ...]:
        """The sorted positions of these sorted refs."""
        return tuple(map(self.pos.__getitem__, refs))

    def monomial(self, ps: tuple) -> TMonomial:
        """The T-monomial at these sorted positions."""
        return TMonomial._of_sorted(map(self.refs.__getitem__, ps))


def _least_lead(ps: tuple, partners) -> tuple[int, int] | None:
    """The least lead (a, b) dividing the monomial at these sorted
    positions, in lexicographic order, or None at a normal form.

    This is the one rule choice of every reduction in the package: a
    monomial rewrites along the rule with this lead.  ``partners`` is a
    ``_RuleIndex``'s, or the pair table's from ``_partners``.
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
    (factor-lex order) rewrites along its ``_least_lead``.  Every ref of
    f must have a position in the index."""
    for mono in f.support():
        ps = index.positions(mono)
        lead = _least_lead(ps, index.partners)
        if lead is not None:
            coeff = f.terms[mono]
            out = index.monomial(
                _rewrite_step(ps, lead, index.trails[lead]))
            return (mono, index.rules[lead],
                    f + TPolynomial({mono: -coeff, out: coeff}))
    return None


def _refs_of(f: TPolynomial):
    """Every ref of every support monomial of f."""
    return chain.from_iterable(f.terms)


# (rules, index) of the last basis a polynomial was reduced on
_last_index = None


def _index_for(basis, f: TPolynomial) -> _RuleIndex:
    """A ``_RuleIndex`` of the basis with a position for every ref of f:
    the last one built, while its rules equal the basis's and it has all
    those refs, else a new one, kept in its place.  Positions only stand
    in for refs, in ref order, so any such index reduces alike."""
    global _last_index
    rules = tuple(basis)
    if _last_index is not None:
        held, index = _last_index
        if held == rules and all(map(index.pos.__contains__, _refs_of(f))):
            return index
    index = _RuleIndex(rules, _refs_of(f))
    _last_index = rules, index
    return index


def reduce_step(f: TPolynomial, basis) -> TPolynomial | None:
    """One deterministic reduction step, or None at a normal form; see
    ``_polynomial_step`` for the strategy."""
    step = _polynomial_step(f, _index_for(basis, f))
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
    ``memo`` answers at once.  Otherwise ``_rewrite_step`` follows
    ``_least_lead`` to an irreducible monomial or one in ``memo``, and
    every monomial of the walk goes into ``memo`` with its normal form
    and its distance to it.  That is exact for any basis: the rule taken
    depends on the monomial alone, so both are functions of it.  More
    than ``DEFAULT_STEP_CAP`` steps in all, the walked ones plus those
    left from a memo hit, raise ``InternalInvariantError``, and so does
    a walk that comes back to a monomial it has walked: it would cycle
    forever.
    """
    hit = memo.get(ps)
    if hit is not None:
        return hit
    # read at call time, so that the module's one cap rules every walk
    max_steps = DEFAULT_STEP_CAP
    partners, trails = index.partners, index.trails
    # each walked monomial with its place in the walk
    walked = {}
    while hit is None:
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
    index = _index_for(basis, f)
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
    return (TPolynomial.monomial(g2.trail * cof2)
            - TPolynomial.monomial(g1.trail * cof1))


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
        return not self.failures


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

    Each distinct monomial is reduced once, through a ``_normal_form``
    memo that lives for this call; memoizing changes no verdict,
    failure or length.  The memo holds one entry per distinct cubic
    reached (``normal_forms``), so memory grows with that number:
    the tracemalloc peak of one call, rule index included, is about
    1.0 MiB on max(4,3), 6.2 MiB on max(4,4) and 27.6 MiB on max(5,4).
    """
    index = _RuleIndex(basis)
    # per lead position, in basis order: (the rule's place in the basis,
    # the lead's other position, the trail's positions)
    by_ref = defaultdict(list)
    for i, g in enumerate(basis):
        a, b = lead = index.positions(g.lead)
        trail = index.trails[lead]
        by_ref[a].append((i, b, trail))
        by_ref[b].append((i, a, trail))
    critical = sum(len(rules) * (len(rules) - 1) // 2
                   for rules in by_ref.values())
    if critical > CRITICAL_PAIR_CAP:
        raise ResourceCapError(
            f"{critical} critical pairs, more than {CRITICAL_PAIR_CAP}")
    memo = {}
    failures = []
    # two distinct squarefree leads share at most one ref, so each
    # critical pair sits in exactly one bucket
    for rules in by_ref.values():
        for pos, (i, b, trail1) in enumerate(rules):
            for j, c, trail2 in rules[pos + 1:]:
                one = tuple(sorted(trail1 + (c,)))
                two = tuple(sorted(trail2 + (b,)))
                if (_normal_form(one, index, memo)[0]
                        != _normal_form(two, index, memo)[0]):
                    failures.append((i, j))
    total = len(basis) * (len(basis) - 1) // 2
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


def parse_tpolynomial(text: str, fam: LeveledFamily | None = None
                      ) -> TPolynomial:
    """Parse e.g. ``T[1,3]*T[1,4] - T[1,2]*T[1,5]`` or ``1/2*T[0,1]^2``.

    The grammar is  ['+'|'-'] term (('+'|'-') term)*, where a term is
    '*'-joined factors: an integer, optionally '/' and a denominator, or
    a T[i,j], optionally '^' and an integer power.  With a family given,
    refs are checked against it.  Coefficient numbers of over
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
                if fam is not None:
                    try:
                        fam.generator(tok)
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
