"""Presentation ideal of a leveled family: marked basis and reduction.

Presentation variables T[i,j] stand for the generators u_ij.  The marked
basis holds one quadratic binomial per incomparable ref pair: the product
of the pair (the lead, always squarefree) minus the product of its
sorted or ordered rewrite (the trail).  Reduction replaces leads by
trails until no lead divides any support monomial; with the family
closed under comparability this terminates and the normal forms are the
completely reduced monomials, one per fiber of the monomial map.

Coefficients are exact rationals throughout.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    InternalInvariantError,
    MonomialParseError,
    NotClosedError,
    ResourceCapError,
)
from .family import GenRef, LeveledFamily, is_closed_under_comparability
# Not called here (the family's pair table answers both); imported because
# perfbench/tracer.py counts calls by patching these names in this module.
from .family import comparable, rewrite_images  # noqa: F401

DEFAULT_STEP_CAP = 10**6
MAX_TERM_DEGREE = 1000
# Most critical pairs confluence_check reduces (max(4,4) has 103,047)
CRITICAL_PAIR_CAP = 10**6


class TMonomial:
    """Multiset of presentation variables, kept as a sorted ref tuple."""

    __slots__ = ("refs",)

    def __init__(self, refs=()):
        object.__setattr__(
            self, "refs",
            tuple(sorted(GenRef(int(i), int(j)) for i, j in refs)))

    @classmethod
    def _of_sorted(cls, refs: tuple) -> "TMonomial":
        """The monomial of a sorted tuple of ``GenRef``s, taken as it is:
        no conversion, no sort.  For callers that already hold one; text
        and other user input goes through the constructor."""
        mono = object.__new__(cls)
        _set_refs(mono, refs)
        return mono

    def __setattr__(self, name, value):
        raise AttributeError("TMonomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.refs)

    def __mul__(self, other: "TMonomial") -> "TMonomial":
        return TMonomial(self.refs + other.refs)

    def __eq__(self, other) -> bool:
        return isinstance(other, TMonomial) and self.refs == other.refs

    def __hash__(self) -> int:
        return hash(self.refs)

    def __lt__(self, other: "TMonomial") -> bool:
        return self.refs < other.refs

    def __le__(self, other: "TMonomial") -> bool:
        return self.refs <= other.refs

    def text(self) -> str:
        if not self.refs:
            return "1"
        parts = []
        for ref, mult in sorted(Counter(self.refs).items()):
            base = f"T[{ref.level},{ref.index}]"
            parts.append(base if mult == 1 else f"{base}^{mult}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"TMonomial({self.text()!r})"


# The slot's own setter: ``_of_sorted`` fills a new monomial without a
# pass through the refusing ``__setattr__``.
_set_refs = TMonomial.refs.__set__


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

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> list[TMonomial]:
        """Support monomials, greatest first in factor-lex order."""
        return sorted(self.terms, reverse=True)

    def __add__(self, other: "TPolynomial") -> "TPolynomial":
        merged = dict(self.terms)
        for mono, c in other.terms.items():
            s = merged.get(mono, Fraction(0)) + c
            if s:
                merged[mono] = s
            else:
                merged.pop(mono, None)
        return TPolynomial(merged)

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


class MarkedBinomial(NamedTuple):
    """lead - trail with the lead marked for reduction."""
    lead: TMonomial
    trail: TMonomial

    def __str__(self) -> str:
        return f"{self.lead.text()} - {self.trail.text()}"


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
        for ref in mono.refs:
            for k, e in enumerate(fam.generator(ref).exps):
                xs[k] += e
            if ref.level >= 1:
                ts[ref.level - 1] += 1
        return PsiImage(tuple(xs), tuple(ts))
    s = fam.top_level
    xs = [0] * (fam.n + s)
    for ref in mono.refs:
        lv = fam.level(ref.level)
        for k, e in enumerate(fam.generator(ref).exps):
            xs[k] += e
        xs[fam.n + ref.level - 1] += fam.embedding_degree - lv.degree
    return PsiImage(tuple(xs), ())


def build_basis(fam: LeveledFamily) -> tuple[MarkedBinomial, ...]:
    """One marked binomial per incomparable ref pair, sorted by lead.

    The rules come straight from the family's pair table: the lead is
    the pair, the trail the two refs at its image positions.  Requires
    closure under comparability; otherwise some trail would reference
    monomials outside the family.
    """
    if fam.open_pairs():
        report = is_closed_under_comparability(fam)
        raise NotClosedError(
            "family is not closed under comparability"
            f" ({len(report.witnesses)} witness pair(s))",
            report.witnesses)
    level_refs = {i: fam.level_refs(i) for i in fam.level_indices()}
    of_sorted = TMonomial._of_sorted
    # the NamedTuple's __new__ is a Python function; the tuple's builds
    # the same rule in C
    rule = tuple.__new__
    out = []
    for lead, (first, second) in fam.incomparable_pairs().items():
        a, b = lead
        c = level_refs[a[0]][first - 1]
        d = level_refs[b[0]][second - 1]
        # rewrite images already come in ref order; the one comparison
        # keeps the trail sorted without relying on that.  The table key
        # is the lead's sorted ref tuple.
        out.append(rule(MarkedBinomial, (
            of_sorted(lead), of_sorted((c, d) if c <= d else (d, c)))))
    return tuple(out)


def _lead_index(basis) -> dict[tuple[GenRef, GenRef], MarkedBinomial]:
    index = {}
    for g in basis:
        key = g.lead.refs
        if len(key) != 2 or key[0] == key[1]:
            raise ValueError(f"lead {g.lead} is not squarefree quadratic")
        if key in index:
            raise ValueError(f"duplicate lead {g.lead}")
        index[key] = g
    return index


def _least_lead(refs: tuple, index) -> tuple[GenRef, GenRef] | None:
    """The least lead ref pair dividing the monomial with these sorted
    refs, or None at a normal form.

    This is the one rule choice of every reduction in the package: a
    monomial rewrites along the rule with this lead.
    """
    for i, a in enumerate(refs):
        if i and refs[i - 1] == a:
            continue
        for b in refs[i + 1:]:
            if (a, b) in index:
                return a, b
    return None


def _rewrite_step(refs: tuple, rule: MarkedBinomial) -> tuple:
    """The sorted refs of the monomial with these refs once the rule's
    lead, which must divide it, is replaced by the rule's trail."""
    a, b = rule.lead.refs
    rest = list(refs)
    rest.remove(a)
    rest.remove(b)
    return tuple(sorted(rest + list(rule.trail.refs)))


def _polynomial_step(f: TPolynomial, index
                     ) -> tuple[TMonomial, MarkedBinomial, TPolynomial] | None:
    """(rewritten monomial, rule, result) of one deterministic step on f,
    or None at a normal form: the greatest reducible support monomial
    (factor-lex order) rewrites along its ``_least_lead``."""
    for mono in f.support():
        key = _least_lead(mono.refs, index)
        if key is not None:
            rule = index[key]
            coeff = f.terms[mono]
            out = TMonomial._of_sorted(_rewrite_step(mono.refs, rule))
            return mono, rule, f + TPolynomial({mono: -coeff, out: coeff})
    return None


def reduce_step(f: TPolynomial, basis) -> TPolynomial | None:
    """One deterministic reduction step, or None at a normal form; see
    ``_polynomial_step`` for the strategy."""
    step = _polynomial_step(f, _lead_index(basis))
    return None if step is None else step[2]


def _step_cap_error(max_steps: int) -> InternalInvariantError:
    return InternalInvariantError(
        f"reduction exceeded {max_steps} steps; the termination"
        " measure should forbid this")


def _normal_form(refs: tuple, index, memo: dict,
                 max_steps: int = DEFAULT_STEP_CAP) -> tuple[tuple, int]:
    """(normal form, steps to it) of the monomial with these sorted refs.

    The one walk of every reduction in the package.  A monomial in
    ``memo`` answers at once.  Otherwise ``_rewrite_step`` follows
    ``_least_lead`` to an irreducible monomial or one in ``memo``, and
    every monomial of the walk goes into ``memo`` with its normal form
    and its distance to it.  That is exact for any basis: the rule taken
    depends on the monomial alone, so both are functions of it.  More
    than ``max_steps`` steps in all, the walked ones plus those left
    from a memo hit, raise ``InternalInvariantError``, and so does a walk
    that comes back to a monomial it has walked: it would cycle forever.
    """
    hit = memo.get(refs)
    if hit is not None:
        return hit
    # each walked monomial with its place in the walk
    walked = {}
    while hit is None:
        key = _least_lead(refs, index)
        if key is None:
            hit = memo[refs] = (refs, 0)
            break
        n = len(walked)
        if n == max_steps:
            raise _step_cap_error(max_steps)
        if walked.setdefault(refs, n) != n:
            raise InternalInvariantError(
                f"reduction cycles through {n - walked[refs]} monomials;"
                " the termination measure should forbid this")
        refs = _rewrite_step(refs, index[key])
        hit = memo.get(refs)
    nf, steps = hit
    if len(walked) + steps > max_steps:
        raise _step_cap_error(max_steps)
    for refs in reversed(walked):
        steps += 1
        memo[refs] = (nf, steps)
    return nf, steps


def normal_form(f: TPolynomial, basis,
                max_steps: int = DEFAULT_STEP_CAP) -> TPolynomial:
    """Deterministic normal form, the sum of c*nf(m) over the terms c*m.

    Every rule is a +-1 binomial, so a monomial rewrites to a monomial,
    and the rule ``_least_lead`` picks for a support monomial depends on
    that monomial alone.  Reducing term by term therefore gives the
    polynomial that repeated ``reduce_step`` reaches, for any basis,
    confluent or not.  A monomial whose chain is longer than
    ``max_steps`` raises ``InternalInvariantError``.
    """
    index = _lead_index(basis)
    memo = {}
    return TPolynomial(
        (TMonomial(_normal_form(m.refs, index, memo, max_steps)[0]), c)
        for m, c in f.terms.items())


def is_completely_reduced(mono: TMonomial, fam: LeveledFamily) -> bool:
    """No incomparable pair among the factors, counting multiplicity.

    Repeated refs are fine: a pair of equal refs is trivially fixed by
    the sorting rewrite.  The pair table is keyed like a lead index, so
    ``_least_lead`` answers.
    """
    for ref in sorted(set(mono.refs)):
        fam.generator(ref)
    return _least_lead(mono.refs, fam.incomparable_pairs()) is None


def s_polynomial(g1: MarkedBinomial, g2: MarkedBinomial) -> TPolynomial:
    """S-polynomial on the multiset lcm of the two leads."""
    lead1, lead2 = Counter(g1.lead.refs), Counter(g2.lead.refs)
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


def confluence_check(basis, max_steps: int = DEFAULT_STEP_CAP
                     ) -> ConfluenceReport:
    """Join every critical pair of the basis on monomials.

    Every lead is a squarefree product a*b.  A pair of rules with coprime
    leads reduces to zero by Buchberger's product criterion, so only the
    pairs with leads a*b and a*c are visited.  Each rewrites the cubic
    lcm a*b*c to trail1*c and to trail2*b; the pair fails when the two
    deterministic normal forms differ.  Termination is a premise, shown
    by the (c, e) measure; given it, Newman's lemma makes joinable
    critical pairs equivalent to confluence, and two distinct normal
    forms are two irreducible reducts of one monomial.  A rewrite chain
    longer than ``max_steps`` raises ``InternalInvariantError``.  More
    than ``CRITICAL_PAIR_CAP`` critical pairs raise ``ResourceCapError``
    before any is reduced.

    Each distinct monomial is reduced once, through a ``_normal_form``
    memo that lives for this call; memoizing changes no verdict,
    failure or length.  The memo holds one entry per distinct cubic
    reached (``normal_forms``), so memory grows with that number:
    the tracemalloc peak of one call is about 1 MB on max(4,3), 6 MB on
    max(4,4) and 27 MB on max(5,4).
    """
    index = _lead_index(basis)
    # per lead ref: (rule index, the lead's other ref, trail refs)
    by_ref = defaultdict(list)
    for i, g in enumerate(basis):
        a, b = g.lead.refs
        trail = g.trail.refs
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
                if (_normal_form(one, index, memo, max_steps)[0]
                        != _normal_form(two, index, memo, max_steps)[0]):
                    failures.append((i, j))
    total = len(basis) * (len(basis) - 1) // 2
    longest = max((steps for _, steps in memo.values()), default=0)
    return ConfluenceReport(total, critical, tuple(sorted(failures)),
                            longest, len(memo))


# ------------------------------------------------------------- text forms

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<tref>T\[\s*(?P<lvl>\d+)\s*,\s*(?P<idx>\d+)\s*\])
    | (?P<num>\d+)
    | (?P<op>[-+*/^()])
    )""", re.VERBOSE)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise MonomialParseError(
                f"unexpected input {rest[:12]!r} at position {pos}")
        try:
            if m.group("tref"):
                out.append(("ref", GenRef(int(m.group("lvl")),
                                          int(m.group("idx")))))
            elif m.group("num"):
                out.append(("num", int(m.group("num"))))
            else:
                out.append(("op", m.group("op")))
        except ValueError:  # over Python's digit limit for int()
            raise MonomialParseError(
                f"number too long at position {pos}") from None
        pos = m.end()
    out.append(("end", None))
    return out


class _TermParser:
    """Recursive descent for  term (('+'|'-') term)*  where a term is an
    optional rational coefficient and '*'-joined T factors with optional
    integer powers."""

    def __init__(self, text: str, fam: LeveledFamily | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.fam = fam

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_num(self) -> int:
        kind, value = self.take()
        if kind != "num":
            raise MonomialParseError("expected a number")
        return value

    def parse(self) -> TPolynomial:
        terms = []
        sign = 1
        kind, value = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1 if value == "-" else 1
        while True:
            mono, coeff = self.term()
            terms.append((mono, sign * coeff))
            kind, value = self.peek()
            if kind == "end":
                break
            if kind == "op" and value in "+-":
                self.take()
                sign = -1 if value == "-" else 1
                continue
            raise MonomialParseError(
                f"expected '+' or '-' between terms, got {value!r}")
        return TPolynomial(terms)

    def term(self):
        coeff = Fraction(1)
        refs = []
        saw_factor = False
        while True:
            kind, value = self.peek()
            if kind == "num":
                self.take()
                num = value
                kind, value = self.peek()
                if kind == "op" and value == "/":
                    self.take()
                    den = self.expect_num()
                    if den == 0:
                        raise MonomialParseError("division by zero")
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
                saw_factor = True
            elif kind == "ref":
                self.take()
                ref = value
                power = 1
                kind2, value2 = self.peek()
                if kind2 == "op" and value2 == "^":
                    self.take()
                    power = self.expect_num()
                if len(refs) + power > MAX_TERM_DEGREE:
                    raise ResourceCapError(
                        f"a term of degree over {MAX_TERM_DEGREE}")
                if self.fam is not None:
                    try:
                        self.fam.generator(ref)
                    except ValueError:
                        raise MonomialParseError(
                            f"unknown T-variable {ref}") from None
                refs.extend([ref] * power)
                saw_factor = True
            else:
                raise MonomialParseError(
                    "expected a coefficient or T[i,j] factor")
            kind, value = self.peek()
            if kind == "op" and value == "*":
                self.take()
                continue
            break
        if not saw_factor:
            raise MonomialParseError("empty term")
        return TMonomial(refs), coeff


def parse_tpolynomial(text: str, fam: LeveledFamily | None = None
                      ) -> TPolynomial:
    """Parse e.g. ``T[1,3]*T[1,4] - T[1,2]*T[1,5]`` or ``1/2*T[0,1]^2``.

    With a family given, refs are checked against it.  A term of total
    degree over ``MAX_TERM_DEGREE`` raises ``ResourceCapError``.
    """
    if not text.strip():
        raise MonomialParseError("empty expression")
    return _TermParser(text, fam).parse()


def basis_shape(basis) -> dict:
    """The rule count and the two shape flags, read off the rules in one
    pass."""
    quadratic = squarefree = True
    for lead, trail in basis:
        refs = lead.refs
        if len(refs) != 2 or len(trail.refs) != 2:
            quadratic = False
            squarefree = squarefree and len(set(refs)) == len(refs)
        elif refs[0] == refs[1]:
            squarefree = False
    return {"count": len(basis), "quadratic": quadratic,
            "squarefree_leads": squarefree}


def basis_to_json(basis) -> dict:
    return {
        **basis_shape(basis),
        "relations": [
            {"lead": [list(r) for r in g.lead.refs],
             "trail": [list(r) for r in g.trail.refs]}
            for g in basis
        ],
    }


def _json_side(rel, side: str, k: int) -> TMonomial:
    refs = rel.get(side) if isinstance(rel, dict) else None
    if not isinstance(refs, list) or not all(
            isinstance(r, list) and len(r) == 2
            and all(type(x) is int for x in r) for r in refs):
        raise ValueError(
            f"relation {k}: {side!r} must be a list of [level, index] pairs")
    return TMonomial(refs)


def basis_from_json(data: dict, fam: LeveledFamily | None = None
                    ) -> tuple[MarkedBinomial, ...]:
    """The rules of a ``basis_to_json`` object.  Malformed input raises
    ``ValueError``, naming the relation's index when one is at fault."""
    relations = data.get("relations") if isinstance(data, dict) else None
    if not isinstance(relations, list):
        raise ValueError("expected an object with a 'relations' list")
    out = []
    for k, rel in enumerate(relations):
        lead = _json_side(rel, "lead", k)
        trail = _json_side(rel, "trail", k)
        if fam is not None:
            for ref in lead.refs + trail.refs:
                try:
                    fam.generator(ref)
                except ValueError as err:
                    raise ValueError(f"relation {k}: {err}") from None
        out.append(MarkedBinomial(lead, trail))
    return tuple(out)
