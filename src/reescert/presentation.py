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
from dataclasses import dataclass
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


class TMonomial:
    """Multiset of presentation variables, kept as a sorted ref tuple."""

    __slots__ = ("refs",)

    def __init__(self, refs=()):
        object.__setattr__(
            self, "refs",
            tuple(sorted(GenRef(int(i), int(j)) for i, j in refs)))

    def __setattr__(self, name, value):
        raise AttributeError("TMonomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.refs)

    def __mul__(self, other: "TMonomial") -> "TMonomial":
        return TMonomial(self.refs + other.refs)

    def without_pair(self, a: GenRef, b: GenRef) -> "TMonomial":
        left = list(self.refs)
        left.remove(a)
        left.remove(b)
        return TMonomial(left)

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

    def coeff(self, mono: TMonomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

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


@dataclass(frozen=True)
class MarkedBinomial:
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

    The rules come straight from the family's pair table.  Requires
    closure under comparability; otherwise some trail would reference
    monomials outside the family.
    """
    out = []
    for (a, b), (first, second) in fam.incomparable_pairs().items():
        if first is None or second is None:
            report = is_closed_under_comparability(fam)
            raise NotClosedError(
                "family is not closed under comparability"
                f" ({len(report.witnesses)} witness pair(s))",
                report.witnesses)
        trail = TMonomial([GenRef(a.level, first), GenRef(b.level, second)])
        out.append(MarkedBinomial(TMonomial([a, b]), trail))
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


def _divisible_leads(refs, index):
    """Lead pairs dividing the monomial with these refs, in ascending
    pair order."""
    distinct = sorted(set(refs))
    for ai in range(len(distinct)):
        for bi in range(ai + 1, len(distinct)):
            key = (distinct[ai], distinct[bi])
            if key in index:
                yield key


def apply_reduction(f: TPolynomial, mono: TMonomial,
                    g: MarkedBinomial) -> TPolynomial:
    """Rewrite one support monomial of f along one basis element."""
    coeff = f.coeff(mono)
    rest = mono.without_pair(*g.lead.refs)
    update = {mono: -coeff, rest * g.trail: coeff}
    return f + TPolynomial(update)


def reduction_options(f: TPolynomial, basis, _index=None
                      ) -> list[tuple[TMonomial, MarkedBinomial]]:
    """Every applicable (support monomial, rule) pair.

    Ordered by the deterministic strategy: support monomials greatest
    first, rules by ascending lead ref pair within a monomial, so the
    first entry is the step ``reduce_step`` takes.
    """
    index = _lead_index(basis) if _index is None else _index
    out = []
    for mono in f.support():
        for key in _divisible_leads(mono.refs, index):
            out.append((mono, index[key]))
    return out


def reduce_step(f: TPolynomial, basis) -> TPolynomial | None:
    """One deterministic reduction step, or None at a normal form.

    Strategy: rewrite the greatest reducible support monomial (factor-lex
    order); among the leads dividing it use the basis element with the
    least lead ref pair, i.e. the first entry of ``reduction_options``.
    """
    options = reduction_options(f, basis)
    return apply_reduction(f, *options[0]) if options else None


def _monomial_normal_form(refs: tuple, index,
                          max_steps: int = DEFAULT_STEP_CAP
                          ) -> tuple[tuple, int]:
    """Deterministic normal form of one monomial as a sorted ref tuple.

    Same strategy as ``reduce_step`` on a one-term polynomial: rewrite
    along the least dividing lead pair.  Returns the normal form and the
    number of steps taken.
    """
    steps = 0
    while True:
        key = next(_divisible_leads(refs, index), None)
        if key is None:
            return refs, steps
        rest = list(refs)
        rest.remove(key[0])
        rest.remove(key[1])
        refs = tuple(sorted(rest + list(index[key].trail.refs)))
        steps += 1
        if steps > max_steps:
            raise InternalInvariantError(
                f"reduction exceeded {max_steps} steps; the termination"
                " measure should forbid this")


def normal_form(f: TPolynomial, basis,
                max_steps: int = DEFAULT_STEP_CAP) -> TPolynomial:
    """Deterministic normal form, the sum of c*nf(m) over the terms c*m.

    Every rule is a +-1 binomial, so a monomial rewrites to a monomial,
    and the rule ``reduce_step`` applies to a support monomial depends on
    that monomial alone.  Reducing term by term therefore gives the
    polynomial that repeated ``reduce_step`` reaches, for any basis,
    confluent or not.  A monomial whose chain is longer than
    ``max_steps`` raises ``InternalInvariantError``.
    """
    index = _lead_index(basis)
    return TPolynomial(
        (TMonomial(_monomial_normal_form(m.refs, index, max_steps)[0]), c)
        for m, c in f.terms.items())


def is_completely_reduced(mono: TMonomial, fam: LeveledFamily) -> bool:
    """No incomparable pair among the factors, counting multiplicity.

    Repeated refs are fine: a pair of equal refs is trivially fixed by
    the sorting rewrite.
    """
    distinct = sorted(set(mono.refs))
    for ref in distinct:
        fam.generator(ref)
    table = fam.incomparable_pairs()
    return not any((a, b) in table
                   for i, a in enumerate(distinct) for b in distinct[i + 1:])


def s_polynomial(g1: MarkedBinomial, g2: MarkedBinomial) -> TPolynomial:
    """S-polynomial on the multiset lcm of the two leads."""
    lead1, lead2 = Counter(g1.lead.refs), Counter(g2.lead.refs)
    lcm = lead1 | lead2
    cof1 = TMonomial((lcm - lead1).elements())
    cof2 = TMonomial((lcm - lead2).elements())
    return (TPolynomial.monomial(g2.trail * cof2)
            - TPolynomial.monomial(g1.trail * cof1))


@dataclass(frozen=True)
class ConfluenceReport:
    """Outcome of ``confluence_check`` on a basis of B rules.

    ``pairs_total`` is B(B-1)/2.  ``pairs_reduced`` counts the critical
    pairs, the rule pairs whose leads share a ref; the others have
    coprime leads and are skipped by Buchberger's product criterion.
    ``failures`` holds the (i, j) basis indices, i < j, of the critical
    pairs whose two rewrites reach different normal forms.
    ``max_reduction_length`` is the longest deterministic chain from one
    rewrite of a critical pair's lcm to its normal form.
    """
    pairs_total: int
    pairs_reduced: int
    failures: tuple[tuple[int, int], ...]
    max_reduction_length: int

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
    longer than ``max_steps`` raises ``InternalInvariantError``.
    """
    index = _lead_index(basis)
    by_ref = defaultdict(list)
    for i, g in enumerate(basis):
        for ref in g.lead.refs:
            by_ref[ref].append(i)
    reduced = 0
    failures = []
    longest = 0
    # two distinct squarefree leads share at most one ref, so each
    # critical pair sits in exactly one bucket
    for ref, rules in by_ref.items():
        for pos, i in enumerate(rules):
            g1 = basis[i]
            (b,) = (r for r in g1.lead.refs if r != ref)
            for j in rules[pos + 1:]:
                g2 = basis[j]
                (c,) = (r for r in g2.lead.refs if r != ref)
                reduced += 1
                nf1, steps1 = _monomial_normal_form(
                    tuple(sorted(g1.trail.refs + (c,))), index, max_steps)
                nf2, steps2 = _monomial_normal_form(
                    tuple(sorted(g2.trail.refs + (b,))), index, max_steps)
                longest = max(longest, steps1, steps2)
                if nf1 != nf2:
                    failures.append((i, j))
    total = len(basis) * (len(basis) - 1) // 2
    return ConfluenceReport(total, reduced, tuple(sorted(failures)), longest)


def kernel_membership(f: TPolynomial, basis) -> bool:
    """Does f reduce to zero, i.e. lie in the ideal of the basis?"""
    return normal_form(f, basis).is_zero()


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
        if m.group("tref"):
            out.append(("ref", GenRef(int(m.group("lvl")),
                                      int(m.group("idx")))))
        elif m.group("num"):
            out.append(("num", int(m.group("num"))))
        else:
            out.append(("op", m.group("op")))
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


def basis_to_json(basis) -> dict:
    return {
        "count": len(basis),
        "quadratic": all(g.lead.degree == 2 and g.trail.degree == 2
                         for g in basis),
        "squarefree_leads": all(len(set(g.lead.refs)) == g.lead.degree
                                for g in basis),
        "relations": [
            {"lead": [list(r) for r in g.lead.refs],
             "trail": [list(r) for r in g.trail.refs]}
            for g in basis
        ],
    }


def basis_from_json(data: dict, fam: LeveledFamily | None = None
                    ) -> tuple[MarkedBinomial, ...]:
    try:
        relations = data["relations"]
    except (TypeError, KeyError):
        raise ValueError("expected an object with a 'relations' list")
    out = []
    for rel in relations:
        lead = TMonomial(tuple(map(tuple, rel["lead"])))
        trail = TMonomial(tuple(map(tuple, rel["trail"])))
        if fam is not None:
            for ref in lead.refs + trail.refs:
                fam.generator(ref)
        out.append(MarkedBinomial(lead, trail))
    return tuple(out)
