"""Presentation ideal of a leveled family: the marked basis.

Presentation variables T[i,j] stand for the generators u_ij.  The marked
basis holds one quadratic binomial per incomparable ref pair: the product
of the pair (the lead, always squarefree) minus the product of its
sorted or ordered rewrite (the trail).  Reduction by these rules and the
polynomials it acts on live in ``reduction``, which certifying never
loads.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import NotClosedError
from .family import GenRef, LeveledFamily, is_closed_under_comparability
# Not called here (the family's pair table answers both); imported because
# perfbench/tracer.py counts calls by patching these names in this module.
from .family import comparable, rewrite_images  # noqa: F401


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


class MarkedBinomial(NamedTuple):
    """lead - trail with the lead marked for reduction."""
    lead: TMonomial
    trail: TMonomial

    def __str__(self) -> str:
        return f"{self.lead.text()} - {self.trail.text()}"


def build_basis(fam: LeveledFamily) -> tuple[MarkedBinomial, ...]:
    """One marked binomial per incomparable ref pair, sorted by lead.

    The rules come straight from the family's pair table: the lead is
    the pair, the trail the two refs at its image positions.  Requires
    closure under comparability; otherwise some trail would reference
    monomials outside the family.  A family that is not closed is
    refused from the closure scan, which stops past its witness cap;
    only a closed family's table is classified in full.
    """
    report = is_closed_under_comparability(fam)
    if not report.closed:
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


# Moved to ``reduction``, which loads on first use.  Only the names that
# perfbench/tracer.py and perfbench/run.py read here still resolve
# (PEP 562); everything else is imported from ``reduction`` itself.
_MOVED = frozenset(("confluence_check", "reduce_step", "s_polynomial"))


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reduction
    return getattr(reduction, name)
