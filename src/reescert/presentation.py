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
from .monomials import _integral


class TMonomial(tuple):
    """Multiset of presentation variables: the tuple of its sorted refs,
    with the tuple's equality, hash, order and immutability."""

    __slots__ = ()

    def __new__(cls, refs=()):
        return tuple.__new__(cls, sorted(
            GenRef(_integral(i), _integral(j)) for i, j in refs))

    @classmethod
    def _of_sorted(cls, refs) -> "TMonomial":
        """The monomial of sorted ``GenRef``s, taken as they are: no
        conversion, no sort.  For callers that already hold them; text
        and other user input goes through the constructor."""
        return tuple.__new__(cls, refs)

    @property
    def refs(self) -> "TMonomial":
        """The sorted refs: the monomial itself."""
        return self

    @property
    def degree(self) -> int:
        return len(self)

    def text(self) -> str:
        if not self:
            return "1"
        parts = []
        for ref, mult in sorted(Counter(self).items()):
            base = f"T[{ref.level},{ref.index}]"
            parts.append(base if mult == 1 else f"{base}^{mult}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"TMonomial({self.text()!r})"


class MarkedBinomial(NamedTuple):
    """lead - trail with the lead marked for reduction."""
    lead: TMonomial
    trail: TMonomial

    def __str__(self) -> str:
        return f"{self.lead.text()} - {self.trail.text()}"


def build_basis(fam: LeveledFamily) -> tuple[MarkedBinomial, ...]:
    """One marked binomial per incomparable ref pair, sorted by lead.

    The rules are the family's pair table, entry by entry: the key is
    the lead and the value, the refs of the two rewrite images, the
    trail.  Requires closure under comparability; otherwise some trail
    would reference monomials outside the family.  A family that is not
    closed is refused from the closure scan, which stops past its
    witness cap; only a closed family's table is classified in full.
    """
    report = is_closed_under_comparability(fam)
    if not report.closed:
        raise NotClosedError(
            "family is not closed under comparability"
            f" ({len(report.witnesses)} witness pair(s))",
            report.witnesses)
    of_sorted = TMonomial._of_sorted
    # the NamedTuple's __new__ is a Python function; the tuple's builds
    # the same rule in C.  Rewrite images already come in ref order; the
    # one comparison keeps the trail sorted without relying on that.
    rule = tuple.__new__
    return tuple(
        rule(MarkedBinomial, (of_sorted(lead), of_sorted(
            trail if trail[0] <= trail[1] else trail[::-1])))
        for lead, trail in fam.incomparable_pairs().items())


def basis_shape(rules) -> dict:
    """The rule count and the two shape flags of ``(lead refs, trail
    refs)`` pairs, in one pass: a closed family's pair-table items, or
    a basis's rules as ref tuples."""
    quadratic = squarefree = True
    count = 0
    for count, (lead, trail) in enumerate(rules, 1):
        if len(lead) != 2 or len(trail) != 2:
            quadratic = False
            squarefree = squarefree and len(set(lead)) == len(lead)
        elif lead[0] == lead[1]:
            squarefree = False
    return {"count": count, "quadratic": quadratic,
            "squarefree_leads": squarefree}


def basis_to_json(basis) -> dict:
    rules = list(basis)
    return {
        **basis_shape(rules),
        "relations": [
            {"lead": [list(r) for r in lead],
             "trail": [list(r) for r in trail]}
            for lead, trail in rules
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
