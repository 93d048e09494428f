"""Certificates: checked premises plus cited classical consequences.

The verified facts are closure under comparability and the shape of the
marked basis (its rule count, quadratic, squarefree leads).  They come
by one route, block by block of levels.  The rewrite of a pair reads
only its two generators, so the theorem of "On the Koszulness of
multi-Rees algebras of certain strongly stable ideals" (arXiv
1406.2188) settles every block of two levels (L_i, L_j) whose own
two-level family (level 0 added in rees mode) has the structural
conjunction: both levels the Borel set of their least generator, and
i = j, or i = 0, or the least generators under the support chain.  Such
a block holds no open pair, and its rule count is its pairs less the
comparable ones, which by the product identity B(u)*B(v) = B(uv) of
principal Borel sets number |B(u_i*u_j)|, counted without building a
set.  The closure scan classifies only the pairs of the other blocks,
in lexicographic order, and their rules are read off its table, without
building a rule.  A family with the conjunction has no other block: it
is certified with no ref, no member and no pair built.
``tests/test_census.py`` underwrites the route: the conjunction equals
closure on every family of the (3, 3, 3) census in both modes, no open
pair of a full scan of that census, or of the listed-level censuses,
lies in a settled block, the product identity holds by enumeration for
n <= 5 and degrees <= 3, and the certificate agrees with a full scan,
witnesses included, on those censuses, the ladders and the demos.

``reescert check``, ``basis`` and ``verify`` always scan.  The
ring-theoretic conclusions are not recomputed homologically; they follow
from those premises by standard results, which the certificate cites by
name:
a defining ideal with a quadratic Groebner basis gives a Koszul algebra
(Froberg), a toric ideal with a squarefree initial ideal gives a normal
semigroup ring (Sturmfels), and normal affine semigroup rings are
Cohen-Macaulay (Hochster).
"""

from __future__ import annotations

from operator import add

from .errors import InternalInvariantError
from .family import (
    ClosureReport,
    LeveledFamily,
    characterize,
    is_closed_under_comparability,
)
from .monomials import _borel_count
from .presentation import basis_shape
# Not called here (the rule count and shape come from the closed form or
# the pair table); imported because perfbench/tracer.py patches this
# name in this module.
from .presentation import build_basis  # noqa: F401

CITATIONS = {
    "koszul": (
        "the defining ideal has a quadratic Groebner basis; algebras with a"
        " G-quadratic presentation are Koszul (Froberg's theorem)"),
    "normal_domain": (
        "the initial ideal of the toric defining ideal is squarefree, so"
        " the semigroup is normal (Sturmfels' criterion); affine semigroup"
        " rings are domains"),
    "cohen_macaulay": (
        "normal affine semigroup rings are Cohen-Macaulay (Hochster's"
        " theorem)"),
}

SUBJECTS = {
    "rees": "multi-Rees algebra of the family",
    "fiber": "special fiber semigroup ring of the family",
}


def closure_json(report, ch) -> dict:
    """Closure scan and characterization as the JSON keys shared by
    ``reescert check`` and the certificate."""
    return {
        "pairs_checked": report.pairs_checked,
        "witnesses": [
            {"pair": [list(w.pair[0]), list(w.pair[1])],
             "images": [img.text() for img in w.images],
             "missing": list(w.missing)}
            for w in report.witnesses
        ],
        "characterization": {
            "level_indices": list(ch.level_indices),
            "borel_equal": list(ch.borel_equal),
            "borel_subset": list(ch.borel_subset),
            "chain": list(ch.chain),
            "conjunction": ch.conjunction,
        },
    }


def closure_lines(data: dict, closed: bool) -> list[str]:
    """Text lines for the closure verdict and the characterization of a
    dict holding the ``closure_json`` keys."""
    yn = lambda b: "yes" if b else "no"
    lines = [f"closed under comparability: {yn(closed)}"
             f"  ({data['pairs_checked']} pairs checked)"]
    ch = data["characterization"]
    if ch["level_indices"]:
        lines.append("borel equality by level: " + " ".join(
            f"{i}:{yn(ok)}"
            for i, ok in zip(ch["level_indices"], ch["borel_equal"])))
        if ch["chain"]:
            lines.append("support chain: " + " ".join(
                f"{i}-{j}:{yn(ok)}"
                for i, j, ok in zip(ch["level_indices"],
                                    ch["level_indices"][1:], ch["chain"])))
        lines.append(f"structural conjunction: {yn(ch['conjunction'])}")
    return lines


def _settled_blocks(fam: LeveledFamily, ch) -> frozenset:
    """The blocks of levels (i, j), i <= j by level index, that the
    paper's theorem closes: those whose own two-level family (level 0
    added in rees mode) has the structural conjunction.  Both levels
    equal the Borel set of their least generator (level 0 always does),
    and i = j, or i = 0, or the support chain head(u_i) >= tail(u_j)
    holds.  A rewrite of a pair reads only its two generators, so such
    a block holds no open pair in any family.  The chain is transitive
    (head <= tail on every monomial), so every block is settled exactly
    when the family has the conjunction."""
    # level 0 is not characterized, and always equal
    equal = dict(zip(ch.level_indices, ch.borel_equal))
    lasts = [(lv.index, lv.last.head_index(), lv.last.tail_index())
             for lv in fam.levels if equal.get(lv.index, True)]
    return frozenset(
        (i, j) for k, (i, head, _) in enumerate(lasts)
        for j, _, tail in lasts[k:]
        if i == j or i == 0 or head >= tail)


def _settled_rule_count(fam: LeveledFamily, settled) -> int:
    """Rules of the settled blocks: the ref pairs a <= b of each block
    less its comparable pairs, one per distinct product, so
    |B(u_i*u_j)| of them by the product identity B(u)*B(v) = B(uv) of
    principal Borel sets.  That is |L_i|*|L_j| - |B(u_i*u_j)| for
    i < j and C(|L_i|+1, 2) - |B(u_i^2)| for i = j.  The counts are
    uncapped, as a product's Borel set may pass ``BOREL_CAP`` where no
    level does: B(x450^2) in 450 variables has 101,475 members.  Their
    number is bounded by the family's construction, which caps its
    pairs of levels at ``PAIR_CAP``."""
    count = 0
    levels = [(lv.index, len(lv), lv.last.exps) for lv in fam.levels]
    for k, (i, a, u) in enumerate(levels):
        for j, b, w in levels[k:]:
            if (i, j) in settled:
                pairs = a * (a + 1) // 2 if i == j else a * b
                count += pairs - _borel_count(tuple(map(add, u, w)))
    return count


def build_certificate(fam: LeveledFamily) -> dict:
    """Certificate dict; JSON-ready.  Conclusions only when closed.

    The blocks of levels the paper's theorem settles
    (``_settled_blocks``) are counted; the closure scan classifies only
    the pairs of the others, and reads the rule count of those off their
    table.  A family with the structural conjunction has no other
    block: no ref, no member and no pair is built for it."""
    ch = characterize(fam)
    settled = _settled_blocks(fam, ch)
    size = len(fam.levels)
    scanned = len(settled) < size * (size + 1) // 2
    if scanned:
        report = is_closed_under_comparability(fam, settled=settled)
    else:
        refs = len(fam)
        report = ClosureReport(True, (), refs * (refs - 1) // 2, False)
    closure = closure_json(report, ch)
    witnesses = closure.pop("witnesses")
    out = {
        "mode": fam.mode,
        "subject": SUBJECTS[fam.mode],
        "variables": fam.n,
        "levels": [
            {"index": lv.index, "degree": lv.degree, "size": len(lv)}
            for lv in fam.levels
        ],
        "closed_under_comparability": report.closed,
        **closure,
    }
    if fam.mode == "fiber":
        out["embedding_degree"] = fam.embedding_degree
    if not report.closed:
        out["witnesses"] = witnesses
        out["conclusions"] = []
        out["citations"] = {}
        return out

    # The scanned table is the basis of the open blocks, one rule per
    # entry, lead to trail: its size and shape are read off it without
    # building a rule.  The theorem's blocks are quadratic with
    # squarefree leads.
    shape = basis_shape(fam._table(settled)[0].items() if scanned else ())
    if not (shape["quadratic"] and shape["squarefree_leads"]):
        # each table entry is a product of two distinct refs rewritten
        # to two refs, so a closed family always has this shape
        raise InternalInvariantError(
            "the marked basis of a closed family is not quadratic with"
            " squarefree leads")
    out["basis_size"] = shape["count"] + _settled_rule_count(fam, settled)
    out["quadratic"] = shape["quadratic"]
    out["squarefree_leads"] = shape["squarefree_leads"]
    out["conclusions"] = ["koszul", "normal_domain", "cohen_macaulay"]
    out["citations"] = dict(CITATIONS)
    return out


def certificate_text(cert: dict) -> str:
    lines = []
    sizes = "/".join(str(lv["size"]) for lv in cert["levels"])
    lines.append(f"mode: {cert['mode']}  variables: {cert['variables']}"
                 f"  level sizes: {sizes}")
    if cert["mode"] == "fiber":
        lines.append(f"embedding degree: {cert['embedding_degree']}")
    closed = cert["closed_under_comparability"]
    lines += closure_lines(cert, closed)
    if not closed:
        lines.append("verdict: no certificate; family is not closed")
        for w in cert["witnesses"][:8]:
            a, b = w["pair"]
            lines.append(
                f"  witness T[{a[0]},{a[1]}]*T[{b[0]},{b[1]}] rewrites to"
                f" ({w['images'][0]}, {w['images'][1]}), missing component"
                f" {w['missing']}")
        more = len(cert["witnesses"]) - 8
        if more > 0:
            lines.append(f"  ... and {more} more witness(es)")
        return "\n".join(lines)
    lines.append(
        f"marked basis: {cert['basis_size']} binomials, quadratic:"
        f" {'yes' if cert['quadratic'] else 'no'}, squarefree leads:"
        f" {'yes' if cert['squarefree_leads'] else 'no'}")
    lines.append(f"certified for the {cert['subject']}:")
    for key in cert["conclusions"]:
        lines.append(f"  {key}: {cert['citations'][key]}")
    return "\n".join(lines)
