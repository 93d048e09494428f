"""Certificates: checked premises plus cited classical consequences.

The expensive verified facts are the closure check and the shape of the
marked basis (quadratic, squarefree leads), read off the family's pair
table.  The ring-theoretic conclusions are not recomputed
homologically; they follow from those premises by standard results,
which the certificate cites by name:
a defining ideal with a quadratic Groebner basis gives a Koszul algebra
(Froberg), a toric ideal with a squarefree initial ideal gives a normal
semigroup ring (Sturmfels), and normal affine semigroup rings are
Cohen-Macaulay (Hochster).
"""

from __future__ import annotations

from .family import LeveledFamily, characterize, is_closed_under_comparability
# Not called here (the rule count and shape are read off the pair
# table); imported because perfbench/tracer.py patches this name in this
# module.
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


def build_certificate(fam: LeveledFamily) -> dict:
    """Certificate dict; JSON-ready.  Conclusions only when closed."""
    report = is_closed_under_comparability(fam)
    closure = closure_json(report, characterize(fam))
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

    # The basis holds one rule per pair-table entry: the key is its lead
    # and the refs at the two image positions its trail.  Its size and
    # shape are read off the table, without building a rule.
    table = fam.incomparable_pairs()
    quadratic = squarefree = True
    for (a, b), positions in table.items():
        if len(positions) != 2 or None in positions:
            quadratic = False
        if a == b:
            squarefree = False
    out["basis_size"] = len(table)
    out["quadratic"] = quadratic
    out["squarefree_leads"] = squarefree
    if quadratic and squarefree:
        out["conclusions"] = ["koszul", "normal_domain", "cohen_macaulay"]
        out["citations"] = dict(CITATIONS)
    else:
        out["conclusions"] = []
        out["citations"] = {}
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
