"""Certificates: checked premises plus cited classical consequences.

The verified facts are closure under comparability and the shape of the
marked basis (its rule count, quadratic, squarefree leads).  They come
by one of two routes, chosen by ``characterize``:

- A family with the structural conjunction (every level the Borel set
  of its least generator, consecutive least generators under the
  support chain) meets the hypothesis of "On the Koszulness of
  multi-Rees algebras of certain strongly stable ideals" (arXiv
  1406.2188), so it is closed with a quadratic basis of squarefree
  leads by that paper's theorem, and no pair is classified.  Its rule
  count is C(v+1, 2) less the comparable pairs, which by the product
  identity B(u)*B(v) = B(uv) of principal Borel sets number the sum of
  |B(u_i*u_j)| over the levels' least generators, counted without
  building a set.  ``tests/test_census.py``
  underwrites both: the conjunction equals closure on every family of
  the (3, 3, 3) census in both modes, the product identity holds by
  enumeration for n <= 5 and degrees <= 3, and this route agrees with
  the scan on the census, the ladders and the demos.
- Any other family is scanned: closure, the rule count and the shape
  are read off the family's pair table, without building a rule.

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


def _conjunction_rule_count(fam: LeveledFamily) -> int:
    """Rule count of a family with the structural conjunction: its
    C(v+1, 2) ref pairs a <= b less the comparable ones, one per
    distinct product of each block of levels i <= j, so |B(u_i*u_j)| by
    the product identity (level 0's x_n included in rees mode).  The
    count is uncapped, as a product's Borel set may pass ``BOREL_CAP``
    where no level does: B(x450^2) in 450 variables has 101,475
    members."""
    lasts = [lv.last.exps for lv in fam.levels]
    hf2 = sum(_borel_count(tuple(map(add, u, w)))
              for i, u in enumerate(lasts) for w in lasts[i:])
    v = len(fam)
    return v * (v + 1) // 2 - hf2


def build_certificate(fam: LeveledFamily) -> dict:
    """Certificate dict; JSON-ready.  Conclusions only when closed.

    A family with the structural conjunction is closed by the paper's
    theorem and its rule count is ``_conjunction_rule_count``: no pair
    is classified.  Any other family is scanned."""
    ch = characterize(fam)
    if ch.conjunction:
        refs = len(fam)
        report = ClosureReport(True, (), refs * (refs - 1) // 2, False)
    else:
        report = is_closed_under_comparability(fam)
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

    if ch.conjunction:
        # the theorem's basis is quadratic with squarefree leads
        shape = {"count": _conjunction_rule_count(fam), "quadratic": True,
                 "squarefree_leads": True}
    else:
        # The pair table is the basis, one rule per entry, lead to
        # trail: its size and shape are read off it without building a
        # rule.
        shape = basis_shape(fam.incomparable_pairs().items())
    out["basis_size"] = shape["count"]
    out["quadratic"] = shape["quadratic"]
    out["squarefree_leads"] = shape["squarefree_leads"]
    if shape["quadratic"] and shape["squarefree_leads"]:
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
