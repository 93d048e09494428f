"""Certificates: checked premises plus cited classical consequences.

The verified facts are closure under comparability and the shape of the
marked basis (its rule count, quadratic, squarefree leads).  They come
block by block of levels, each block by the one route ``_routes`` gives
it, whose docstring states the rule and its proof: the theorem of "On
the Koszulness of multi-Rees algebras of certain strongly stable
ideals" (arXiv 1406.2188) settles a block whose own two-level family
has the structural conjunction, a block whose levels lie inside their
Borel hulls, and whose hull block the theorem settles, is classified
from the hulls' missing members (``hull``), and the other blocks are
scanned.  A settled block holds no open pair, and its rule count is its
pairs less the comparable ones, which by the product identity
B(u)*B(v) = B(uv) of principal Borel sets number |B(u_i*u_j)|, counted
without building a set, once per distinct product; a product equal to
a counted level's least generator takes that level's size.  A routed
block adds its open products.  The closure scan is handed the scanned
blocks (``blocks=``) and the routed blocks' open pairs (``known=``): it
classifies only the pairs of the scanned blocks, in lexicographic
order, so it holds the blocks it reads, never the settled ones it
skips, and their rules are read off its table, without building a
rule; a witness's images are the factorizations the scan or the hull
dealt, so no pair is rewritten twice.  A family with the conjunction
is all the theorem's: it is certified with no ref, no member, no pair
and no set of blocks built.
``tests/test_census.py`` underwrites the route: the conjunction equals
closure on every family of the (3, 3, 3) census in both modes, no open
pair of a full scan of that census, or of the listed-level censuses,
lies in a settled block, the product identity holds by enumeration for
n <= 5 and degrees <= 3, and the certificate agrees with a full scan,
witnesses and rule counts included, on those censuses, where both the
hull route and the scan are taken, the ladders and the demos.

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

from itertools import combinations_with_replacement, filterfalse
from operator import add

from .errors import InternalInvariantError, ResourceCapError
from .family import (
    PAIR_CAP,
    ClosureReport,
    LeveledFamily,
    _weights,
    characterize,
    is_closed_under_comparability,
)
from .monomials import BOREL_ENTRY_CAP, _borel_count
from .presentation import basis_shape
# Not called here (the rule count and shape come from the closed form or
# the pair table); imported because perfbench/tracer.py patches this
# name in this module.
from .presentation import build_basis  # noqa: F401

# Most steps ``_settled_rule_count`` may spend counting the Borel sets
# of the settled blocks' products, about 3 s: one product costs up to
# its least variable's index times its degree, and the blocks grow as
# the square of the levels.  The sum runs over every block, an upper
# bound once repeated products are counted once, and is taken in closed
# form over the levels (``_settled_steps``), so a family past it is
# refused before any block is walked; the blocks are walked once, to
# count.  max(12,4), max(20,3) and max(60,2) take at most 1,320; 240
# levels B(x2000) of degree 1 in 2,000 variables take 1.75 * 10^8.
COUNT_STEP_CAP = 10**7

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
    ``reescert check`` and the certificate.  The witnesses of a report
    share one ``Monomial`` per distinct image, and each is texted once,
    keyed by identity."""
    text = {}
    for w in report.witnesses:
        for img in w.images:
            if id(img) not in text:
                text[id(img)] = img.text()
    return {
        "pairs_checked": report.pairs_checked,
        "witnesses": [
            {"pair": [list(a), list(b)],
             "images": [text[id(u)], text[id(v)]],
             "missing": list(missing)}
            for (a, b), (u, v), missing in report.witnesses
        ],
        "characterization": {
            "level_indices": list(ch.level_indices),
            "borel_equal": list(ch.borel_equal),
            "borel_subset": list(ch.borel_subset),
            "chain": list(ch.chain),
            "conjunction": ch.conjunction,
        },
    }


def _yn(flag) -> str:
    """``yes`` or ``no``, as the text outputs print a flag."""
    return "yes" if flag else "no"


def closure_lines(data: dict, closed: bool) -> list[str]:
    """Text lines for the closure verdict and the characterization of a
    dict holding the ``closure_json`` keys."""
    lines = [f"closed under comparability: {_yn(closed)}"
             f"  ({data['pairs_checked']} pairs checked)"]
    ch = data["characterization"]
    if ch["level_indices"]:
        lines.append("borel equality by level: " + " ".join(
            f"{i}:{_yn(ok)}"
            for i, ok in zip(ch["level_indices"], ch["borel_equal"])))
        if ch["chain"]:
            lines.append("support chain: " + " ".join(
                f"{i}-{j}:{_yn(ok)}"
                for i, j, ok in zip(ch["level_indices"],
                                    ch["level_indices"][1:], ch["chain"])))
        lines.append(f"structural conjunction: {_yn(ch['conjunction'])}")
    return lines


def _routes(fam: LeveledFamily, ch) -> tuple[frozenset, list]:
    """The route of every block of levels (i, j), i <= j by level index,
    as (scanned, routed): the frozenset of blocks the closure scan
    classifies and the list of blocks ``hull._hull_open_pairs``
    classifies.  Every other block is the paper's theorem's.

    A rewrite of a pair reads only its two generators, so the theorem
    settles a block whose own two-level family (level 0 added in rees
    mode) has the structural conjunction: both levels equal the Borel
    set of their least generator (level 0 and ``"borel"`` levels always
    do), and i = j or the support chain head(u_i) >= tail(u_j) holds
    (level 0's ends are (n, n)).  Such a block holds no open pair in any
    family.  The chain is transitive (head <= tail on every monomial),
    so every block is the theorem's exactly when the family has the
    conjunction, and no block is walked then.

    A level L inside its Borel hull H = B(u), u its least generator,
    misses the members M = H less L.  Merging factors is monotone: if
    a <= g and b <= h componentwise, the sorted merge of a and b lies
    below that of g and h, and both rewrites read fixed positions of
    it.  So when both levels of a block lie inside their hulls and the
    chain holds, the theorem settles the hull block (H_i, H_j), every
    pair of L_i x L_j rewrites to the canonical split of its product
    inside H_i x H_j, and it is open exactly when that split touches a
    member of M, which its witness names.  Its rules are its ref pairs
    a <= b less the comparable ones, those that are the split of their
    product; the products are B(u_i*u_j), by the product identity
    B(u)*B(v) = B(uv) of principal Borel sets, so the block holds
    |L_i|*|L_j| - |B(u_i*u_j)| + N rules (C(|L_i|+1, 2) - |B(u_i^2)| + N
    for i = j), N its open products, the pairs (c, d) of H_i x H_j that
    are their own split and touch M.  The theorem's blocks are the case
    M empty on both sides, with N = 0.

    A block off the theorem that meets both conditions is routed when
    the family has packed keys (``_weights``) and listing its open
    products takes no more candidates than a scan takes pairs: sum
    |M|*|H_other| over its two slots at most C(|L|, 2), or |L_i|*|L_j|
    across levels, with each hull at most ``BOREL_ENTRY_CAP`` factors.
    A hull is counted on first need, never built, capped at
    ``PAIR_CAP`` (a count past it exceeds every scan); an equal level
    is its own hull.  Every other block is scanned."""
    if ch.conjunction:
        return frozenset(), []
    # level 0 is not characterized, and always equal
    unequal = {i for i, ok in zip(ch.level_indices, ch.borel_equal) if not ok}
    outside = {i for i, ok in zip(ch.level_indices, ch.borel_subset)
               if not ok}
    ends = [(lv.index, *lv._ends) for lv in fam.levels]
    opened = ((i, j, head, tail) for k, (i, head, _) in enumerate(ends)
              for j, _, tail in ends[k:]
              if i in unequal or j in unequal or not (i == j or head >= tail))
    packed = _weights(fam.n) is not None
    level = fam._by_index
    hulls = {}  # level index -> |H|, counted on first need
    scanned, routed = [], []
    for i, j, head, tail in opened:
        # the chain again, on the open blocks only: carried out of the
        # filter, it would cost every block a store
        on_hull = (packed and (i == j or head >= tail)
                   and i not in outside and j not in outside)
        if on_hull:
            for k in (i, j):
                if k not in hulls:
                    hulls[k] = (_borel_count(level[k].last.exps, PAIR_CAP)
                                if k in unequal else len(level[k]))
            a, b = level[i], level[j]
            s, t, hs, ht = len(a), len(b), hulls[i], hulls[j]
            if i == j:
                work, scan = (hs - s) * hs, s * (s - 1) // 2
            else:
                work, scan = (hs - s) * ht + (ht - t) * hs, s * t
            on_hull = (work <= scan and hs * a.degree <= BOREL_ENTRY_CAP
                       and ht * b.degree <= BOREL_ENTRY_CAP)
        (routed if on_hull else scanned).append((i, j))
    return frozenset(scanned), routed


def _settled_steps(fam: LeveledFamily, scanned) -> int:
    """The sum over the blocks (i, j) not in ``scanned`` of
    max(t_i, t_j) * (d_i + d_j + 1), t a level's tail and d its degree,
    without walking the blocks.  In the levels sorted by tail each
    block's max is its later level's tail, so the level at position k
    (from 1), with D the sum of the degrees up to and including its
    own, adds t * (D + k * (d + 1)) for its k blocks with itself and
    the levels before it; then each scanned block's own term is taken
    off.  O(L log L) for L levels, plus one term per scanned block."""
    steps = degrees = 0
    ordered = sorted((lv._ends[1], lv.degree) for lv in fam.levels)
    for k, (tail, degree) in enumerate(ordered, start=1):
        degrees += degree
        steps += tail * (degrees + k * (degree + 1))
    level = fam._by_index
    for i, j in scanned:
        a, b = level[i], level[j]
        steps -= max(a._ends[1], b._ends[1]) * (a.degree + b.degree + 1)
    return steps


def _settled_rule_count(fam: LeveledFamily, scanned, products) -> int:
    """Rules of the blocks not in ``scanned``: those the theorem settles
    and those classified from their levels' hulls, which hold
    ``products`` open products between them.  A block's rules are its
    ref pairs a <= b less the comparable ones, the pairs that are the
    canonical split of their product: |L_i|*|L_j| - |B(u_i*u_j)| + N for
    i < j and C(|L_i|+1, 2) - |B(u_i^2)| + N for i = j, N the block's
    open products, 0 on a settled block (``_routes``).  The counts are
    not capped by size, as a product's Borel set may pass ``BOREL_CAP``
    where no level does: B(x450^2) in 450 variables has 101,475
    members.  Each distinct product is counted once, memoized by its
    exponent vector; the memo starts with each counted level's size
    (``Level.borel``), which is |B(u_i)|, so a product equal to a
    level's least generator, or to another block's product, costs no
    count.  Counting B(u_i*u_j) takes at most max(tail_i, tail_j) *
    (deg_i + deg_j + 1) steps; their sum over every block counted, an
    upper bound on what the memoized counts take, is taken in closed
    form over the levels (``_settled_steps``) and refused past
    ``COUNT_STEP_CAP`` before any block is walked.  The blocks are then
    walked once, as pairs of levels, to count, and never held; each
    level's size is the one it keeps."""
    steps = _settled_steps(fam, scanned)
    if steps > COUNT_STEP_CAP:
        raise ResourceCapError(
            f"counting the settled blocks takes {steps} steps,"
            f" more than {COUNT_STEP_CAP}")
    level = fam._by_index
    # every pair of levels, filtered only when some block is scanned
    blocks = combinations_with_replacement(level, 2)
    if scanned:
        blocks = filterfalse(scanned.__contains__, blocks)
    sizes = {lv.last.exps: lv._size for lv in fam.levels if lv.borel}
    count = 0
    for i, j in blocks:
        a, b = level[i], level[j]
        s, t = a._size, b._size
        pairs = s * (s + 1) // 2 if i == j else s * t
        product = tuple(map(add, a.last.exps, b.last.exps))
        size = sizes.get(product)
        if size is None:
            size = sizes[product] = _borel_count(product)
        count += pairs - size
    return count + products


def build_certificate(fam: LeveledFamily) -> dict:
    """Certificate dict; JSON-ready.  Conclusions only when closed.

    Each block of levels takes the route ``_routes`` gives it: the
    theorem's blocks are counted, the routed ones are classified from
    their levels' hulls (``hull``, loaded only then), and the closure
    scan classifies only the pairs of the scanned ones, whose rule
    count it reads off their table.  A family with the structural
    conjunction is all the theorem's: no ref, no member, no pair and no
    set of blocks is built for it."""
    ch = characterize(fam)
    scanned, routed = _routes(fam, ch)
    products = 0
    if scanned or routed:
        known = ()
        if routed:
            from . import hull
            known, products = hull._hull_open_pairs(fam, routed)
        report = is_closed_under_comparability(
            fam, blocks=scanned, known=known)
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
            {"index": lv.index, "degree": lv.degree, "size": lv._size}
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
    shape = basis_shape(fam._table(scanned)[0].items() if scanned else ())
    if not (shape["quadratic"] and shape["squarefree_leads"]):
        # each table entry is a product of two distinct refs rewritten
        # to two refs, so a closed family always has this shape
        raise InternalInvariantError(
            "the marked basis of a closed family is not quadratic with"
            " squarefree leads")
    out["basis_size"] = shape["count"] + _settled_rule_count(
        fam, scanned, products)
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
        f" {_yn(cert['quadratic'])}, squarefree leads:"
        f" {_yn(cert['squarefree_leads'])}")
    lines.append(f"certified for the {cert['subject']}:")
    for key in cert["conclusions"]:
        lines.append(f"  {key}: {cert['citations'][key]}")
    return "\n".join(lines)
