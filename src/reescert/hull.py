"""Open blocks of levels classified from their levels' Borel hulls.

``certify`` settles a block of two levels by the paper's theorem when
both are the Borel set of their least generator.  A listed level L that
lies inside its hull H = B(u), u its least generator, misses the
members M = H less L.  Merging factors is monotone: if a <= g and
b <= h componentwise, the sorted merge of a and b lies below that of g
and h, and both rewrites read fixed positions of it.  So when the
theorem settles the hull block (H_i, H_j), every pair of L_i x L_j
rewrites to the canonical split of its product inside H_i x H_j, and
is open exactly when that split touches a member of M, which its
witness names.  ``_hull_blocks`` picks the open blocks to classify that
way, from level sizes and Borel counts alone, and ``_hull_open_pairs``
lists their open pairs from M, with no rewrite, for the closure report
to merge with the scan's.  ``certify`` loads this module on a
certificate's first block that may take the route.
"""

from __future__ import annotations

from operator import itemgetter, le

from .family import PAIR_CAP, LeveledFamily, _starts, _weights
from .monomials import BOREL_ENTRY_CAP, _borel_count, _borel_factors


def _hull_blocks(fam: LeveledFamily, ch, open_blocks) -> list:
    """The open blocks a certificate classifies from the missing members
    of their levels' Borel hulls, H = B(u), u the least generator, and
    not pair by pair.  A block qualifies when both levels lie inside
    their hulls and the paper's theorem settles the hull block (i = j,
    i = 0, or head(u_i) >= tail(u_j)), and is taken when the candidate
    products, sum |M|*|H_other| over its two slots with M = H less the
    level, number at most the pairs a scan classifies, C(|L|, 2) or
    |L_i|*|L_j|.  Hulls are counted, never built, capped at
    ``PAIR_CAP``: a count past it exceeds every scan.  A hull of more
    than ``BOREL_ENTRY_CAP`` factors, or a family too wide for packed
    keys, keeps the scan."""
    if _weights(fam.n) is None:
        return []
    inside = dict(zip(ch.level_indices, ch.borel_subset))
    hulls = {}  # level index -> |H|, counted on first need
    out = []
    for i, j in open_blocks:
        a, b = fam._by_index[i], fam._by_index[j]
        if not (inside.get(i, True) and inside.get(j, True)
                and (i == j or i == 0 or a._ends[0] >= b._ends[1])):
            continue
        for lv in (a, b):
            if lv.index not in hulls:
                hulls[lv.index] = len(lv) if lv.borel else _borel_count(
                    lv.last.exps, PAIR_CAP)
        s, t, hs, ht = len(a), len(b), hulls[i], hulls[j]
        if i == j:
            work, scan = (hs - s) * hs, s * (s - 1) // 2
        else:
            work, scan = (hs - s) * ht + (ht - t) * hs, s * t
        if (work <= scan and hs * a.degree <= BOREL_ENTRY_CAP
                and ht * b.degree <= BOREL_ENTRY_CAP):
            out.append((i, j))
    return out


def _ordered(c, d) -> bool:
    """(c, d), c of the lower level, is its own ``ord_factors`` split:
    no factor of d is after a factor of c."""
    return d[-1] <= c[0]


def _sorted(c, d) -> bool:
    """(c, d) is its own ``sort_factors`` split: the factors interleave,
    c_1 <= d_1 <= c_2 <= d_2 <= ..."""
    return all(map(le, c, d)) and all(map(le, d, c[1:]))


def _hull_open_pairs(fam: LeveledFamily, blocks) -> tuple[list, int]:
    """The open pairs of ``blocks`` (``_hull_blocks``), in lexicographic
    order, each as (pair, image factorizations, image refs), a ref None
    where its image is missing, and the blocks' open products, N.

    The theorem closes the hull block, so a pair (a, b) of the block
    rewrites to the canonical split (c, d) of its product inside
    H_i x H_j, and it is open exactly when c or d is a missing member.
    Each product has one split, so the open products are the pairs
    (c, d) of H_i x H_j that are their own split (``_ordered`` in a
    cross block, ``_sorted`` on the diagonal) and touch a missing
    member: a missing c against every member d, then a missing d
    against every member c that is not missing.  No rewrite is called.
    The pairs of an open product P are found by packed-key lookups,
    b = P/a for each a of the smaller level, and all of them are open,
    with P's split as their images."""
    weight = _weights(fam.n)
    refs = fam.refs()
    start = _starts(fam)
    # per level: (its refs by packed key, its hull's members as
    # (factorization, key), each member's ref, None when missing, and
    # the missing members), made on first need
    views = {}
    found, products = [], 0
    for i, j in blocks:
        for k in (i, j):
            if k not in views:
                lv = fam._by_index[k]
                own = zip(lv.factors, refs[start[k]:start[k] + len(lv)])
                if lv.borel:  # the level is its hull
                    ref = dict(own)
                else:
                    ref = dict.fromkeys(_borel_factors(lv.last))
                    ref.update(own)
                keys, hull, missing = {}, [], []
                for f, r in ref.items():
                    key = sum(map(weight.__getitem__, f))
                    hull.append((f, key))
                    if r is None:
                        missing.append((f, key))
                    else:
                        keys[key] = r
                views[k] = keys, hull, ref, missing
        keys_i, hull_i, ref_i, missing_i = views[i]
        keys_j, hull_j, ref_j, missing_j = views[j]
        fixed = _sorted if i == j else _ordered
        opened = [(kc + kd, (c, d), (None, ref_j[d]))
                  for c, kc in missing_i for d, kd in hull_j if fixed(c, d)]
        opened += [(kc + kd, (c, d), (ref_i[c], None))
                   for d, kd in missing_j for c, kc in hull_i
                   if ref_i[c] is not None and fixed(c, d)]
        products += len(opened)
        # a diagonal pair once
        few, many = sorted((keys_i, keys_j), key=len)
        for key, dealt, trail in opened:
            for ka, a in few.items():
                b = many.get(key - ka)
                if b is not None and (i != j or a < b):
                    found.append(((min(a, b), max(a, b)), dealt, trail))
    found.sort(key=itemgetter(0))
    return found, products
