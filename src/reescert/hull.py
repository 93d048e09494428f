"""Open pairs of the blocks of levels ``certify._routes`` routes, listed
from the members their levels miss of their Borel hulls.

A routed block's levels lie inside their hulls H = B(u), u the least
generator, and the paper's theorem settles the hull block, so its open
pairs follow from the missing members M = H less L alone, with no
rewrite; ``certify._routes`` states the rule and its proof.
``certify`` loads this module only for a certificate with a routed
block.
"""

from __future__ import annotations

from operator import itemgetter, le

from .family import LeveledFamily, _starts, _weights
from .monomials import _borel_factors


def _ordered(c, d) -> bool:
    """(c, d), c of the lower level, is its own ``ord_factors`` split:
    no factor of d is after a factor of c."""
    return d[-1] <= c[0]


def _sorted(c, d) -> bool:
    """(c, d) is its own ``sort_factors`` split: the factors interleave,
    c_1 <= d_1 <= c_2 <= d_2 <= ..."""
    return all(map(le, c, d)) and all(map(le, d, c[1:]))


def _hull_open_pairs(fam: LeveledFamily, blocks) -> tuple[list, int]:
    """The open pairs of ``blocks`` (``certify._routes``' routed ones),
    in lexicographic order, each as (pair, image factorizations, image
    refs), a ref None where its image is missing, and the blocks' open
    products, N.

    A pair of a routed block is open exactly when the canonical split
    (c, d) of its product inside H_i x H_j touches a missing member
    (``certify._routes``).  Each product has one split, so the open
    products are the pairs (c, d) of H_i x H_j that are their own split
    (``_ordered`` in a cross block, ``_sorted`` on the diagonal) and
    touch a missing member: a missing c against every member d, then a
    missing d against every member c that is not missing.  No rewrite
    is called.
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
