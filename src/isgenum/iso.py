"""Isomorphism machinery: invariant keys and pairwise isomorphism testing.
The keep-if-new filter that combines them, bucketing by `invariants` and
testing with `is_isoc` inside a bucket, is `engine._keep_new`, which keeps
one store per skeleton: the key only has to separate candidates of one
(E, D-partition, group map), so it is the level sizes of the natural order.

Two semigroups produced over the same semilattice E are compared on E
itself: `colored_isomorphisms` lists the automorphisms of E that carry one
coloring of the idempotents to the other, the basis's `colors` (per
idempotent, the size of its D-class and the name of its maximal subgroup),
and each match is then extended cell by cell over the D-blocks and checked
for the homomorphism property.
"""

from __future__ import annotations

import itertools

from .esn import InverseSemigroup, _as_table
from .orders import colored_isomorphisms, down_levels

__all__ = [
    "invariants",
    "is_isoc",
    "brute_force_isomorphic",
]


def invariants(S: InverseSemigroup):
    """Isomorphism-invariant key: the level sizes of the natural order."""
    return tuple(len(L) for L in down_levels(S.order_down))


def _is_homomorphism(tab_s, tab_t, dmap):
    n = len(tab_s)
    for x in range(n):
        rowx = tab_s[x]
        trow = tab_t[dmap[x]]
        for y in range(n):
            if dmap[rowx[y]] != trow[dmap[y]]:
                return False
    return True


def is_isoc(S: InverseSemigroup, T: InverseSemigroup) -> bool:
    """Decide S isomorphic to T for semigroups sharing the same E labels."""
    if S is T:
        return True
    if S.E.down != T.E.down:
        raise ValueError("is_isoc requires identical idempotent semilattices")
    if S.size != T.size:
        return False
    tab_s, tab_t = S.table, T.table
    t_index, t_block = T.index, T.label_block
    for p in colored_isomorphisms(S.E, S.colors, T.colors):
        # p carries each D-block onto one of T's: colors fix the block sizes
        pb = []
        for i, X in enumerate(S.d_restriction):
            j = t_block[p[X[0]]]
            if T.groups[j] is not S.groups[i] or any(
                t_block[p[x]] != j for x in X
            ):
                break
            pb.append(j)
        if len(pb) < len(S.d_restriction):
            continue
        cells = []
        layout = []
        for i, X in enumerate(S.d_restriction):
            G = S.groups[i]
            for j in X:
                for k in X:
                    layout.append((i, j, k, G.order))
                    cells.append(
                        G.automorphism_images() if j == k
                        else itertools.permutations(range(G.order))
                    )
        s_index = S.index
        for assignment in itertools.product(*cells):
            dmap = [0] * S.size
            for (i, j, k, g_order), cm in zip(layout, assignment):
                tb = pb[i]
                pj, pk = p[j], p[k]
                for g in range(g_order):
                    dmap[s_index[(i, j, k, g)]] = t_index[(tb, pj, pk, cm[g])]
            if _is_homomorphism(tab_s, tab_t, dmap):
                return True
    return False


# ---------------------------------------------------------------------------
# brute-force oracle


def _element_profile(table):
    n = len(table)
    prof = []
    for x in range(n):
        row = table[x]
        col = [table[y][x] for y in range(n)]
        prof.append((
            row[x] == x,
            len(set(row)),
            len(set(col)),
            sum(row[y] == col[y] for y in range(n)),
        ))
    return prof


def brute_force_isomorphic(S, T) -> bool:
    """Exhaustive bijection search preserving multiplication; |S| <= 7 only."""
    ts, tt = _as_table(S), _as_table(T)
    n = len(ts)
    if n != len(tt):
        return False
    if n > 7:
        raise ValueError("brute-force oracle limited to order <= 7")
    ps, pt = _element_profile(ts), _element_profile(tt)
    if sorted(ps) != sorted(pt):
        return False
    cands = [
        [y for y in range(n) if pt[y] == ps[x]] for x in range(n)
    ]
    img = [-1] * n
    used = [False] * n

    def assign(x, y, trail):
        """Set img[x] = y and propagate forced products; False on conflict."""
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            if img[a] != -1:
                if img[a] != b:
                    return False
                continue
            if used[b] or pt[b] != ps[a]:
                return False
            img[a] = b
            used[b] = True
            trail.append((a, b))
            for c in range(n):
                if img[c] == -1:
                    continue
                stack.append((ts[a][c], tt[b][img[c]]))
                stack.append((ts[c][a], tt[img[c]][b]))
            stack.append((ts[a][a], tt[b][b]))
        return True

    def undo(trail, mark):
        while len(trail) > mark:
            a, b = trail.pop()
            img[a] = -1
            used[b] = False

    def rec(x, trail):
        while x < n and img[x] != -1:
            x += 1
        if x == n:
            return True
        for y in cands[x]:
            if used[y]:
                continue
            mark = len(trail)
            if assign(x, y, trail) and rec(x + 1, trail):
                return True
            undo(trail, mark)
        return False

    return rec(0, [])
