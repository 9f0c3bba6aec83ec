"""Isomorphism machinery: invariant keys, colored idempotent posets and
pairwise isomorphism testing.  The keep-if-new filter that combines them,
bucketing by `invariants` and testing with `is_isoc` inside a bucket, is
`engine._keep_new`.

Two semigroups produced over the same semilattice are compared by first
matching their idempotent posets through color-preserving automorphisms
(colors combine the maximal subgroup and the idempotent count of the
D-class), then extending each match cell by cell over the D-blocks and
checking the homomorphism property.
"""

from __future__ import annotations

import itertools

from .esn import InverseSemigroup
from .orders import ColoredPoset, Poset, colored_isomorphisms, down_levels

__all__ = [
    "lonely_idempotents",
    "invariants",
    "e_coloring",
    "is_isoc",
    "brute_force_isomorphic",
]

_BIJECTIONS_CACHE: dict = {}


def _all_bijection_tuples(k: int):
    cached = _BIJECTIONS_CACHE.get(k)
    if cached is None:
        cached = tuple(itertools.permutations(range(k)))
        _BIJECTIONS_CACHE[k] = cached
    return cached


def lonely_idempotents(S: InverseSemigroup):
    """Idempotents with trivial maximal subgroup and singleton D-class that
    cover the minimum of E and are covered by nothing, in index order."""
    if S._lonely is None:
        E = S.E
        cover_of_min = {hi for lo, hi in E.covers if lo == 0}
        out = []
        for e in range(E.size):
            if (
                S.d_class_size(e) == 1
                and S.group_at(e).order == 1
                and e in cover_of_min
                and E.up[e] == 1 << e
            ):
                out.append(e)
        S._lonely = tuple(out)
    return list(S._lonely)


def invariants(S: InverseSemigroup):
    """Isomorphism-invariant key: level sizes of the natural order plus, per
    up-down level of E, the multiset of (D-class idempotent count, group)."""
    if S._invariants is None:
        lev = tuple(len(L) for L in down_levels(Poset(S.order_down)))
        xmap = tuple(
            (L[0], tuple(sorted(
                (S.d_class_size(e), S.group_at(e).name) for e in L
            )))
            for L in S.E.up_down_levels()
        )
        S._invariants = (lev, xmap)
    return S._invariants


def e_coloring(S: InverseSemigroup) -> ColoredPoset:
    """E with idempotents colored by (group, D-class size); the interchangeable
    idempotents found by lonely_idempotents get distinguished rank colors."""
    lonely = lonely_idempotents(S)
    rank = {e: i + 1 for i, e in enumerate(lonely)}
    colors = []
    for e in range(S.E.size):
        if e in rank:
            colors.append(("lone", rank[e]))
        else:
            colors.append(("grp", S.group_at(e).name, S.d_class_size(e)))
    return ColoredPoset(Poset(S.E.down), tuple(colors))


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
    t_block_of = {frozenset(X): i for i, X in enumerate(T.d_restriction)}
    tab_s, tab_t = S.table, T.table
    t_index = T.index
    for p in colored_isomorphisms(e_coloring(S), e_coloring(T)):
        pb = []
        for i, X in enumerate(S.d_restriction):
            j = t_block_of.get(frozenset(p[x] for x in X))
            if j is None or T.groups[j] is not S.groups[i]:
                pb = None
                break
            pb.append(j)
        if pb is None:
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
                        else _all_bijection_tuples(G.order)
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


def _table_of(S):
    if isinstance(S, InverseSemigroup):
        return S.table
    return tuple(tuple(row) for row in S)


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
    ts, tt = _table_of(S), _table_of(T)
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
