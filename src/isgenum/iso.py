"""Isomorphism machinery: invariant keys and pairwise isomorphism testing.
The keep-if-new filter that combines them is `engine._keep_new`: it keeps
one store per skeleton, so the key that buckets a store, `invariants`, need
only tell apart orders on one basis.  It is the order profile of the
non-idempotents, read off the down-set masks alone, and `is_isoc` runs in a
bucket.

`is_isoc` compares two semigroups over the same E as inductive groupoids
(ESN): an isomorphism restricts to an automorphism of E that maps each
D-block onto a block with the same group, maps each D-block by a groupoid
isomorphism and preserves the natural order.  It reads no Cayley table.
"""

from __future__ import annotations

import itertools

from .esn import InverseSemigroup, _as_table
from .gposets import _block_cells
from .orders import _bits, automorphisms

__all__ = [
    "invariants",
    "is_isoc",
    "brute_force_isomorphic",
]


def invariants(S: InverseSemigroup):
    """Isomorphism-invariant key: the sorted triples (|down s|,
    |down s & E|, |up s|) over the non-idempotents s.

    An isomorphism keeps the natural order and the idempotents, and nothing
    below an idempotent is a non-idempotent, so up s counts only the
    non-idempotents above s.  The key reads no label of E.
    """
    m, down = S.E.size, S.order_down
    moving = down[m:]
    up = [0] * len(down)  # up[t]: the non-idempotents above t, t included
    for d in moving:
        while d >> m:
            t = d.bit_length() - 1
            up[t] += 1
            d ^= 1 << t
    low = (1 << m) - 1
    return tuple(sorted([(d.bit_count(), (d & low).bit_count(), u)
                         for d, u in zip(moving, up[m:])]))


def is_isoc(S: InverseSemigroup, T: InverseSemigroup) -> bool:
    """Decide S isomorphic to T for semigroups sharing the same E labels.

    An isomorphism restricts to an automorphism p of E that maps each block
    i of S onto a block pb[i] of T with the same group (compared by its
    table, as the caches in `gposets` compare groups), and to a groupoid
    isomorphism over p: (i, x, y, g) -> (pb[i], p[x], p[y], g') with g'
    from `_block_cells`.  Such a map is an isomorphism iff it carries the
    natural order of S onto that of T.  The search over Aut(E) takes each
    point only to one whose block has the same size and group table.
    """
    if S is T:
        return True
    if S.E.down != T.E.down:
        raise ValueError("is_isoc requires identical idempotent semilattices")
    if S.size != T.size:
        return False
    m = S.E.size
    moving = S.elem[m:]
    t_index, t_block, t_down = T.index, T.label_block, T.order_down
    maps = None

    def colors(A):  # per point of E: its block's size and group table
        return [(len(A.d_restriction[i]), A.groups[i].mul)
                for i in A.label_block[:m]]

    for p in automorphisms(S.E, (colors(S), colors(T))):
        # p maps each point into a block of T of its own block's size and
        # group, so it maps each block X of S onto the block pb[i] of T
        # that takes X's first point iff it takes all of X there
        pb = [t_block[p[X[0]]] for X in S.d_restriction]
        if any(t_block[p[x]] != j
               for X, j in zip(S.d_restriction, pb) for x in X):
            continue
        if maps is None:
            # p keeps the order of E; a non-idempotent's down-set has one
            # element per idempotent below its domain, as its image's has,
            # so the down-sets match once each one maps into its image's
            below = [(s, t) for s in range(m, S.size)
                     for t in _bits(S.order_down[s]) if t != s]
            # the blocks store their non-idempotents one after the other
            maps = [sum(c, ()) for c in itertools.product(*(
                _block_cells(len(X), G)[3]
                for X, G in zip(S.d_restriction, S.groups)))]
        for parts in maps:
            dmap = list(p) + [t_index[(pb[i], p[x], p[y], g)]
                              for (i, x, y, _), g in zip(moving, parts)]
            if all(t_down[dmap[s]] >> dmap[t] & 1 for s, t in below):
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
