"""Integer partitions, admissible compositions, D-partitions, group assignments.

A D-partition of a meet-semilattice E is a set partition such that any two
elements of one block see, inside every block, the same number of elements
below them.  Only those partitions can arise by restricting Green's
D-relation of an inverse semigroup to its idempotents.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

__all__ = [
    "partitions",
    "admissible_compositions",
    "block_order",
    "d_partitions",
    "is_d_partition",
    "group_maps",
]


@lru_cache(maxsize=None)
def partitions(m: int):
    """All partitions of m as weakly decreasing tuples, in descending lex order."""
    if m < 1:
        raise ValueError("m must be positive")

    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for p in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - p, p):
                yield (p,) + rest

    return tuple(rec(m, m))


def admissible_compositions(n: int, shape) -> list:
    """All positive C with sum(shape[i]^2 * C[i]) == n, ascending lex order."""
    shape = tuple(shape)
    if not shape or any(p < 1 for p in shape):
        raise ValueError("shape must be a nonempty positive tuple")
    if sum(shape) > n:
        raise ValueError("shape exceeds the target order")
    weights = [p * p for p in shape]
    k = len(weights)
    tail_min = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        tail_min[i] = tail_min[i + 1] + weights[i]
    out = []
    comp = [0] * k

    def rec(i, left):
        if i == k:
            if left == 0:
                out.append(tuple(comp))
            return
        w = weights[i]
        hi = (left - tail_min[i + 1]) // w
        for c in range(1, hi + 1):
            comp[i] = c
            rec(i + 1, left - w * c)

    rec(0, n)
    return out


def is_d_partition(E, blocks) -> bool:
    """Check the defining count condition on a set partition of E: the
    elements of a block have, inside every block, equally many elements
    below them."""
    masks = [sum(1 << x for x in X) for X in blocks]

    def profile(e):
        d = E.down[e]
        return [(d & mask).bit_count() for mask in masks]

    for X in blocks:
        if len(X) > 1:  # a singleton block meets the condition by definition
            first = profile(X[0])
            if any(profile(e) != first for e in X[1:]):
                return False
    return True


def block_order(block):
    """Sort key of the block order: size descending, then least element."""
    return -len(block), block[0]


def d_partitions(E, shape) -> list:
    """All D-partitions of E with the given block-size shape, as ordered tuples.

    Blocks are sorted by `block_order`; each set partition appears exactly
    once.  Elements are assigned in ascending order;
    a new block may be opened once per distinct remaining size, which is what
    makes equal-size blocks come out with increasing minima.
    """
    shape = tuple(shape)
    if sum(shape) != E.size:
        raise ValueError("shape must sum to the order of E")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError("shape must be weakly decreasing")
    dsize = [d.bit_count() for d in E.down]
    remaining = {}
    for p in shape:
        remaining[p] = remaining.get(p, 0) + 1
    open_blocks = []  # (size, members list)
    out = []

    def rec(e):
        if e == E.size:
            blocks = tuple(sorted((tuple(mem) for _, mem in open_blocks),
                                  key=block_order))
            if is_d_partition(E, blocks):
                out.append(blocks)
            return
        # join an open block with spare room
        for size, members in open_blocks:
            if len(members) < size and dsize[members[0]] == dsize[e]:
                members.append(e)
                rec(e + 1)
                members.pop()
        # or open one new block per distinct remaining size
        for size in sorted(remaining, reverse=True):
            if remaining[size] == 0:
                continue
            remaining[size] -= 1
            open_blocks.append((size, [e]))
            rec(e + 1)
            open_blocks.pop()
            remaining[size] += 1

    rec(0)
    return out


def group_maps(P, C, group_catalog) -> list:
    """All per-block group assignments with |f(X_i)| = C_i, as tuples of groups."""
    if len(P) != len(C):
        raise ValueError("partition and composition must have equal length")
    return list(itertools.product(
        *([G for G in group_catalog if G.order == c] for c in C)
    ))
