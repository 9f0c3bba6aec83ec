#!/usr/bin/env python3
"""How duplicate structures get rejected: invariants, colors, and testing.

Generation visits isomorphic semigroups more than once.  A cheap invariant
key buckets candidates first; only same-key candidates are compared, by
matching their idempotent posets through color-preserving automorphisms
and extending the match cell by cell over the D-blocks.
"""

from collections import Counter

from isgenum import (
    brute_force_isomorphic,
    catalog,
    e_coloring,
    e_groupoid,
    enumerate_semigroups,
    esn,
    g_posets,
    invariants,
    is_isoc,
    parse_cover_line,
)

by_name = {G.name: G for G in catalog(15)}

# Two same-key semigroups of order 6 that are NOT isomorphic: over a
# three-element chain with C2 at every idempotent the search finds four
# orders, and the second and third semigroups share their invariant key.
E = parse_cover_line("3:0<1,1<2")
basis = e_groupoid(E, ((0,), (1,), (2,)), (by_name["C2"],) * 3)
a, b = [esn(basis, o) for o in g_posets(basis)][1:3]
print("invariant keys:")
print("  first: ", invariants(a))
print("  second:", invariants(b))
print("equal keys:", invariants(a) == invariants(b))
print("is_isoc:", is_isoc(a, b), "| brute force:", brute_force_isomorphic(a, b))

print("\nidempotent coloring of the first one:", e_coloring(a).colors)

# How well do the invariants separate order-7 semigroups?
buckets = Counter()
for S in enumerate_semigroups(7):
    buckets[(S.E.down, invariants(S))] += 1
sizes = Counter(buckets.values())
print("\nbucket sizes over all order-7 semigroups (size: how many buckets):")
for size in sorted(sizes):
    print(f"  {size}: {sizes[size]}")
