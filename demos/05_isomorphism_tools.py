#!/usr/bin/env python3
"""How duplicate structures get rejected: invariants, then testing.

Generation visits isomorphic semigroups more than once, but only within
one skeleton (semilattice, D-partition, group map): the engine searches
one skeleton per orbit of the semilattice's automorphisms and keeps one
store per skeleton.  Inside a store, a cheap invariant key, the sorted
(|down s|, |down s & E|, |up s|) of the natural order over the
non-idempotents s, buckets candidates first; only same-key candidates
are compared, by the automorphisms of their shared semilattice that map
each D-block onto a block over the same group, each extended by the
groupoid isomorphisms of the D-blocks (one group automorphism and a shift
per idempotent of a block) and checked against the natural orders.
"""

from collections import Counter

from isgenum import (
    automorphisms,
    brute_force_isomorphic,
    catalog,
    e_groupoid,
    enumerate_semigroups,
    esn,
    g_posets,
    invariants,
    is_isoc,
    parse_cover_line,
)

by_name = {G.name: G for G in catalog(15)}

# Two same-key semigroups of order 7 that are NOT isomorphic: over the
# semilattice 4:0<1,0<2,2<3 with C2 at 0, 1 and 2, the second order puts the
# non-identity at 0 below the one at 1, the third below the one at 2.
E = parse_cover_line("4:0<1,0<2,2<3")
basis = e_groupoid(E, ((0,), (1,), (2,), (3,)),
                   tuple(by_name[t] for t in ("C2", "C2", "C2", "C1")))
a, b = [esn(basis, o) for o in g_posets(basis)][1:3]
print("invariant keys:")
print("  first: ", invariants(a))
print("  second:", invariants(b))
print("equal keys:", invariants(a) == invariants(b))
print("is_isoc:", is_isoc(a, b), "| brute force:", brute_force_isomorphic(a, b))

# is_isoc tries the automorphisms of E; here 2 lies below 3 and 1 does
# not, so the identity is the only one.
print("\nE automorphisms:", list(automorphisms(E)))

# How well does the key separate the order-7 classes of one skeleton?
buckets = Counter()
for S in enumerate_semigroups(7):
    skeleton = (S.E.down, S.d_restriction, tuple(G.name for G in S.groups))
    buckets[(skeleton, invariants(S))] += 1
sizes = Counter(buckets.values())
print("\nbucket sizes over all order-7 semigroups, per skeleton "
      "(size: how many buckets):")
for size in sorted(sizes):
    print(f"  {size}: {sizes[size]}")
