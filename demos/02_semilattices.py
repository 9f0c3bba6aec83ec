#!/usr/bin/env python3
"""Generating meet-semilattices up to isomorphism.

The generator extends smaller semilattices by one new maximal element and
keeps one canonical representative per isomorphism class.  Every emitted
structure is labeled by a linear extension with the minimum at 0, which is
also the on-disk format: `m:u1<v1,u2<v2,...` lists the cover relations.
"""

from isgenum import (
    down_levels,
    format_cover_line,
    meet_semilattices,
    up_down_levels,
)

print("counts per order (semilattices // those with a maximum):")
for m in range(1, 9):
    all_of_m = list(meet_semilattices(m))
    lats = sum(1 for E in all_of_m if E.has_maximum())
    print(f"  m={m}: {len(all_of_m)} // {lats}")

print("\nthe five semilattices of order 4, as cover lines:")
for E in meet_semilattices(4):
    tag = "lattice" if E.has_maximum() else "       "
    print(f"  {format_cover_line(E):<24} {tag}")

# Levels drive both the search ordering and the isomorphism invariants.
print("\nlevel structure of each order-5 semilattice:")
for E in meet_semilattices(5):
    print(
        f"  {format_cover_line(E):<28} down-levels {down_levels(E)}"
        f"  up-down {up_down_levels(E)}"
    )
