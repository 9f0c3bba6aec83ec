#!/usr/bin/env python3
"""Generating meet-semilattices up to isomorphism.

The generator extends smaller semilattices by one new maximal element and
keeps one canonical representative per isomorphism class.  Every emitted
structure is labeled by a linear extension with the minimum at 0, which is
also the on-disk format: `m:u1<v1,u2<v2,...` lists the cover relations.
"""

from isgenum import down_levels, format_cover_line, meet_semilattices

print("counts per order (semilattices // those with a maximum):")
for m in range(1, 9):
    all_of_m = list(meet_semilattices(m))
    lats = sum(1 for E in all_of_m if E.has_maximum())
    print(f"  m={m}: {len(all_of_m)} // {lats}")

print("\nthe five semilattices of order 4, as cover lines:")
for E in meet_semilattices(4):
    tag = "lattice" if E.has_maximum() else "       "
    print(f"  {format_cover_line(E):<24} {tag}")

# Down-levels of E order the block search; down_levels takes the down-set
# masks, so it works on any poset.
print("\ndown-levels of each order-5 semilattice:")
for E in meet_semilattices(5):
    print(f"  {format_cover_line(E):<28} {down_levels(E.down)}")
