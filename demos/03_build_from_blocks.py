#!/usr/bin/env python3
"""Build inverse semigroups from their structural data, step by step.

Data in: a meet-semilattice E, a D-partition of it, and a group per block.
The machinery puts every usable partial order on the block basis and turns
each one into a Cayley table.  The walk below builds the five-element
combinatorial inverse semigroup of 2x2 matrix units with zero.
"""

from isgenum import (
    catalog,
    d_partitions,
    e_groupoid,
    esn,
    g_posets,
    parse_cover_line,
    validate_inverse_semigroup,
)

by_name = {G.name: G for G in catalog(15)}

# idempotents: two atoms above a zero
E = parse_cover_line("3:0<1,0<2")

# the only non-trivial D-partition groups the atoms together
P = d_partitions(E, (2, 1))[0]
print("D-partition of shape (2,1):", P)

basis = e_groupoid(E, P, (by_name["C1"], by_name["C1"]))
print("basis:", basis)
print("search order of blocks:", [P[i] for i in basis.pos_blocks])
for s, t in enumerate(basis.elem):
    print(f"  element {s}: block={t[0]} row={t[1]} col={t[2]} g={t[3]}")

orders = list(g_posets(basis))
print(f"\nvalid orders on the basis: {len(orders)}")

S = esn(basis, orders[0])
print("Cayley table:")
for row in S.table:
    print("   ", " ".join(str(v) for v in row))
print("valid inverse semigroup:", validate_inverse_semigroup(S.table))
print("commutative:", S.is_commutative(), "| monoid:", S.is_monoid())
print("D-restriction and groups:", S.d_restriction,
      [G.name for G in S.groups])

# Swapping the bottom group for C2 doubles the element count and splits the
# search into two order choices, giving two non-isomorphic semigroups.
basis2 = e_groupoid(E, P, (by_name["C1"], by_name["C2"]))
pair = [esn(basis2, o) for o in g_posets(basis2)]
print(f"\nwith a C2 bottom block: {len(pair)} semigroups of order "
      f"{pair[0].size}")
