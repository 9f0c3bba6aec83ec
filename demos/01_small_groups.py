#!/usr/bin/env python3
"""Tour of the small-group catalog.

Every maximal subgroup that can appear in an inverse semigroup of order
<= 15 comes from this catalog: one explicit multiplication table per
isomorphism class, element 0 always the identity.
"""

import math

from isgenum import catalog

cat = catalog(15)

print("groups of order <= 15, one per isomorphism class:")
for o in range(1, 16):
    names = [G.name for G in cat if G.order == o]
    print(f"  order {o:>2}: {', '.join(names)}")

# The Klein four-group has the richest symmetry among the order-4 groups:
# any permutation of its three involutions is an automorphism.
by_name = {G.name: G for G in cat}
klein = by_name["C2xC2"]
print(f"\n{klein.name} multiplication table:")
for row in klein.mul:
    print("   ", " ".join(str(v) for v in row))
auts = klein.automorphism_images()
print(f"automorphisms of {klein.name}: {len(auts)}")
for a in auts:
    print("   ", a)

# Plain set bijections are a different, much larger pool; the isomorphism
# search uses them for the off-diagonal cells of a D-class.
c3 = by_name["C3"]
print(f"\nall bijections C3 -> C3: {math.factorial(c3.order)}")
print(f"of those, automorphisms: {len(c3.automorphism_images())}")
