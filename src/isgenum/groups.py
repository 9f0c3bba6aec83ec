"""Small finite groups given by explicit multiplication tables.

The catalog covers every group of order <= 15 up to isomorphism: abelian
groups are assembled from invariant-factor decompositions, the non-abelian
ones from dihedral, dicyclic and alternating constructions.  Every catalog
group comes from one table builder, `_group`, which numbers a list of
elements in order and fills the table from their operation.  Element 0 is
always the identity, so tables can be composed and compared positionally.

A `Group` computes its element orders, its greedy generators and a spanning
tree of (parent, generator) steps at construction.  `Group.homomorphisms`
extends generator images along that tree; it finds the automorphisms here
and the homomorphisms into the wreath groups of the block-order search.
"""

from __future__ import annotations

import itertools
import operator

__all__ = [
    "MAX_CATALOG_ORDER",
    "Group",
    "catalog",
    "is_isomorphic",
]

MAX_CATALOG_ORDER = 15


class Group:
    """Group on {0, ..., order-1} with identity 0, as an immutable Cayley table."""

    __slots__ = ("order", "mul", "inv", "name", "abelian", "_orders", "_gens",
                 "_walk")

    def __init__(self, mul, name: str):
        order = len(mul)
        mul = tuple(tuple(row) for row in mul)
        if any(len(row) != order for row in mul):
            raise ValueError("multiplication table must be square")
        if any(mul[0][x] != x or mul[x][0] != x for x in range(order)):
            raise ValueError("element 0 must be the identity")
        inv = tuple(
            next((y for y in range(order) if mul[x][y] == 0 == mul[y][x]), -1)
            for x in range(order)
        )
        if -1 in inv:
            raise ValueError("not a group: some element has no inverse")
        orders = []
        for y in range(order):
            k, z = 1, y
            while z != 0 and k <= order:
                z = mul[z][y]
                k += 1
            orders.append(k)
        if max(orders) > order:
            raise ValueError("not a group: some power never reaches 0")
        # row a is x's: (x * y) * z against x * (y * z)
        if any(mul[a[y]][z] != a[mul[y][z]]
               for a in mul for y in range(order) for z in range(order)):
            raise ValueError("not a group: the table is not associative")
        # greedy generators: each the least element outside the subgroup of
        # the ones before it.  The walk lists (x, parent, k) with
        # x = parent * gens[k], every element but 0 once, parents first.
        gens, walk, seen = [], [], [0]
        for g in range(1, order):
            if g in seen:
                continue
            gens.append(g)
            for parent in seen:  # grows as it is read
                for k, h in enumerate(gens):
                    x = mul[parent][h]
                    if x not in seen:
                        seen.append(x)
                        walk.append((x, parent, k))
        self.order = order
        self.mul = mul
        self.inv = inv
        self.name = name
        self.abelian = mul == tuple(zip(*mul))
        self._orders = tuple(orders)
        self._gens = tuple(gens)
        self._walk = tuple(walk)

    def __repr__(self):
        return f"Group({self.name})"

    def __len__(self):
        return self.order

    def element_order(self, x: int) -> int:
        return self._orders[x]

    def generating_set(self) -> tuple:
        """Greedy small generating set; empty for the trivial group."""
        return self._gens

    def homomorphisms(self, candidates, target_mul):
        """Yield every homomorphism into `target_mul` that maps the i-th
        generator into candidates[i], as an image tuple, in the product
        order of the candidate lists.

        `target_mul` is any square table whose element 0 is the identity.
        """
        mul, walk, n = self.mul, self._walk, self.order
        for gen_images in itertools.product(*candidates):
            img = [0] * n
            for x, parent, k in walk:
                img[x] = target_mul[img[parent]][gen_images[k]]
            for x in range(n):
                row, mx = target_mul[img[x]], mul[x]
                if any(img[mx[y]] != row[img[y]] for y in range(n)):
                    break
            else:
                yield tuple(img)

    def automorphism_images(self) -> tuple:
        """All automorphisms as image tuples."""
        return tuple(_isomorphisms(self, self))


def _isomorphisms(G: Group, H: Group):
    """Yield every isomorphism G -> H as an image tuple, trying generator
    images of matching element order in ascending order."""
    n = G.order
    if H.order != n or sorted(G._orders) != sorted(H._orders):
        return
    cands = [[y for y in range(n) if H._orders[y] == G._orders[g]]
             for g in G._gens]
    for img in G.homomorphisms(cands, H.mul):
        if len(set(img)) == n:
            yield img


def is_isomorphic(G: Group, H: Group) -> bool:
    return next(_isomorphisms(G, H), None) is not None


# ---------------------------------------------------------------------------
# constructions


def _group(elements, op, name: str) -> Group:
    """The group on `elements` (identity first) under `op`, numbered in
    list order."""
    index = {e: i for i, e in enumerate(elements)}
    return Group([[index[op(a, b)] for b in elements] for a in elements], name)


def _abelian(factors) -> Group:
    # tuples of residues, the first factor the most significant digit
    elements = list(itertools.product(*(range(d) for d in factors)))
    return _group(
        elements,
        lambda a, b: tuple(map(operator.mod, map(operator.add, a, b), factors)),
        "x".join(f"C{d}" for d in factors),
    )


def _metacyclic(k: int, twist: int, name: str) -> Group:
    # order 2k: (i, r) = a^i * b^r with b*a = a^-1*b and b^2 = a^twist,
    # index i + k*r; twist 0 gives the dihedral groups, k/2 the dicyclic
    def op(x, y):
        (i1, r1), (i2, r2) = x, y
        return ((i1 - i2 + twist * r2 if r1 else i1 + i2) % k, r1 ^ r2)

    return _group([(i, r) for r in range(2) for i in range(k)], op, name)


def _alternating4() -> Group:
    perms = sorted(
        p for p in itertools.permutations(range(4))
        if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
    )
    return _group(perms, lambda p, q: tuple(p[i] for i in q), "A4")


def _invariant_factor_lists(o: int):
    # weakly decreasing chains d1, d2, ... with d_{i+1} | d_i and product o
    res = []

    def rec(m, prev, acc):
        if m == 1:
            res.append(tuple(acc))
            return
        for d in range(min(m, prev), 1, -1):
            if m % d == 0 and prev % d == 0:
                acc.append(d)
                rec(m // d, d, acc)
                acc.pop()

    rec(o, o, [])
    return res


_NONABELIAN_BUILDERS = {
    6: (lambda: _metacyclic(3, 0, "S3"),),
    8: (lambda: _metacyclic(4, 0, "D4"), lambda: _metacyclic(4, 2, "Q8")),
    10: (lambda: _metacyclic(5, 0, "D5"),),
    12: (lambda: _metacyclic(6, 0, "D6"), _alternating4,
         lambda: _metacyclic(6, 3, "Dic3")),
    14: (lambda: _metacyclic(7, 0, "D7"),),
}

# _BY_ORDER[o - 1]: the catalog groups of order o, sorted by name, each
# built once per process: caches elsewhere key on the objects themselves
_BY_ORDER: list[tuple] = []


def catalog(n: int) -> list:
    """One group per isomorphism class of order <= n, sorted by (order, name);
    the orders up to n are built on first use."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > MAX_CATALOG_ORDER:
        raise ValueError(f"group catalog is limited to order {MAX_CATALOG_ORDER}")
    for o in range(len(_BY_ORDER) + 1, n + 1):
        # the trivial group's factor list is empty; it is C1
        batch = [_abelian(f or (1,)) for f in _invariant_factor_lists(o)]
        batch.extend(build() for build in _NONABELIAN_BUILDERS.get(o, ()))
        batch.sort(key=lambda G: G.name)
        for i, G in enumerate(batch):
            assert not any(is_isomorphic(G, H) for H in batch[:i]), G.name
        _BY_ORDER.append(tuple(batch))
    return [G for batch in _BY_ORDER[:n] for G in batch]
