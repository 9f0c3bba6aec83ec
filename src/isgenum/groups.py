"""Small finite groups given by explicit multiplication tables.

The catalog covers every group of order <= 15 up to isomorphism: abelian
groups are assembled from invariant-factor decompositions, the non-abelian
ones from dihedral, dicyclic and alternating constructions.  Element 0 is
always the identity, so tables can be composed and compared positionally.
"""

from __future__ import annotations

import itertools

__all__ = [
    "MAX_CATALOG_ORDER",
    "Group",
    "catalog",
    "is_isomorphic",
]

MAX_CATALOG_ORDER = 15


class Group:
    """Group on {0, ..., order-1} with identity 0, as an immutable Cayley table."""

    __slots__ = ("order", "mul", "inv", "name", "_gens", "_exprs", "_auts", "_orders")

    def __init__(self, mul, name: str):
        order = len(mul)
        mul = tuple(tuple(row) for row in mul)
        if any(len(row) != order for row in mul):
            raise ValueError("multiplication table must be square")
        if any(mul[0][x] != x or mul[x][0] != x for x in range(order)):
            raise ValueError("element 0 must be the identity")
        inv = [-1] * order
        for x in range(order):
            for y in range(order):
                if mul[x][y] == 0 == mul[y][x]:
                    inv[x] = y
                    break
        if -1 in inv:
            raise ValueError("not a group: some element has no inverse")
        self.order = order
        self.mul = mul
        self.inv = tuple(inv)
        self.name = name
        self._gens = None
        self._exprs = None
        self._auts = None
        self._orders = None

    def __repr__(self):
        return f"Group({self.name})"

    def __len__(self):
        return self.order

    def element_order(self, x: int) -> int:
        if self._orders is None:
            orders = []
            for y in range(self.order):
                k, z = 1, y
                while z != 0:
                    z = self.mul[z][y]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[x]

    def is_abelian(self) -> bool:
        mul = self.mul
        return all(
            mul[x][y] == mul[y][x]
            for x in range(self.order)
            for y in range(x + 1, self.order)
        )

    def _closure(self, seed):
        mul = self.mul
        closed = set(seed)
        frontier = list(closed)
        while frontier:
            x = frontier.pop()
            for y in tuple(closed):
                for z in (mul[x][y], mul[y][x]):
                    if z not in closed:
                        closed.add(z)
                        frontier.append(z)
        return closed

    def generating_set(self) -> tuple:
        """Greedy small generating set; empty for the trivial group."""
        if self._gens is None:
            gens = []
            closed = {0}
            while len(closed) < self.order:
                g = min(x for x in range(self.order) if x not in closed)
                gens.append(g)
                closed = self._closure(closed | {g})
            self._gens = tuple(gens)
        return self._gens

    def _bfs_factorizations(self):
        # exprs[x] = (parent, gen) with x = parent * gen; identity is the root
        if self._exprs is None:
            gens = self.generating_set()
            exprs = [None] * self.order
            exprs[0] = (-1, -1)
            queue = [0]
            for x in queue:
                for g in gens:
                    y = self.mul[x][g]
                    if exprs[y] is None:
                        exprs[y] = (x, g)
                        queue.append(y)
            self._exprs = (tuple(exprs), tuple(queue))
        return self._exprs

    def extend_hom(self, gen_images, target_mul):
        """Extend generator images to a homomorphism into `target_mul`, or None.

        `target_mul` is any square table whose element 0 is the identity.
        """
        gens = self.generating_set()
        exprs, order_out = self._bfs_factorizations()
        img = [-1] * self.order
        img[0] = 0
        gi = dict(zip(gens, gen_images))
        for x in order_out[1:]:
            parent, g = exprs[x]
            img[x] = target_mul[img[parent]][gi[g]]
        mul = self.mul
        for x in range(self.order):
            ix = img[x]
            row = target_mul[ix]
            for y in range(self.order):
                if img[mul[x][y]] != row[img[y]]:
                    return None
        return tuple(img)

    def automorphism_images(self) -> tuple:
        """All automorphisms as image tuples (cached)."""
        if self._auts is None:
            gens = self.generating_set()
            if not gens:
                self._auts = ((0,),)
            else:
                cands = [
                    [y for y in range(self.order)
                     if self.element_order(y) == self.element_order(g)]
                    for g in gens
                ]
                auts = []
                for imgs in itertools.product(*cands):
                    ext = self.extend_hom(imgs, self.mul)
                    if ext is not None and len(set(ext)) == self.order:
                        auts.append(ext)
                self._auts = tuple(auts)
        return self._auts


def _iso_images(G: Group, H: Group):
    if G.order != H.order:
        return None
    n = G.order
    if sorted(G.element_order(x) for x in range(n)) != sorted(
        H.element_order(x) for x in range(n)
    ):
        return None
    gens = G.generating_set()
    if not gens:
        return (0,)
    cands = [
        [y for y in range(n) if H.element_order(y) == G.element_order(g)]
        for g in gens
    ]
    for imgs in itertools.product(*cands):
        ext = G.extend_hom(imgs, H.mul)
        if ext is not None and len(set(ext)) == n:
            return ext
    return None


def is_isomorphic(G: Group, H: Group) -> bool:
    return _iso_images(G, H) is not None


# ---------------------------------------------------------------------------
# constructions


def _cyclic(k: int) -> Group:
    return Group([[(i + j) % k for j in range(k)] for i in range(k)], f"C{k}")


def _direct_product(G: Group, H: Group, name: str) -> Group:
    n, h = G.order, H.order
    mul = [[0] * (n * h) for _ in range(n * h)]
    for a1 in range(n):
        for b1 in range(h):
            row = mul[a1 * h + b1]
            for a2 in range(n):
                for b2 in range(h):
                    row[a2 * h + b2] = G.mul[a1][a2] * h + H.mul[b1][b2]
    return Group(mul, name)


def _abelian(factors) -> Group:
    G = _cyclic(factors[0])
    for d in factors[1:]:
        G = _direct_product(G, _cyclic(d), "")
    return Group(G.mul, "x".join(f"C{d}" for d in factors))


def _dihedral(k: int, name: str | None = None) -> Group:
    # element (i, r) = rotation^i * reflection^r, index i + k*r
    n = 2 * k
    mul = [[0] * n for _ in range(n)]
    for i1 in range(k):
        for r1 in range(2):
            row = mul[i1 + k * r1]
            for i2 in range(k):
                for r2 in range(2):
                    if r1 == 0:
                        row[i2 + k * r2] = (i1 + i2) % k + k * r2
                    else:
                        row[i2 + k * r2] = (i1 - i2) % k + k * (1 - r2)
    return Group(mul, name or f"D{k}")


def _dicyclic(q: int, name: str) -> Group:
    # order 4q: (i, r) with b*a = a^-1*b and b^2 = a^q; index i + 2q*r
    k = 2 * q
    n = 2 * k
    mul = [[0] * n for _ in range(n)]
    for i1 in range(k):
        for r1 in range(2):
            row = mul[i1 + k * r1]
            for i2 in range(k):
                for r2 in range(2):
                    if r1 == 0:
                        row[i2 + k * r2] = (i1 + i2) % k + k * r2
                    elif r2 == 0:
                        row[i2 + k * r2] = (i1 - i2) % k + k
                    else:
                        row[i2 + k * r2] = (i1 - i2 + q) % k
    return Group(mul, name)


def _alternating4() -> Group:
    perms = sorted(
        p for p in itertools.permutations(range(4))
        if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
    )
    index = {p: i for i, p in enumerate(perms)}
    mul = [
        [index[tuple(p[q[i]] for i in range(4))] for q in perms]
        for p in perms
    ]
    return Group(mul, "A4")


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
    6: (lambda: _dihedral(3, "S3"),),
    8: (lambda: _dihedral(4), lambda: _dicyclic(2, "Q8")),
    10: (lambda: _dihedral(5),),
    12: (lambda: _dihedral(6), _alternating4, lambda: _dicyclic(3, "Dic3")),
    14: (lambda: _dihedral(7),),
}

_MASTER: tuple | None = None


def _master_catalog():
    global _MASTER
    if _MASTER is None:
        all_groups = []
        for o in range(1, MAX_CATALOG_ORDER + 1):
            batch = [_cyclic(1)] if o == 1 else [
                _abelian(f) for f in _invariant_factor_lists(o)
            ]
            batch.extend(build() for build in _NONABELIAN_BUILDERS.get(o, ()))
            batch.sort(key=lambda G: G.name)
            for i, G in enumerate(batch):
                assert not any(is_isomorphic(G, H) for H in batch[:i]), G.name
            all_groups.extend(batch)
        _MASTER = tuple(all_groups)
    return _MASTER


def catalog(n: int) -> list:
    """One group per isomorphism class of order <= n, sorted by (order, name)."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > MAX_CATALOG_ORDER:
        raise ValueError(f"group catalog is limited to order {MAX_CATALOG_ORDER}")
    return [G for G in _master_catalog() if G.order <= n]
