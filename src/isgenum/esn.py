"""Build a concrete inverse semigroup from a basis and one of its orders.

Products are computed by restriction: the product of s and t meets dom(s)
with ran(t) in E, takes the unique element below s with that domain and the
unique element below t with that range, and composes them in the basis
groupoid.  Idempotents keep their semilattice labels, so E(S) is literally
0..|E|-1.  The semigroup holds only its table and order; its skeleton (E,
D-restriction, maximal subgroups) and element labels are the basis's own.
"""

from __future__ import annotations

from .gposets import BasisOrder, GroupoidBasis
from .orders import _bits

__all__ = [
    "InverseSemigroup",
    "esn",
    "validate_inverse_semigroup",
    "natural_order_from_table",
    "d_restriction_from_table",
    "idempotents_of_table",
    "maximal_subgroup_of_table",
]

class InverseSemigroup:
    """Inverse semigroup with an explicit Cayley table and the basis order
    it was built from."""

    __slots__ = (
        "size", "table", "E", "d_restriction", "groups",
        "elem", "index", "order_down", "label_block", "_colors",
    )

    def __init__(self, basis: GroupoidBasis, table, order_down):
        self.size = basis.size
        self.table = table
        self.E = basis.E
        self.d_restriction = basis.partition
        self.groups = basis.groups
        self.elem = basis.elem
        self.index = basis.index
        self.order_down = order_down
        self.label_block = basis.block_of  # block of every element
        self._colors = None

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"InverseSemigroup(n={self.size}, idempotents={self.E.size})"

    def group_at(self, e: int):
        """Catalog group isomorphic to the maximal subgroup at idempotent e."""
        return self.groups[self.label_block[e]]

    def d_class_size(self, e: int) -> int:
        """Number of idempotents D-related to e."""
        return len(self.d_restriction[self.label_block[e]])

    def is_commutative(self) -> bool:
        table = self.table
        n = self.size
        return all(
            table[x][y] == table[y][x]
            for x in range(n) for y in range(x + 1, n)
        )

    def is_monoid(self) -> bool:
        return self.E.has_maximum()


def esn(basis: GroupoidBasis, order: BasisOrder) -> InverseSemigroup:
    """Apply the order to the basis; sums of down-sets under matrix product."""
    n = basis.size
    m = basis.E.size
    down = order.down
    dom, ran = basis.dom, basis.ran
    restrict = [[-1] * m for _ in range(n)]
    corestrict = [[-1] * m for _ in range(n)]
    for s in range(n):
        rs, cs = restrict[s], corestrict[s]
        for u in _bits(down[s]):
            rs[dom[u]] = u
            cs[ran[u]] = u
    meet = basis.E.meet
    compose = basis.compose
    table = []
    for s in range(n):
        mrow = meet[dom[s]]
        rs = restrict[s]
        row = []
        for t in range(n):
            e = mrow[ran[t]]
            row.append(compose[rs[e]][corestrict[t][e]])
        table.append(tuple(row))
    return InverseSemigroup(basis, tuple(table), down)


# ---------------------------------------------------------------------------
# table-level oracles (independent of the construction bookkeeping)


def _as_table(S):
    return S.table if isinstance(S, InverseSemigroup) else tuple(
        tuple(row) for row in S
    )


def validate_inverse_semigroup(table) -> bool:
    """Full scan: associativity, unique inverses, commuting idempotents."""
    table = _as_table(table)
    n = len(table)
    rng = range(n)
    for a in rng:
        for b in rng:
            ab = table[a][b]
            rab = table[ab]
            arow = table[a]
            for c in rng:
                if rab[c] != arow[table[b][c]]:
                    return False
    for x in rng:
        count = 0
        for y in rng:
            if table[table[x][y]][x] == x and table[table[y][x]][y] == y:
                count += 1
        if count != 1:
            return False
    idem = [x for x in rng if table[x][x] == x]
    for e in idem:
        for f in idem:
            if table[e][f] != table[f][e]:
                return False
    return True


def idempotents_of_table(table):
    table = _as_table(table)
    return [x for x in range(len(table)) if table[x][x] == x]


def _inverses_of_table(table):
    n = len(table)
    inv = [-1] * n
    for x in range(n):
        for y in range(n):
            if table[table[x][y]][x] == x and table[table[y][x]][y] == y:
                inv[x] = y
                break
    if -1 in inv:
        raise ValueError("table is not regular")
    return inv


def natural_order_from_table(table):
    """Down-set masks of the natural order: s <= t iff s = t * inv(s) * s."""
    table = _as_table(table)
    n = len(table)
    inv = _inverses_of_table(table)
    down = [0] * n
    for t in range(n):
        trow = table[t]
        mask = 0
        for s in range(n):
            if table[trow[inv[s]]][s] == s:
                mask |= 1 << s
        down[t] = mask
    return tuple(down)


def d_restriction_from_table(table):
    """Blocks of Green's D-relation restricted to idempotents, as ordered tuples."""
    table = _as_table(table)
    n = len(table)
    inv = _inverses_of_table(table)
    idem = idempotents_of_table(table)
    pos = {e: i for i, e in enumerate(idem)}
    parent = list(range(len(idem)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x in range(n):
        d = pos[table[inv[x]][x]]
        r = pos[table[x][inv[x]]]
        ri, rj = find(d), find(r)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    blocks = {}
    for i, e in enumerate(idem):
        blocks.setdefault(find(i), []).append(e)
    return tuple(
        tuple(b) for b in sorted(blocks.values(), key=lambda b: (-len(b), b[0]))
    )


def maximal_subgroup_of_table(table, e: int):
    """Elements of the maximal subgroup at idempotent e."""
    table = _as_table(table)
    inv = _inverses_of_table(table)
    return [
        x for x in range(len(table))
        if table[inv[x]][x] == e and table[x][inv[x]] == e
    ]
