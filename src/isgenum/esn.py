"""Build a concrete inverse semigroup from a basis and one of its orders.

Products are computed by restriction: the product of s and t meets dom(s)
with ran(t) in E to e, and composes in the basis groupoid the restriction
of s to e (the one element below s with domain e) with the corestriction of
t to e (the one below t with range e), both read off the down-set masks.
The order's idempotents have E's down-sets and nothing below an idempotent
is a non-idempotent, so a table has three kinds of cell:
- the idempotent block, which is E's meet table;
- the cells with one idempotent f, which read one mask: in f's row a
  non-idempotent t holds its corestriction to f ^ ran t, and in the row of
  a non-idempotent s, f's column holds s's restriction to dom s ^ f;
- the cells of two non-idempotents s, t, which compose two of those: the
  restriction in (s, ran t) with the corestriction in (dom s, t).
Idempotents keep their semilattice labels, so E(S) is literally
0..|E|-1.  The semigroup holds only its table and order; its skeleton (E,
D-restriction, maximal subgroups) and element labels are the basis's own.
"""

from __future__ import annotations

from .gposets import GroupoidBasis

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
        "elem", "index", "order_down", "label_block",
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

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"InverseSemigroup(n={self.size}, idempotents={self.E.size})"

    def is_commutative(self) -> bool:
        """Read off the skeleton: commutative iff every block is a point and
        every group is abelian, a semilattice of abelian groups."""
        return all(len(X) == 1 and G.abelian
                   for X, G in zip(self.d_restriction, self.groups))

    def is_monoid(self) -> bool:
        return self.E.has_maximum()


def esn(basis: GroupoidBasis, down) -> InverseSemigroup:
    """Apply the order, one down-set mask per basis element as `g_posets`
    yields it, to the basis; sums of down-sets under matrix product.

    The restriction of s to e is the element of down[s] & with_dom[e], the
    corestriction of t to e that of down[t] & with_ran[e]; the module
    docstring lists which cells read them.
    """
    m = basis.E.size
    meet = basis.E.meet
    with_dom, with_ran = basis.with_dom, basis.with_ran
    compose = basis.compose
    dom, ran, moving = basis.dom[m:], basis.ran[m:], down[m:]
    # cols[j][f]: the cell (f, t) of the j-th non-idempotent t
    cols = [[(dt & with_ran[e]).bit_length() - 1 for e in meet[r]]
            for r, dt in zip(ran, moving)]
    if not cols:
        return InverseSemigroup(basis, meet, down)
    table = [mrow + crow for mrow, crow in zip(meet, zip(*cols))]
    for d, ds in zip(dom, moving):
        row = [(ds & with_dom[e]).bit_length() - 1 for e in meet[d]]
        row += [compose[row[r]][c[d]] for r, c in zip(ran, cols)]
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
