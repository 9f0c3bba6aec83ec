"""Groupoid basis of a block-matrix algebra and the search for its orders.

Given a meet-semilattice E, a D-partition (X_1, ..., X_k) of E and a group
per block, the basis consists of all tuples (block, row, col, g).  The
search enumerates every partial order on the basis that restricts to the
semilattice order on idempotents, to equality inside blocks, and admits
unique restrictions and corestrictions; each such order yields one inverse
semigroup downstream.  The search relates one block at a time, in
`pos_blocks` order: its state is the number of blocks done and the tuple of
down-set masks, and each complete order is yielded as a `BasisOrder`.

Orders are stored as per-element bitmasks over a global element index in
which idempotent (block, e, e, identity) is element e of E, and the
non-idempotents of each block follow contiguously in (a, b, g) order.
`compose` is derived from that layout: each row writes only the products
inside its own block, from a per-(block size, group) cell table.

The cross-block possibilities between two blocks depend only on their
groups, the block sizes and which positions of the lower block lie under
each element of the upper one.  They are computed once per process in
block-local coordinates (idempotents first, then (a, b, g)), cached under
(G, H, |X|, |Y|, below), and moved into a basis's global index by one table
lookup for the idempotent bits and one shift for the rest.  The key holds
no E labels or global indices, so the cache stays small: 83 entries for a
whole order-9 count.  Groups enter every cache key as their Cayley tables
(`G.mul`): two groups that share a name but not a table never share an
entry, and a new `Group` object with a known table adds none.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .groups import Group
from .orders import _bits

__all__ = [
    "GroupoidBasis",
    "BasisOrder",
    "e_groupoid",
    "poset_possibilities",
    "g_posets",
    "validate_hypotheses",
]

# (|X|, G.mul) -> block cell table, see _block_cells
_BLOCK_CELLS: dict = {}


def _block_cells(x: int, G: Group):
    """Cell table of an x-by-x block over G.

    Cells c = (a, b, g) run in lexicographic order.  Returns the cells; the
    block-local index of each cell (the idempotents (a, a, 0) are 0..x-1, the
    other cells follow in cell order); the cell of each cell's inverse; and
    per cell the pairs (t, product) for every cell t = (b, d, k) that
    composes with it.
    """
    key = (x, G.mul)
    data = _BLOCK_CELLS.get(key)
    if data is None:
        h, mul = G.order, G.mul
        cells = tuple(
            (a, b, g) for a in range(x) for b in range(x) for g in range(h)
        )
        local = []
        nxt = x
        for a, b, g in cells:
            if a == b and g == 0:
                local.append(a)
            else:
                local.append(nxt)
                nxt += 1
        inv = tuple((b * x + a) * h + G.inv[g] for a, b, g in cells)
        prods = tuple(
            tuple(
                ((b * x + d) * h + k, (a * x + d) * h + mul[g][k])
                for d in range(x) for k in range(h)
            )
            for a, b, g in cells
        )
        data = _BLOCK_CELLS[key] = (cells, tuple(local), inv, prods)
    return data


class GroupoidBasis:
    """Matrix-unit basis with blocks indexed by a D-partition of E."""

    __slots__ = (
        "E", "partition", "groups", "size", "elem", "index", "inv",
        "dom", "ran", "block_of", "compose", "offsets",
        "pos_blocks", "pos_of_block", "pos_elems", "pos_mask",
        "covered_positions",
    )

    def __init__(self, E, partition, groups):
        partition = tuple(tuple(X) for X in partition)
        groups = tuple(groups)
        if len(partition) != len(groups):
            raise ValueError("one group per block required")
        flat = sorted(x for X in partition for x in X)
        if flat != list(range(E.size)):
            raise ValueError("blocks must partition the elements of E")
        if any(len(partition[i]) < len(partition[i + 1])
               for i in range(len(partition) - 1)):
            raise ValueError("blocks must be weakly decreasing in size")
        self.E = E
        self.partition = partition
        self.groups = groups

        cell_data = [
            _block_cells(len(X), G) for X, G in zip(partition, groups)
        ]
        size = E.size + sum(
            len(data[0]) - len(X) for X, data in zip(partition, cell_data)
        )
        block_of_label = [0] * E.size
        elem = [None] * E.size
        inv = [0] * size
        compose = [None] * size
        offsets = []
        block_elems = []
        block_masks = []
        for i, X in enumerate(partition):
            cells, local, cell_inv, cell_prods = cell_data[i]
            x, off = len(X), len(elem)
            mask = 0
            for e in X:
                block_of_label[e] = i
                elem[e] = (i, e, e, 0)
                mask |= 1 << e
            for l, (a, b, g) in zip(local, cells):
                if l >= x:
                    elem.append((i, X[a], X[b], g))
            # global index of each cell: the block's non-idempotents are
            # contiguous from off on, in block-local order
            layout = [X[l] if l < x else off + l - x for l in local]
            for c, s in enumerate(layout):
                inv[s] = layout[cell_inv[c]]
                row = [-1] * size
                for t, st in cell_prods[c]:
                    row[layout[t]] = layout[st]
                compose[s] = tuple(row)
            offsets.append(off)
            count = len(elem) - off
            block_elems.append(tuple(X) + tuple(range(off, len(elem))))
            block_masks.append(mask | (((1 << count) - 1) << off))
        self.elem = tuple(elem)
        self.size = size
        self.offsets = tuple(offsets)
        self.index = {t: s for s, t in enumerate(elem)}
        self.block_of, self.ran, self.dom, _ = zip(*elem)
        self.inv = tuple(inv)
        self.compose = tuple(compose)

        # search order: deepest-reaching blocks first
        level = E.down_level_of

        def sort_key(i):
            X = partition[i]
            return (-max(map(level, X)), -len(X), X)

        self.pos_blocks = tuple(sorted(range(len(partition)), key=sort_key))
        pos_of_block = [0] * len(partition)
        for p, i in enumerate(self.pos_blocks):
            pos_of_block[i] = p
        self.pos_of_block = tuple(pos_of_block)
        self.pos_elems = tuple(block_elems[i] for i in self.pos_blocks)
        self.pos_mask = tuple(block_masks[i] for i in self.pos_blocks)

        cov = [set() for _ in partition]
        for lo, hi in E.covers:
            bl, bh = block_of_label[lo], block_of_label[hi]
            if bl != bh:
                cov[pos_of_block[bh]].add(pos_of_block[bl])
        self.covered_positions = tuple(tuple(sorted(c)) for c in cov)

    def __repr__(self):
        sig = ", ".join(
            f"{len(X)}x{len(X)}({G.name})"
            for X, G in zip(self.partition, self.groups)
        )
        return f"GroupoidBasis({sig})"

    def root_down(self):
        """Order on idempotents inherited from E; everything else reflexive."""
        E = self.E
        return tuple(
            E.down[s] if s < E.size else 1 << s for s in range(self.size)
        )


class BasisOrder(NamedTuple):
    """A partial order on a basis satisfying the construction hypotheses."""
    down: tuple         # per-element down-set masks


def e_groupoid(E, P, f) -> GroupoidBasis:
    """Basis of the block algebra determined by (E, D-partition, groups)."""
    return GroupoidBasis(E, P, f)


# ---------------------------------------------------------------------------
# cross-block possibilities

_WREATH_HOM_CACHE: dict = {}


def _wmul(w1, w2, hmul):
    s1, h1 = w1
    s2, h2 = w2
    return (
        tuple(s1[z] for z in s2),
        tuple(hmul[h1[s2[z]]][h2[z]] for z in range(len(s2))),
    )


def _winv(w, hinv):
    s, h = w
    si = [0] * len(s)
    for z, v in enumerate(s):
        si[v] = z
    return (tuple(si), tuple(hinv[h[si[c]]] for c in range(len(s))))


def _wreath_homs(G: Group, H: Group, m: int):
    """All homomorphisms from G into the wreath-style group of pairs
    (permutation of m slots, H-element per slot); one image per G element."""
    key = (G.mul, H.mul, m)
    cached = _WREATH_HOM_CACHE.get(key)
    if cached is not None:
        return cached
    elements = [
        (s, h)
        for s in sorted(itertools.permutations(range(m)))
        for h in itertools.product(range(H.order), repeat=m)
    ]
    index = {w: i for i, w in enumerate(elements)}
    hmul = H.mul
    table = tuple(
        tuple(index[_wmul(w1, w2, hmul)] for w2 in elements) for w1 in elements
    )
    gens = G.generating_set()
    homs = []
    if not gens:
        homs.append((elements[0],) * G.order)
    else:
        cands = []
        for g in gens:
            o = G.element_order(g)
            ok = []
            for wi in range(len(elements)):
                acc, k = 0, 0
                while k < o:
                    acc = table[acc][wi]
                    k += 1
                if acc == 0:
                    ok.append(wi)
            cands.append(ok)
        for imgs in itertools.product(*cands):
            ext = G.extend_hom(imgs, table)
            if ext is not None:
                homs.append(tuple(elements[wi] for wi in ext))
    _WREATH_HOM_CACHE[key] = tuple(homs)
    return _WREATH_HOM_CACHE[key]


# (G.mul, H.mul, |X|, |Y|, below) -> _local_possibilities(G, H, |Y|, below)
_POSS_CACHE: dict = {}


def _local_possibilities(G: Group, H: Group, y: int, below):
    """Cross-block orders between an upper block X (group G) and a lower
    block Y (group H, |Y| = y), in block-local coordinates.

    below[a] lists the positions in Y under X[a].  Each possibility is a
    tuple of masks over the block-local indices of Y (see _block_cells), one
    per element of X in block-local order.
    """
    x = len(below)
    m = len(below[0])
    if any(len(v) != m for v in below):
        return ()
    if m == 0:
        return ((0,) * (x * x * G.order),)

    hmul, hinv = H.mul, H.inv
    hi_cells, hi_local = _block_cells(x, G)[:2]
    hi_by_local = [None] * len(hi_cells)
    for l, cell in zip(hi_local, hi_cells):
        hi_by_local[l] = cell
    lo_local = _block_cells(y, H)[1]
    identity = (tuple(range(m)), (0,) * m)
    tau_options = [
        (s, h)
        for s in sorted(itertools.permutations(range(m)))
        for h in itertools.product(range(H.order), repeat=m)
    ]
    results = []
    for hom in _wreath_homs(G, H, m):
        for choice in itertools.product(tau_options, repeat=x - 1):
            tau = (identity,) + choice
            tauinv = tuple(_winv(w, hinv) for w in tau)
            masks = []
            for a, b, g in hi_by_local:
                sig, hv = _wmul(tau[a], _wmul(hom[g], tauinv[b], hmul), hmul)
                rows, cols = below[a], below[b]
                mask = 0
                for z in range(m):
                    mask |= 1 << lo_local[
                        (rows[sig[z]] * y + cols[z]) * H.order + hv[z]
                    ]
                masks.append(mask)
            results.append(tuple(masks))
    return tuple(results)


def poset_possibilities(basis: GroupoidBasis, hi_pos: int, lo_pos: int):
    """All cross-block partial orders between two blocks of the basis.

    Returns a list of possibilities, each a tuple of direct-down masks (over
    elements of the lower block) aligned with basis.pos_elems[hi_pos].  Each
    possibility restricts to the idempotent order between the two blocks, to
    equality inside them, and satisfies closure under inverses and products
    as well as unique restriction/corestriction on the pair.
    """
    down = basis.E.down
    i_hi = basis.pos_blocks[hi_pos]
    i_lo = basis.pos_blocks[lo_pos]
    X, Y = basis.partition[i_hi], basis.partition[i_lo]
    G, H = basis.groups[i_hi], basis.groups[i_lo]
    # spread[v]: the E labels of the Y-local idempotent bits in v
    y = len(Y)
    if y == 1:
        yb = Y[0]
        below = tuple([(0,) if down[a] >> yb & 1 else () for a in X])
        spread = (0, 1 << yb)
    else:
        below = tuple(
            tuple([c for c in range(y) if down[a] >> Y[c] & 1]) for a in X
        )
        spread = [
            sum(1 << Y[c] for c in range(y) if v >> c & 1)
            for v in range(1 << y)
        ]
    key = (G.mul, H.mul, len(X), y, below)
    local = _POSS_CACHE.get(key)
    if local is None:
        local = _POSS_CACHE[key] = _local_possibilities(G, H, y, below)
    # the non-idempotent bits shift onto the lower block's contiguous range
    ymask = (1 << y) - 1
    off = basis.offsets[i_lo]
    return [
        tuple([spread[lm & ymask] | ((lm >> y) << off) for lm in poss])
        for poss in local
    ]


# ---------------------------------------------------------------------------
# depth-first search


def _passes_cardinality_test(basis: GroupoidBasis, down, new_pos: int) -> bool:
    """Every element of the new block must dominate, in each earlier block,
    as many elements as the block's least idempotent does."""
    elems = basis.pos_elems[new_pos]
    ref = min(basis.partition[basis.pos_blocks[new_pos]])
    for q in range(new_pos):
        bm = basis.pos_mask[q]
        r = (down[ref] & bm).bit_count()
        for t in elems:
            if (down[t] & bm).bit_count() != r:
                return False
    return True


def _children(basis: GroupoidBasis, down, new_pos: int):
    """Extend `down`, an order on the first `new_pos` blocks in search
    order, over the next block in every valid way."""
    if new_pos >= len(basis.pos_blocks):
        return
    elems = basis.pos_elems[new_pos]
    covered = basis.covered_positions[new_pos]
    polists = [poset_possibilities(basis, new_pos, q) for q in covered]
    if any(not pl for pl in polists):
        return
    qmasks = [basis.pos_mask[q] for q in covered]
    for combo in itertools.product(*polists):
        nd = list(down)
        for ti, t in enumerate(elems):
            direct = 0
            for part in combo:
                direct |= part[ti]
            acc = nd[t] | direct
            dd = direct
            while dd:
                low = dd & -dd
                dd ^= low
                acc |= down[low.bit_length() - 1]
            nd[t] = acc
        # the closure must not add cross-block pairs beyond the chosen
        # possibility on any covered block; anything else cannot satisfy
        # the uniqueness hypotheses downstream
        ok = True
        for part, bm in zip(combo, qmasks):
            for ti, t in enumerate(elems):
                if nd[t] & bm != part[ti]:
                    ok = False
                    break
            if not ok:
                break
        if ok and _passes_cardinality_test(basis, nd, new_pos):
            yield tuple(nd)


def g_posets(basis: GroupoidBasis):
    """Stream every partial order on the basis usable by the construction."""
    k = len(basis.pos_blocks)

    def rec(depth, down):
        if depth == k:
            yield BasisOrder(down)
            return
        for child in _children(basis, down, depth):
            yield from rec(depth + 1, child)

    yield from rec(1, basis.root_down())


# ---------------------------------------------------------------------------
# full validation (tests)


def validate_hypotheses(basis: GroupoidBasis, down) -> bool:
    """Check all construction hypotheses on a full basis order; raises on failure."""
    n = basis.size
    E = basis.E
    inv = basis.inv
    compose = basis.compose
    dom, ran = basis.dom, basis.ran

    for t in range(n):
        if not (down[t] >> t) & 1:
            raise AssertionError("order not reflexive")
        for u in _bits(down[t]):
            if u != t and (down[u] >> t) & 1:
                raise AssertionError("order not antisymmetric")
            if down[u] & ~down[t]:
                raise AssertionError("order not transitive")

    m = E.size
    for e in range(m):
        if down[e] != E.down[e]:
            raise AssertionError("order does not restrict to the semilattice")

    for t in range(n):
        for s in _bits(down[t]):
            if not (down[inv[t]] >> inv[s]) & 1:
                raise AssertionError("order not closed under inverses")

    for y in range(n):
        for z in range(n):
            yz = compose[y][z]
            if yz < 0:
                continue
            for s in _bits(down[y]):
                for t in _bits(down[z]):
                    st = compose[s][t]
                    if st >= 0 and not (down[yz] >> st) & 1:
                        raise AssertionError("order not closed under products")

    for s in range(n):
        ds, rs = dom[s], ran[s]
        for e in range(m):
            if (E.down[ds] >> e) & 1:
                matches = [u for u in _bits(down[s]) if dom[u] == e]
                if len(matches) != 1:
                    raise AssertionError("restriction not unique")
            if (E.down[rs] >> e) & 1:
                matches = [u for u in _bits(down[s]) if ran[u] == e]
                if len(matches) != 1:
                    raise AssertionError("corestriction not unique")
    return True
