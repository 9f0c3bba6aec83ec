"""Groupoid basis of a block-matrix algebra and the search for its orders.

Given a meet-semilattice E, a D-partition (X_1, ..., X_k) of E and a group
per block, the basis consists of all tuples (block, row, col, g).  The
search enumerates every partial order on the basis that restricts to the
semilattice order on idempotents, to equality inside blocks, and admits
unique restrictions and corestrictions; each such order yields one inverse
semigroup downstream.  The search relates one block at a time, in
`pos_blocks` order, but steps only over the blocks with more than one
element: a point block over C1 is an idempotent, whose down-set is already
E's, so its one extension is its parent.  The state is the number of steps
done and the tuple of down-set masks, and each complete order is yielded as
that tuple, one down-set mask per basis element.

Orders are stored as per-element bitmasks over a global element index in
which idempotent (block, e, e, identity) is element e of E, and the
non-idempotents of each block follow contiguously in (a, b, g) order.
`_block_cells` lists a block's cells in that same storage order
(idempotents first, then (a, b, g)), so a cell's position is its
block-local index; `compose` rows are written from its per-(block size,
group) product table through the block's element list.

Every cache here is keyed by what it depends on, and nothing in them is
written after it is built:
- `_BLOCK_CELLS`, under (|X|, G): a block's cells, their products and the
  groupoid automorphisms that fix its idempotents.
- `_LAYOUTS`, under (P, f) with P labelled: a basis's `_Layout`, everything
  it holds that does not read E (elements, `compose`, `index`,
  `block_of`/`dom`/`ran`, `with_dom`/`with_ran`, `offsets`, each block's
  members and mask).  Every basis over that (P, f) shares it and adds only
  E, the caller's groups and the search order that E sets.
  `enumerate_semigroups(9)` builds 421 layouts for 23004 bases.  Their
  compose rows, elements and small tuples repeat from one layout to the
  next, so `_SHARED` holds one copy of each (1896 tuples there).
- `_POSS_CACHE`, under (G, H, |X|, |Y|, below): the cross-block
  possibilities between two blocks, which depend only on their groups, the
  block sizes and which positions of the lower block lie under each element
  of the upper one.  They are computed once per process in block-local
  coordinates, and each search step that reads them moves them into its
  basis's global index by one table lookup for the idempotent bits and one
  shift for the rest.  The key holds no E labels or global indices, so the
  cache stays small: 25 entries for a whole order-9 count, 65 for
  `enumerate_semigroups(9)`.  The wreath-group homomorphisms are rebuilt
  for each new entry.
Groups enter every key as their Cayley tables (`G.mul`): two groups that
share a name but not a table never share an entry, and a new `Group` object
with a known table adds none.
"""

from __future__ import annotations

import itertools

from .groups import Group
from .orders import _bits

__all__ = [
    "GroupoidBasis",
    "e_groupoid",
    "poset_possibilities",
    "g_posets",
    "validate_hypotheses",
]

# (|X|, G.mul) -> block cell table, see _block_cells
_BLOCK_CELLS: dict = {}


def _block_cells(x: int, G: Group):
    """Cell table of an x-by-x block over G, in block-local order.

    The cells (a, b, g) list the idempotents (a, a, 0) first, then the other
    cells in (a, b, g) order: the order in which a basis stores the block's
    elements, so a cell's position is its block-local index.  Returns the
    cells; `at`, where at[(a * x + b) * |G| + g] is the local index of cell
    (a, b, g); per cell the pairs (t, product) of local indices for every
    cell t = (b, d, k) that composes with it; and, for `iso.is_isoc`, the
    groupoid automorphisms of the block that fix its idempotents, one per
    automorphism f of G and shifts s in G with s[0] the identity, as the
    group parts s[a] f(g) s[b]^-1 of the images of the non-idempotent cells.
    """
    key = (x, G.mul)
    data = _BLOCK_CELLS.get(key)
    if data is None:
        h, mul = G.order, G.mul
        cells = [(a, a, 0) for a in range(x)] + [
            (a, b, g)
            for a in range(x) for b in range(x) for g in range(h)
            if a != b or g
        ]
        at = [0] * len(cells)
        for l, (a, b, g) in enumerate(cells):
            at[(a * x + b) * h + g] = l
        prods = tuple(
            tuple(
                (at[(b * x + d) * h + k], at[(a * x + d) * h + mul[g][k]])
                for d in range(x) for k in range(h)
            )
            for a, b, g in cells
        )
        autos = tuple(
            tuple(mul[mul[s[a]][f[g]]][G.inv[s[b]]] for a, b, g in cells[x:])
            for f in G.automorphism_images()
            for s in itertools.product((0,), *[range(h)] * (x - 1))
        )
        data = _BLOCK_CELLS[key] = (tuple(cells), tuple(at), prods, autos)
    return data


# (partition, group tables) -> _Layout, see _layout
_LAYOUTS: dict = {}
# every tuple that a layout holds, once, see _shared
_SHARED: dict = {}


def _shared(t: tuple) -> tuple:
    """The one copy of `t` that layouts hold: their compose rows, elements
    and small tuples repeat from one layout to the next."""
    return _SHARED.setdefault(t, t)


class _Layout:
    """The part of a basis that does not read E, built once per labelled
    D-partition and group tables (see `_layout`), shared by every basis over
    them and never written after it is built.

    A basis copies every field; besides those `GroupoidBasis` names:
    `members[i]`, block i's elements in local order (its idempotents, then
    its contiguous range of non-idempotents); `masks[i]`, their mask; and
    `tail`, the reflexive down-sets of the non-idempotents.
    """

    __slots__ = (
        "partition", "size", "elem", "index", "block_of", "dom", "ran",
        "with_dom", "with_ran", "compose", "offsets", "members", "masks",
        "tail",
    )

    def __init__(self, partition, groups):
        if len(partition) != len(groups):
            raise ValueError("one group per block required")
        m = sum(map(len, partition))
        if sorted(x for X in partition for x in X) != list(range(m)):
            raise ValueError("blocks must partition the elements of E")
        if any(len(partition[i]) < len(partition[i + 1])
               for i in range(len(partition) - 1)):
            raise ValueError("blocks must be weakly decreasing in size")
        self.partition = partition

        cell_data = [
            _block_cells(len(X), G) for X, G in zip(partition, groups)
        ]
        size = m + sum(
            len(data[0]) - len(X) for X, data in zip(partition, cell_data)
        )
        elem = [None] * m
        compose = [None] * size
        offsets = []
        members = []
        for i, X in enumerate(partition):
            cells, _, cell_prods, _ = cell_data[i]
            off = len(elem)
            for e in X:
                elem[e] = (i, e, e, 0)
            elem.extend((i, X[a], X[b], g) for a, b, g in cells[len(X):])
            block = X + tuple(range(off, len(elem)))
            for s, pairs in zip(block, cell_prods):
                row = [-1] * size
                for t, st in pairs:
                    row[block[t]] = block[st]
                compose[s] = _shared(tuple(row))
            offsets.append(off)
            members.append(_shared(block))
        self.elem = tuple(map(_shared, elem))
        self.size = size
        self.offsets = _shared(tuple(offsets))
        self.index = {t: s for s, t in enumerate(self.elem)}
        block_of, ran, dom, _ = zip(*elem)
        self.block_of, self.ran, self.dom = map(_shared, (block_of, ran, dom))
        # per idempotent e, the mask of the elements with domain (range) e
        with_dom, with_ran = [0] * m, [0] * m
        for s, (_, r, d, _) in enumerate(elem):
            with_dom[d] |= 1 << s
            with_ran[r] |= 1 << s
        self.with_dom = _shared(tuple(with_dom))
        self.with_ran = _shared(tuple(with_ran))
        self.compose = tuple(compose)
        self.members = tuple(members)
        self.masks = _shared(tuple(sum(1 << s for s in b) for b in members))
        self.tail = _shared(tuple(1 << s for s in range(m, size)))


def _layout(partition, groups) -> _Layout:
    """The layout of `partition` over `groups`, built on first use.  Groups
    enter the key as their tables, so a new `Group` object with a known
    table adds no layout."""
    key = (partition, tuple([G.mul for G in groups]))
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = _Layout(partition, groups)
    return layout


class GroupoidBasis:
    """Matrix-unit basis with blocks indexed by a D-partition of E.

    Its element list, `compose` rows, `index`, `dom`/`ran`/`block_of`,
    `with_dom`/`with_ran` and `offsets` are those of its shared `_Layout`;
    it adds E, the caller's own groups and the search order that E sets
    (`pos_blocks`, `pos_elems`, `pos_mask`, `covered_positions`,
    `root_down`).
    """

    __slots__ = _Layout.__slots__ + (
        "E", "groups",
        "pos_blocks", "pos_elems", "pos_mask", "covered_positions",
    )

    def __init__(self, E, partition, groups):
        groups = tuple(groups)
        layout = _layout(tuple(map(tuple, partition)), groups)
        # with_dom has one entry per idempotent of the layout
        if len(layout.with_dom) != E.size:
            raise ValueError("blocks must partition the elements of E")
        for name in _Layout.__slots__:
            setattr(self, name, getattr(layout, name))
        self.E = E
        self.groups = groups
        partition = self.partition
        idem_block = self.block_of[:E.size]

        # search order: deepest-reaching blocks first
        lev = E.down_level
        keys = [(-max(map(lev.__getitem__, X)), -len(X), X) for X in partition]
        order = tuple(sorted(range(len(keys)), key=keys.__getitem__))
        pos_of_block = [0] * len(keys)
        for p, i in enumerate(order):
            pos_of_block[i] = p
        self.pos_blocks = order
        self.pos_elems = tuple(map(layout.members.__getitem__, order))
        self.pos_mask = tuple(map(layout.masks.__getitem__, order))

        pos = [pos_of_block[i] for i in idem_block]
        cov = [set() for _ in keys]
        for lo, hi in E.covers:
            if pos[lo] != pos[hi]:
                cov[pos[hi]].add(pos[lo])
        self.covered_positions = tuple([tuple(sorted(c)) for c in cov])

    def __repr__(self):
        sig = ", ".join(
            f"{len(X)}x{len(X)}({G.name})"
            for X, G in zip(self.partition, self.groups)
        )
        return f"GroupoidBasis({sig})"

    def root_down(self):
        """Order on idempotents inherited from E; everything else reflexive."""
        return self.E.down + self.tail


def e_groupoid(E, P, f) -> GroupoidBasis:
    """Basis of the block algebra determined by (E, D-partition, groups)."""
    return GroupoidBasis(E, P, f)


# ---------------------------------------------------------------------------
# cross-block possibilities

def _wreath_homs(G: Group, H: Group, m: int):
    """The elements of the wreath-style group of pairs (permutation of m
    slots, H-element per slot), identity first, its multiplication table,
    and all homomorphisms from G into it, each a tuple of element indices,
    one image per G element."""
    elements = [
        (s, h)
        for s in sorted(itertools.permutations(range(m)))
        for h in itertools.product(range(H.order), repeat=m)
    ]
    index = {w: i for i, w in enumerate(elements)}
    hmul = H.mul
    table = tuple(
        tuple(
            index[tuple(s1[z] for z in s2),
                  tuple(hmul[h1[s2[z]]][h2[z]] for z in range(m))]
            for s2, h2 in elements
        )
        for s1, h1 in elements
    )
    # generator g may map to w only if w^o(g) = 1
    cands = []
    for g in G.generating_set():
        powers = list(range(len(elements)))
        for _ in range(G.element_order(g) - 1):
            powers = [table[p][w] for w, p in enumerate(powers)]
        cands.append([w for w, p in enumerate(powers) if p == 0])
    return elements, table, tuple(G.homomorphisms(cands, table))


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

    hi_cells = _block_cells(x, G)[0]
    lo_at = _block_cells(y, H)[1]
    elements, table, homs = _wreath_homs(G, H, m)
    inv = [row.index(0) for row in table]
    ho = H.order
    results = []
    for hom in homs:
        for choice in itertools.product(range(len(elements)), repeat=x - 1):
            tau = (0,) + choice
            masks = []
            for a, b, g in hi_cells:
                sig, hv = elements[table[table[tau[a]][hom[g]]][inv[tau[b]]]]
                rows, cols = below[a], below[b]
                mask = 0
                for z in range(m):
                    mask |= 1 << lo_at[(rows[sig[z]] * y + cols[z]) * ho + hv[z]]
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
    others = [t for t in elems if t != ref]
    for q in range(new_pos):
        bm = basis.pos_mask[q]
        r = (down[ref] & bm).bit_count()
        for t in others:
            if (down[t] & bm).bit_count() != r:
                return False
    return True


def _children(basis: GroupoidBasis, down, new_pos: int):
    """Extend `down`, an order on the first `new_pos` blocks in search
    order, over the next block in every valid way.

    Each covered pair's possibilities come from `poset_possibilities`, whose
    block-local lists `_POSS_CACHE` holds for the whole process.
    `_passes_cardinality_test` is the only check after the closure: a pair
    the closure adds beyond the chosen possibility on a covered block (an
    earlier one, by the D-partition condition) lifts an element's count in
    that block above that of the new block's least idempotent, which keeps
    its E-down-set there.
    """
    elems = basis.pos_elems[new_pos]
    polists = [poset_possibilities(basis, new_pos, q)
               for q in basis.covered_positions[new_pos]]
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
        if _passes_cardinality_test(basis, nd, new_pos):
            yield tuple(nd)


def g_posets(basis: GroupoidBasis):
    """Stream every partial order on the basis usable by the construction,
    each as its tuple of down-set masks, one per basis element, stepping
    over no point block over C1: its one child is its parent."""
    steps = [p for p in range(1, len(basis.pos_blocks))
             if len(basis.pos_elems[p]) > 1]
    k = len(steps)

    def rec(depth, down):
        if depth == k:
            yield down
            return
        for child in _children(basis, down, steps[depth]):
            yield from rec(depth + 1, child)

    yield from rec(0, basis.root_down())


# ---------------------------------------------------------------------------
# full validation (tests)


def validate_hypotheses(basis: GroupoidBasis, down) -> bool:
    """Check all construction hypotheses on a full basis order; raises on failure."""
    n = basis.size
    E = basis.E
    index, groups = basis.index, basis.groups
    inv = [index[(i, b, a, groups[i].inv[g])] for i, a, b, g in basis.elem]
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
