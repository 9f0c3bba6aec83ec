"""Posets and meet-semilattices on bitmask rows, with isomorph-free generation.

`meet_semilattices(m)` streams one representative per isomorphism class.
Every emitted structure is labeled by a canonical linear extension, so
x <= y implies index(x) <= index(y) and the minimum is element 0.  That
normalization is load-bearing: meets, cover parsing and the extension step
all use "highest set bit" as "greatest element of a down-set".
"""

from __future__ import annotations

__all__ = [
    "Poset",
    "MeetSemilattice",
    "ColoredPoset",
    "meet_semilattices",
    "down_levels",
    "up_levels",
    "up_down_levels",
    "colored_isomorphisms",
    "format_cover_line",
    "parse_cover_line",
]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Finite poset; down[j] is the bitmask of {i : i <= j} (including j)."""

    __slots__ = ("size", "down", "up", "_covers")

    def __init__(self, down):
        down = tuple(down)
        n = len(down)
        up = [0] * n
        for j in range(n):
            mask = down[j]
            while mask:
                low = mask & -mask
                up[low.bit_length() - 1] |= 1 << j
                mask ^= low
        self.size = n
        self.down = down
        self.up = tuple(up)
        self._covers = None

    def __eq__(self, other):
        return isinstance(other, Poset) and self.down == other.down

    def __hash__(self):
        return hash(self.down)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.size})"

    def leq(self, i: int, j: int) -> bool:
        return bool((self.down[j] >> i) & 1)

    @property
    def covers(self):
        """Transitive reduction as a sorted list of (lower, upper) pairs."""
        if self._covers is None:
            out = []
            for j in range(self.size):
                sdown = self.down[j] ^ (1 << j)
                for i in _bits(sdown):
                    between = self.down[j] & self.up[i] & ~(1 << i) & ~(1 << j)
                    if not between:
                        out.append((i, j))
            self._covers = tuple(sorted(out))
        return self._covers

    def check(self):
        """Validate reflexivity, antisymmetry and transitivity."""
        n, down = self.size, self.down
        for j in range(n):
            if not (down[j] >> j) & 1:
                raise ValueError("relation is not reflexive")
            for i in _bits(down[j]):
                if i != j and (down[i] >> j) & 1:
                    raise ValueError("relation is not antisymmetric")
                if down[i] & ~down[j]:
                    raise ValueError("relation is not transitive")
        return True

    def maximal_mask(self) -> int:
        return sum(1 << x for x in range(self.size) if self.up[x] == 1 << x)


class MeetSemilattice(Poset):
    """Poset with all binary meets, in canonical linear-extension labels."""

    __slots__ = ("meet", "_down_level_of", "_up_down")

    def __init__(self, down):
        super().__init__(down)
        n = self.size
        down = self.down
        for j in range(n):
            if down[j] >> (j + 1):
                raise ValueError("labels must be a linear extension")
        meet = []
        for a in range(n):
            row = []
            da = down[a]
            for b in range(n):
                common = da & down[b]
                if not common:
                    raise ValueError("pair has no common lower bound")
                h = common.bit_length() - 1
                if down[h] != common:
                    raise ValueError("pair has no meet")
                row.append(h)
            meet.append(tuple(row))
        self.meet = tuple(meet)
        self._down_level_of = None
        self._up_down = None

    def has_maximum(self) -> bool:
        return self.maximal_mask().bit_count() == 1

    def down_level_of(self, x: int) -> int:
        """0-based down-level index of x (0 = maximal elements)."""
        if self._down_level_of is None:
            lev = [0] * self.size
            for i, level in enumerate(down_levels(self)):
                for x_ in level:
                    lev[x_] = i
            self._down_level_of = tuple(lev)
        return self._down_level_of[x]

    def up_down_levels(self):
        if self._up_down is None:
            self._up_down = up_down_levels(self)
        return self._up_down


class ColoredPoset:
    """Poset together with one opaque, orderable color token per element."""

    __slots__ = ("poset", "colors")

    def __init__(self, poset: Poset, colors):
        colors = tuple(colors)
        if len(colors) != poset.size:
            raise ValueError("one color per element required")
        self.poset = poset
        self.colors = colors

    def __eq__(self, other):
        return (
            isinstance(other, ColoredPoset)
            and self.poset == other.poset
            and self.colors == other.colors
        )

    def __hash__(self):
        return hash((self.poset, self.colors))


# ---------------------------------------------------------------------------
# level decompositions


def _peel(n, rel):
    """Levels from repeatedly removing every remaining x whose rel[x] mask
    holds no other remaining element."""
    full = (1 << n) - 1
    removed = 0
    levels = []
    while removed != full:
        lev = tuple(
            x for x in range(n)
            if not (removed >> x) & 1 and not (rel[x] & ~removed & ~(1 << x))
        )
        levels.append(lev)
        for x in lev:
            removed |= 1 << x
    return levels


def down_levels(poset: Poset):
    """Peel maximal elements repeatedly; the levels partition the poset."""
    return _peel(poset.size, poset.up)


def up_levels(poset: Poset):
    """Peel minimal elements repeatedly."""
    return _peel(poset.size, poset.down)


def up_down_levels(poset: Poset):
    """Common refinement of up-levels and down-levels, sorted by min element."""
    d_of = {}
    for i, level in enumerate(down_levels(poset)):
        for x in level:
            d_of[x] = i
    u_of = {}
    for i, level in enumerate(up_levels(poset)):
        for x in level:
            u_of[x] = i
    classes = {}
    for x in range(poset.size):
        classes.setdefault((u_of[x], d_of[x]), []).append(x)
    return sorted((tuple(sorted(v)) for v in classes.values()), key=lambda t: t[0])


# ---------------------------------------------------------------------------
# colored isomorphism search


def colored_isomorphisms(A: ColoredPoset, B: ColoredPoset):
    """Yield every color-preserving poset isomorphism A -> B as an image tuple."""
    pa, pb = A.poset, B.poset
    ca, cb = A.colors, B.colors
    n = pa.size
    if pb.size != n or sorted(ca) != sorted(cb):
        return
    cand = []
    for a in range(n):
        opts = [
            b for b in range(n)
            if cb[b] == ca[a]
            and pb.down[b].bit_count() == pa.down[a].bit_count()
            and pb.up[b].bit_count() == pa.up[a].bit_count()
        ]
        if not opts:
            return
        cand.append(opts)
    images = [-1] * n
    used = [False] * n
    da, db = pa.down, pb.down

    def rec(a):
        if a == n:
            yield tuple(images)
            return
        for b in cand[a]:
            if used[b]:
                continue
            ok = True
            for a2 in range(a):
                b2 = images[a2]
                if ((da[a] >> a2) & 1) != ((db[b] >> b2) & 1) or (
                    (da[a2] >> a) & 1
                ) != ((db[b2] >> b) & 1):
                    ok = False
                    break
            if ok:
                images[a] = b
                used[b] = True
                yield from rec(a + 1)
                used[b] = False
        images[a] = -1

    yield from rec(0)


# ---------------------------------------------------------------------------
# canonical labeling


def _refined_colors(n, below, above):
    """Colors from (#below, #above), refined by the multisets of neighbor
    colors until stable; below[x] and above[x] list the strict neighbors."""
    colors = [(len(below[x]), len(above[x])) for x in range(n)]
    while True:
        rank = {c: r for r, c in enumerate(sorted(set(colors)))}
        cur = [rank[c] for c in colors]
        k = len(rank)
        if k == n:
            return cur
        nxt = [
            (cur[x], tuple(sorted([cur[y] for y in below[x]])),
             tuple(sorted([cur[y] for y in above[x]])))
            for x in range(n)
        ]
        if len(set(nxt)) == k:
            return cur
        colors = nxt


def _canonical_labeling(n, down):
    """Minimal (color, predecessors-mask) sequence over all linear extensions.

    Returns (key, labeling) where labeling[i] is the original index of the
    element assigned label i.  The key determines the poset up to isomorphism.

    The search places one minimal unplaced element per level and only
    follows candidates whose (color, mask) equals the smallest available;
    the mask has bit i set when the element placed at level i lies below the
    candidate.  State is kept incrementally: the placed set travels down the
    recursion, posmask[x] is updated over the up-set of each placed element
    so that a candidate's key costs O(1), and each node carries whether its
    prefix equals the best sequence so far (otherwise it is smaller) instead
    of re-comparing the prefix.  A node whose subtree finds a new best has a
    prefix equal to it from then on.
    """
    sdown = [down[x] ^ (1 << x) for x in range(n)]
    below = [[i for i in range(n) if sdown[x] >> i & 1] for x in range(n)]
    above = [[] for _ in range(n)]
    for x in range(n):
        for i in below[x]:
            above[i].append(x)
    colors = _refined_colors(n, below, above)
    posmask = [0] * n
    best_seq = None
    best_lab = None
    placed = []
    seq = []

    def rec(placedmask, equal):
        """Search below the current prefix; True if a new best was found."""
        nonlocal best_seq, best_lab
        depth = len(placed)
        if depth == n:
            if best_seq is None or not equal:
                best_seq = tuple(seq)
                best_lab = placed.copy()
                return True
            return False
        cands = [
            (colors[x], posmask[x], x) for x in range(n)
            if not (placedmask >> x) & 1 and not sdown[x] & ~placedmask
        ]
        kc, km, _ = min(cands)
        key = (kc, km)
        if best_seq is not None and equal:
            if key > best_seq[depth]:
                return False
            equal = key == best_seq[depth]
        found = False
        bit = 1 << depth
        seq.append(key)
        for c, m, x in cands:
            if c != kc or m != km:
                continue
            placed.append(x)
            for y in above[x]:
                posmask[y] |= bit
            if rec(placedmask | (1 << x), equal):
                found = equal = True
            for y in above[x]:
                posmask[y] ^= bit
            placed.pop()
        seq.pop()
        return found

    rec(0, True)
    return best_seq, best_lab


def _relabel(down, lab):
    n = len(down)
    pos = [0] * n
    for i, p in enumerate(lab):
        pos[p] = i
    out = []
    for i in range(n):
        mask = 0
        for q in _bits(down[lab[i]]):
            mask |= 1 << pos[q]
        out.append(mask)
    return tuple(out)


# ---------------------------------------------------------------------------
# isomorph-free generation


def _extension_ideals(n, down, up):
    """Strict down-sets usable as the lower set of a new maximal element.

    A candidate D must be an order ideal such that D intersected with every
    principal down-set has a greatest element; that keeps all binary meets
    defined after the extension.  Candidates are unions of the principal
    down-sets of an antichain, enumerated by ascending DFS.
    """
    res = []

    def rec(start, dmask, incomp):
        for x in range(start, n):
            if (incomp >> x) & 1:
                continue
            nd = dmask | down[x]
            ok = True
            for a in range(n):
                common = nd & down[a]
                h = common.bit_length() - 1
                if down[h] & common != common:
                    ok = False
                    break
            if ok:
                res.append(nd)
            rec(x + 1, nd, incomp | down[x] | up[x])

    rec(0, 0, 0)
    return res


_LEVELS: list[list[tuple]] = [[(1,)]]


def _ensure_level(m):
    while len(_LEVELS) < m:
        n0 = len(_LEVELS)
        seen = set()
        nxt = []
        for pdown in _LEVELS[n0 - 1]:
            pup = [0] * n0
            for j in range(n0):
                for i in _bits(pdown[j]):
                    pup[i] |= 1 << j
            for D in _extension_ideals(n0, pdown, pup):
                cdown = pdown + (D | (1 << n0),)
                key, lab = _canonical_labeling(n0 + 1, cdown)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(_relabel(cdown, lab))
        _LEVELS.append(nxt)


def meet_semilattices(m: int):
    """Stream the meet-semilattices of order m, one per isomorphism class."""
    if m < 1:
        raise ValueError("order must be positive")
    _ensure_level(m)
    for down in _LEVELS[m - 1]:
        yield MeetSemilattice(down)


def semilattice_count(m: int) -> int:
    if m < 1:
        raise ValueError("order must be positive")
    _ensure_level(m)
    return len(_LEVELS[m - 1])


# ---------------------------------------------------------------------------
# cover-relation file format


def format_cover_line(E: MeetSemilattice) -> str:
    """`m:u1<v1,u2<v2,...` with covers sorted lexicographically; `1:` if none."""
    body = ",".join(f"{u}<{v}" for u, v in E.covers)
    return f"{E.size}:{body}"


def parse_cover_line(line: str) -> MeetSemilattice:
    """Inverse of format_cover_line; validates labels and the meet property."""
    line = line.strip()
    head, sep, body = line.partition(":")
    if not sep:
        raise ValueError(f"malformed cover line: {line!r}")
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"malformed order in cover line: {line!r}") from None
    if n < 1:
        raise ValueError("order must be positive")
    pairs = []
    if body:
        for tok in body.split(","):
            lo, sep, hi = tok.partition("<")
            if not sep:
                raise ValueError(f"malformed cover {tok!r}")
            u, v = int(lo), int(hi)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"cover {tok!r} out of range")
            if u >= v:
                raise ValueError(f"cover {tok!r} violates the linear extension")
            pairs.append((u, v))
    down = [1 << j for j in range(n)]
    for u, v in pairs:
        down[v] |= down[u]
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            new = down[v] | down[u]
            if new != down[v]:
                down[v] = new
                changed = True
    E = MeetSemilattice(tuple(down))
    if tuple(sorted(pairs)) != E.covers:
        raise ValueError("cover list is not the sorted transitive reduction")
    return E
