"""Posets and meet-semilattices on bitmask rows, with isomorph-free generation.

`meet_semilattices(m)` streams one representative per isomorphism class.
Every emitted structure is labeled by a canonical linear extension, so
x <= y implies index(x) <= index(y) and the minimum is element 0.  That
normalization is load-bearing: meets, cover parsing and the extension step
all use "highest set bit" as "greatest element of a down-set".

Level m+1 is generated from level m: each parent is extended by a new
maximal element in every admissible way, and each child is reduced to its
canonical form, which is read off its canonical key (the key lists every
element's strict down-set in canonical labels).  The canonical search tries
one member of each class of twins (elements with equal strict down- and
up-sets), since swapping twins is an automorphism.  Parents are independent,
so `semilattice_level(m, mapper)` can map them over a process pool; the
first of each form over the parents in order is kept, which gives the same
level, order and labels for every mapper.

A poset is its tuple of down-set masks: the level decompositions take that
tuple directly, and `colored_isomorphisms` searches the automorphisms of
one poset that carry one coloring of its elements to another.
"""

from __future__ import annotations

__all__ = [
    "Poset",
    "MeetSemilattice",
    "meet_semilattices",
    "semilattice_level",
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
        """The labels are a linear extension, so only the last can be top."""
        return self.down[-1] == (1 << self.size) - 1

    def down_level_of(self, x: int) -> int:
        """0-based down-level index of x (0 = maximal elements)."""
        if self._down_level_of is None:
            lev = [0] * self.size
            for i, level in enumerate(down_levels(self.down)):
                for x_ in level:
                    lev[x_] = i
            self._down_level_of = tuple(lev)
        return self._down_level_of[x]

    def up_down_levels(self):
        if self._up_down is None:
            self._up_down = up_down_levels(self.down)
        return self._up_down


# ---------------------------------------------------------------------------
# level decompositions; down[x] is the down-set mask of x, as in Poset.down


def down_levels(down):
    """Peel maximal elements repeatedly; the levels partition the poset."""
    left = (1 << len(down)) - 1
    levels = []
    while left:
        below = 0
        for x in _bits(left):
            below |= down[x] ^ (1 << x)
        top = left & ~below
        levels.append(tuple(_bits(top)))
        left ^= top
    return levels


def up_levels(down):
    """Peel minimal elements repeatedly."""
    left = (1 << len(down)) - 1
    levels = []
    while left:
        bottom = 0
        for x in _bits(left):
            if not down[x] & left & ~(1 << x):
                bottom |= 1 << x
        levels.append(tuple(_bits(bottom)))
        left ^= bottom
    return levels


def up_down_levels(down):
    """Common refinement of up-levels and down-levels, sorted by min element."""
    d_of = {}
    for i, level in enumerate(down_levels(down)):
        for x in level:
            d_of[x] = i
    u_of = {}
    for i, level in enumerate(up_levels(down)):
        for x in level:
            u_of[x] = i
    classes = {}
    for x in range(len(down)):
        classes.setdefault((u_of[x], d_of[x]), []).append(x)
    return sorted((tuple(sorted(v)) for v in classes.values()), key=lambda t: t[0])


# ---------------------------------------------------------------------------
# colored isomorphism search


def colored_isomorphisms(poset: Poset, ca, cb):
    """Yield every automorphism p of the poset with cb[p[x]] == ca[x] for
    all x, as an image tuple; ca and cb hold one orderable color per element."""
    n = poset.size
    if len(ca) != n or len(cb) != n:
        raise ValueError("one color per element required")
    if sorted(ca) != sorted(cb):
        return
    down = poset.down
    sizes = [(down[x].bit_count(), poset.up[x].bit_count()) for x in range(n)]
    cand = []
    for a in range(n):
        opts = [
            b for b in range(n) if cb[b] == ca[a] and sizes[b] == sizes[a]
        ]
        if not opts:
            return
        cand.append(opts)
    images = [-1] * n
    used = [False] * n

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
                if ((down[a] >> a2) & 1) != ((down[b] >> b2) & 1) or (
                    (down[a2] >> a) & 1
                ) != ((down[b2] >> b) & 1):
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

    The returned key determines the poset up to isomorphism.  Entry i is the
    (color, mask) of the element labeled i, and the mask has bit j set when
    the element labeled j lies below it: the mask is that element's strict
    down-set in canonical labels, so the key spells the canonical form (see
    `_canonical_form`).

    The search places one minimal unplaced element per level and only
    follows candidates whose (color, mask) equals the smallest available.
    Twins, elements with equal strict down-sets and equal strict up-sets,
    are interchangeable: swapping two unplaced twins is an automorphism that
    fixes the prefix, so only the first unplaced member of each twin class
    is tried (k interchangeable atoms give one path, not k! of them).
    State is kept incrementally: the placed set travels down the recursion,
    posmask[x] is updated over the up-set of each placed element so that a
    candidate's key costs O(1), and each node carries whether its prefix
    equals the best sequence so far (otherwise it is smaller) instead of
    re-comparing the prefix.  A node whose subtree finds a new best has a
    prefix equal to it from then on.
    """
    sdown = [down[x] ^ (1 << x) for x in range(n)]
    below = [[i for i in range(n) if sdown[x] >> i & 1] for x in range(n)]
    above = [[] for _ in range(n)]
    for x in range(n):
        for i in below[x]:
            above[i].append(x)
    colors = _refined_colors(n, below, above)
    # earlier[x]: the twins of x with smaller indices
    earlier = [0] * n
    twins = {}
    for x in range(n):
        cls = (sdown[x], tuple(above[x]))
        earlier[x] = twins.get(cls, 0)
        twins[cls] = earlier[x] | 1 << x
    posmask = [0] * n
    best = None
    seq = []

    def rec(placedmask, equal):
        """Search below the current prefix; True if a new best was found."""
        nonlocal best
        depth = len(seq)
        if depth == n:
            if best is None or not equal:
                best = tuple(seq)
                return True
            return False
        cands = [
            (colors[x], posmask[x], x) for x in range(n)
            if not (placedmask >> x) & 1 and not sdown[x] & ~placedmask
            and not earlier[x] & ~placedmask
        ]
        kc, km, _ = min(cands)
        key = (kc, km)
        if best is not None and equal:
            if key > best[depth]:
                return False
            equal = key == best[depth]
        found = False
        bit = 1 << depth
        seq.append(key)
        for c, m, x in cands:
            if c != kc or m != km:
                continue
            for y in above[x]:
                posmask[y] |= bit
            if rec(placedmask | (1 << x), equal):
                found = equal = True
            for y in above[x]:
                posmask[y] ^= bit
        seq.pop()
        return found

    rec(0, True)
    return best


def _canonical_form(n, down):
    """Down-set masks of the poset in canonical labels, read off its key."""
    return tuple(
        mask | 1 << i for i, (_, mask) in enumerate(_canonical_labeling(n, down))
    )


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


def _children(pdown):
    """Canonical forms of the one-point extensions of one semilattice by a
    new maximal element, in the order of their ideals, each form once."""
    n = len(pdown)
    return list(dict.fromkeys(
        _canonical_form(n + 1, pdown + (D | (1 << n),))
        for D in _extension_ideals(n, pdown, Poset(pdown).up)
    ))


_LEVELS: list[tuple] = [((1,),)]


def semilattice_level(m: int, mapper=map):
    """Down-set masks of the meet-semilattices of order m, one per
    isomorphism class, in generation order; levels are cached per process.

    A missing level is built from the one below: `mapper(_children, parents)`
    gives each parent's forms, and the first of each form over the parents
    in order is kept.  Any mapper that returns results in input order, such
    as a process pool's `map`, builds the same level.
    """
    if m < 1:
        raise ValueError("order must be positive")
    while len(_LEVELS) < m:
        _LEVELS.append(tuple(dict.fromkeys(
            form for forms in mapper(_children, _LEVELS[-1]) for form in forms
        )))
    return _LEVELS[m - 1]


def meet_semilattices(m: int):
    """Stream the meet-semilattices of order m, one per isomorphism class."""
    for down in semilattice_level(m):
        yield MeetSemilattice(down)


def semilattice_count(m: int) -> int:
    return len(semilattice_level(m))


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
