"""Posets and meet-semilattices on bitmask rows, with isomorph-free generation.

`meet_semilattices(m)` streams one representative per isomorphism class.
Every emitted structure is labeled by a canonical linear extension, so
x <= y implies index(x) <= index(y) and the minimum is element 0.  That
normalization is load-bearing: meets, cover parsing and the extension step
all use "highest set bit" as "greatest element of a down-set".

Level m+1 is generated from level m: each parent is extended by a new
maximal element in every admissible way, and each child is reduced to its
canonical form, which is read off its canonical key (the key lists every
element's strict down-set in canonical labels).  The admissible lower sets
(`_extension_ideals`) come from one fold over the parent's down-set masks,
one element at a time in label order.  The canonical search tries one
member of each class of twins (elements with equal strict down- and
up-sets), since swapping twins is an automorphism.  Parents are independent,
so `semilattice_level(m, mapper)` can map them over a process pool; the
first of each form over the parents in order is kept, which gives the same
level, order and labels for every mapper.

The canonical search also yields automorphism generators, from which
`owned_children` finds the children a semilattice owns under canonical
augmentation, in its labels with the new element last: over level m, one
per class of order m + 1.  Invariant keys of the maximal elements settle
most children; a tie is settled by an automorphism that swaps the new
element with the tied one (`_swap`), or else by the child's canonical
labeling, which few children need.  The engine's walk runs the same test
(`_owned`), which also derives each owned child's generators and extension
ideals from the parent's (`_inherit`: the stabilizer of the new element
plus those swaps); the engine's orbit counts use those generators and
`_orbits`.

A poset is its tuple of down-set masks: `down_levels` takes that tuple
directly, and `automorphisms` lists the automorphisms of one poset.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations

__all__ = [
    "Poset",
    "MeetSemilattice",
    "meet_semilattices",
    "semilattice_level",
    "owned_children",
    "down_levels",
    "automorphisms",
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
        self._covers = None  # built on the first read of `covers`

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

    __slots__ = ("meet", "_down_level")

    def __init__(self, down):
        super().__init__(down)
        n = self.size
        down = self.down
        for j in range(n):
            if not down[j] >> j & 1:
                raise ValueError("a down-set must contain its own element")
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
        self._down_level = None

    def has_maximum(self) -> bool:
        """The labels are a linear extension, so only the last can be top."""
        return self.down[-1] == (1 << self.size) - 1

    @property
    def down_level(self):
        """Per element, its 0-based down-level index (0 = maximal elements)."""
        if self._down_level is None:
            lev = [0] * self.size
            for i, level in enumerate(down_levels(self.down)):
                for x in level:
                    lev[x] = i
            self._down_level = tuple(lev)
        return self._down_level


# ---------------------------------------------------------------------------
# level decomposition; down[x] is the down-set mask of x, as in Poset.down


def down_levels(down):
    """Peel maximal elements repeatedly; the levels partition the poset.
    A pass that finds no maximal element (not a poset) raises ValueError."""
    left = (1 << len(down)) - 1
    levels = []
    while left:
        below = 0
        for x in _bits(left):
            below |= down[x] ^ (1 << x)
        top = left & ~below
        if not top:
            raise ValueError("not a poset: no maximal element left")
        levels.append(tuple(_bits(top)))
        left ^= top
    return levels


# ---------------------------------------------------------------------------
# automorphism search


def automorphisms(poset: Poset):
    """Yield every automorphism of the poset as an image tuple, the identity
    first; an element maps only to one with as many elements below and as
    many above it."""
    n = poset.size
    down = poset.down
    sizes = [(d.bit_count(), u.bit_count()) for d, u in zip(down, poset.up)]
    cand = [[b for b in range(n) if sizes[b] == sizes[a]] for a in range(n)]
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
    """Minimal (color, predecessors-mask) sequence over all linear extensions,
    the first labeling that spells it, and generators of Aut(poset); the
    colors are the poset's `_refined_colors`.

    Returns (key, labels, gens).  The key determines the poset up to
    isomorphism.  Entry i is the (color, mask) of the element labeled i, and
    the mask has bit j set when the element labeled j lies below it: the
    mask is that element's strict down-set in canonical labels, so the key
    spells the canonical form (see `_canonical_form`).  labels[i] is the
    element labeled i by the first leaf with the key; gens are image tuples.

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

    Aut acts regularly on the labelings that spell the key, and the search
    reaches exactly those that place twins in index order, so the swaps of
    adjacent twins and the maps from the first such leaf to the others
    generate Aut (McKay and Piperno, "Practical graph isomorphism, II").
    """
    sdown = [down[x] ^ (1 << x) for x in range(n)]
    below = [list(_bits(d)) for d in sdown]
    above = [[] for _ in range(n)]
    for x, ys in enumerate(below):
        for y in ys:
            above[y].append(x)
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
    leaves = []  # the labelings that spell best, in search order
    seq = []
    placed = [0] * n  # placed[i]: the element labeled i on this path

    def rec(placedmask, equal):
        """Search below the current prefix; True if a new best was found."""
        nonlocal best, leaves
        depth = len(seq)
        if depth == n:
            if best is None or not equal:
                best = tuple(seq)
                leaves = [tuple(placed)]
                return True
            leaves.append(tuple(placed))
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
            placed[depth] = x
            if rec(placedmask | (1 << x), equal):
                found = equal = True
            for y in above[x]:
                posmask[y] ^= bit
        seq.pop()
        return found

    rec(0, True)
    first = leaves[0]
    # (x, image) pairs sorted by x list the images in image-tuple order
    gens = [tuple(y for _, y in sorted(zip(first, leaf))) for leaf in leaves[1:]]
    for x in range(n):
        if earlier[x]:  # swap x with the twin just before it
            gen = list(range(n))
            a = earlier[x].bit_length() - 1
            gen[a], gen[x] = x, a
            gens.append(tuple(gen))
    return best, first, gens


def _canonical_form(n, down):
    """Down-set masks of the poset in canonical labels, read off its key."""
    key, _, _ = _canonical_labeling(n, down)
    return tuple(mask | 1 << i for i, (_, mask) in enumerate(key))


def _orbits(items, images):
    """The orbits of `items` under a list of generators, each from its first
    item in list order, in breadth-first order (`_stabilizer` replays that
    search).  images(item) lists the item's images under the generators;
    every image must be among the items."""
    seen = set()
    for item in items:
        if item in seen:
            continue
        seen.add(item)
        orbit = [item]
        for y in orbit:
            for image in images(y):
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        yield orbit


def _point_orbits(n, gens):
    """roots[x]: the least point of the orbit of x under `gens`."""
    roots = list(range(n))
    for orbit in _orbits(range(n), lambda x: [g[x] for g in gens]):
        for x in orbit:
            roots[x] = orbit[0]
    return roots


# ---------------------------------------------------------------------------
# isomorph-free generation


def _grow(down, ideals, k):
    """One step of the fold below: the extension ideals of the first k + 1
    elements of `down` from `ideals`, those of the first k.  An ideal I stays
    iff I & below_k has a greatest element, and I | 1 << k joins iff I
    contains below_k, the strict down-set of k."""
    below = down[k] ^ 1 << k
    grown = []
    for ideal in ideals:
        common = ideal & below
        if down[common.bit_length() - 1] & common == common:
            grown.append(ideal)
        if common == below:
            grown.append(ideal | 1 << k)
    return grown


def _extension_ideals(down):
    """Strict down-sets usable as the lower set of a new maximal element.

    A candidate D must be an order ideal such that D intersected with every
    principal down-set has a greatest element; that keeps all binary meets
    defined after the extension.  The list grows one element at a time
    (`_grow`), along the labels (a linear extension, so element 0 is the
    minimum and lies in every candidate).  The candidates are then sorted by
    their ascending maximal elements, which is the order of an ascending
    search over the antichains that span them.
    """
    ideals = [1]
    for k in range(1, len(down)):
        ideals = _grow(down, ideals, k)
    up = Poset(down).up
    return sorted(ideals, key=lambda D: tuple(
        x for x in _bits(D) if up[x] & D == 1 << x))


def _children(pdown):
    """Canonical forms of the one-point extensions of one semilattice P by a
    new maximal element, one per Aut(P)-orbit of ideals, in ideal order."""
    n = len(pdown)
    _, _, gens = _canonical_labeling(n, pdown)
    return [_canonical_form(n + 1, pdown + (orbit[0] | (1 << n),))
            for orbit in _orbits(_extension_ideals(pdown),
                                       _mask_images(n, gens))]


def _mask_images(n, gens):
    """A function from an n-bit mask to its images under each permutation of
    `gens`, in order.  Each permutation gets two tables, and the image of D
    is lo[D & (1 << h) - 1] | hi[D >> h], h = n // 2."""
    h, low = n // 2, (1 << n // 2) - 1
    tables = []
    for g in gens:
        pair = []
        for a, b in ((0, h), (h, n)):
            t = [0]
            for x in range(a, b):  # t[i] is the image of the mask i << a
                t += [image | 1 << g[x] for image in t]
            pair.append(t)
        tables.append(pair)
    return lambda D: [lo[D & low] | hi[D >> h] for lo, hi in tables]


def _inherit(pdown, gens, ideals, images, orbit, swaps, cgens):
    """(generators of Aut(E), E's extension ideals in some order) for the
    child E = P + z of `_owned`, z = |P| with the strict down-set orbit[0],
    from P's generators and extension ideals (`ideals`).

    If E was labeled on a tie, `cgens` are its generators.  Else z's orbit
    is z and the rivals that `swaps` swap with it, so Aut(E) is generated
    by the stabilizer of z, which is the stabilizer of orbit[0] in Aut(P)
    (`_stabilizer`) fixing z, and the swaps.  The ideals are one more step
    of the fold.
    """
    n = len(pdown)
    if cgens is None:
        cgens = [g + (n,) for g in _stabilizer(n, gens, orbit, images)]
        cgens += swaps
    return cgens, _grow(pdown + (orbit[0] | 1 << n,), ideals, n)


def _stabilizer(n, gens, orbit, images):
    """Generators of the stabilizer of orbit[0] in the group that the
    permutations `gens` of n points generate, where `orbit` is an orbit of
    `_orbits` and images(y) lists y's images under `gens`.  An orbit of one
    item is fixed by every generator, so they are `gens`.  Else they are
    the Schreier generators u_{g(y)}^-1 g u_y over the y of the orbit and g
    of `gens`, where u_y maps orbit[0] to y (Seress, "Permutation Group
    Algorithms", 2003), found in order by a replay of the breadth-first
    search of `_orbits`, without duplicates or the identity."""
    if len(orbit) == 1:
        return list(gens)
    u = {orbit[0]: tuple(range(n))}
    out = {}
    for y in orbit:
        for g, gy in zip(gens, images(y)):
            gu = tuple([g[x] for x in u[y]])
            if gy not in u:
                u[gy] = gu
                continue
            inv = sorted(range(n), key=u[gy].__getitem__)
            out[tuple([inv[x] for x in gu])] = None
    out.pop(tuple(range(n)), None)
    return list(out)


def _swap(child, x):
    """An automorphism of the semilattice with these down-set masks that
    swaps its last element z with the maximal element x, as an involution's
    image tuple, or None if none is found.  It pairs each point of D - X
    with one of X - D, D and X the strict down-sets of z and x, and fixes
    the rest: every pairing is tried while the two sets have one size of at
    most 3, and one is kept if it maps each down-set mask onto the mask of
    its element's image.  Twins (D = X) give the plain swap unchecked."""
    n = len(child) - 1
    D, X = child[n] ^ 1 << n, child[x] ^ 1 << x
    swap = list(range(n + 1))
    swap[x], swap[n] = n, x
    if D == X:
        return tuple(swap)
    lose, gain = list(_bits(D & ~X)), list(_bits(X & ~D))
    if len(lose) != len(gain) or len(lose) > 3:
        return None
    for pairing in permutations(gain):
        pairs = [(x, n), *zip(lose, pairing)]
        g = swap[:]
        for a, b in pairs[1:]:
            g[a], g[b] = b, a
        for y, mask in enumerate(child):
            for a, b in pairs:  # the image of mask: swap its bits a and b
                if (mask >> a ^ mask >> b) & 1:
                    mask ^= 1 << a | 1 << b
            if mask != child[g[y]]:
                break
        else:
            return tuple(g)
    return None


def _owned(pdown, gens, ideals):
    """Yield (D, inherit) for each one-point extension of the semilattice P
    that P owns, given generators of Aut(P) and P's extension ideals: D is
    the new maximal element's strict down-set, and inherit() gives the
    child's generators and extension ideals (`_inherit`).

    Ownership is McKay's canonical augmentation ("Isomorph-free exhaustive
    generation", 1998): P extends by one ideal per Aut(P)-orbit (each ideal
    its own orbit with no generators), and owns the child iff its new
    element shares an Aut(child)-orbit with the canonical deletion element,
    a maximal element of largest key, labeled last among those.  The key
    of x is the sorted codes |down y| << 6 | |up y| over the y <= x
    (|up y| < 64, so the codes order as the pairs do), read in the child,
    where z is above every y in D; no automorphism changes it.  A rival is
    an old maximal element outside D with a key at least the new element's,
    so with at least as large a down-set, and a larger down-set means a
    larger key: the codes are built only for rivals of equal down-set size.
    A rival of larger key rejects the child.  A tie (a rival of equal key)
    that `_swap` swaps with z shares its orbit, so the child is kept at
    once when every tie has a swap, and the candidates of largest key then
    all lie in z's orbit.  Only a tie with no swap needs the child's
    labeling.
    """
    n = len(pdown)
    covered = 0  # the elements below some other element
    for x, d in enumerate(pdown):
        covered |= d ^ 1 << x
    size = [d.bit_count() for d in pdown]
    tall = [0] * (n + 3)  # tall[h]: the maximal elements with |down x| >= h
    for x in _bits(~covered & (1 << n) - 1):
        tall[size[x]] |= 1 << x
    for h in range(n, 0, -1):
        tall[h] |= tall[h + 1]
    code = []  # code[y]: |down y| << 6 | |up y| in P, built on the first tie

    def key(down, D):  # over the y in `down`, in the child with z above D
        if not code:
            up = [0] * n
            for d in pdown:
                for y in _bits(d):
                    up[y] += 1
            code.extend([s << 6 | u for s, u in zip(size, up)])
        return sorted([code[y] + (D >> y & 1) for y in _bits(down)])

    images = _mask_images(n, gens)
    # a rival of larger down-set rejects D and all its images: drop them first
    kept = [D for D in ideals if not tall[D.bit_count() + 2] & ~D]
    for orbit in _orbits(kept, images) if gens else ([D] for D in kept):
        D = orbit[0]
        height = D.bit_count() + 1  # the new element's down-set size
        swaps, cgens = [], None
        if tall[height] & ~D:
            new = key(D, D) + [height << 6 | 1]  # z's own code is the largest
            rivals = [(x, key(pdown[x], D)) for x in _bits(tall[height] & ~D)]
            if any(rival > new for _, rival in rivals):
                continue
            ties = [x for x, rival in rivals if rival == new]
            child = pdown + (D | 1 << n,)
            swaps = [_swap(child, x) for x in ties]
            if None in swaps:
                _, labels, cgens = _canonical_labeling(n + 1, child)
                orbits = _point_orbits(n + 1, cgens)
                if orbits[max([n] + ties, key=labels.index)] != orbits[n]:
                    continue
        yield D, partial(_inherit, pdown, gens, ideals, images, orbit, swaps,
                         cgens)


def owned_children(pdown, gens):
    """The one-point extensions of the semilattice P that P owns, given
    generators of Aut(P): each is `pdown` plus the new maximal element's
    down-set, a linear extension again (see `_owned`)."""
    n = len(pdown)
    return [pdown + (D | 1 << n,)
            for D, _ in _owned(pdown, gens, _extension_ideals(pdown))]


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
    if not head.isdecimal():  # int() also reads signs, '_' and spaces
        raise ValueError(f"malformed order {head!r} in cover line {line!r}")
    n = int(head)
    if n < 1:
        raise ValueError("order must be positive")
    pairs = []
    if body:
        for tok in body.split(","):
            lo, sep, hi = tok.partition("<")
            if not (sep and lo.isdecimal() and hi.isdecimal()):
                raise ValueError(f"malformed cover {tok!r}")
            u, v = int(lo), int(hi)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"cover {tok!r} out of range")
            if u >= v:
                raise ValueError(f"cover {tok!r} violates the linear extension")
            pairs.append((u, v))
    # u < v, so down[u] is complete before a cover above it reads it
    down = [1 << j for j in range(n)]
    for u, v in sorted(pairs, key=lambda uv: uv[1]):
        down[v] |= down[u]
    E = MeetSemilattice(tuple(down))
    if tuple(sorted(pairs)) != E.covers:
        raise ValueError("cover list is not the sorted transitive reduction")
    return E
