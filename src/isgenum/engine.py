"""The enumeration pipeline, the count ledger, the drivers and output.

Like the paper, every mode works one semilattice E of idempotents at a
time.  Over one E, `_classes` runs one pipeline per block-size shape:

  _skeletons   the basis of the first skeleton (D-partition, group map)
               of each Aut(E)-orbit
  _candidates  the semigroup of every order on one basis
  _keep_new    one representative per isomorphism class of one skeleton:
               candidates are bucketed by `invariants` (the order profile
               of their non-idempotents), then tested with `is_isoc`
               against their bucket

An isomorphism of candidates over E restricts to an automorphism of E that
carries one skeleton to the other, so every skeleton of an orbit holds a
member of each of the orbit's classes, and no class spans two orbits: the
first skeletons keep the classes, and their order, of a search over all.

`run_enumeration` maps `_semilattice_task` over the canonical levels
(`semilattice_level`) an eighth of a level at a time: counts mode the
levels 1..max(1, n - 4), full mode the levels 1..n, whose labels its
tables follow.  Ledgers merge in task order, so ledgers and output files
do not depend on the worker count.  A task is E's down-set masks alone.
Each step picks E's rows by k = n - |E|; at k = 0, E is its own class.
Counts mode reads the rows k <= 4 off Aut(E)-orbits (`_orbit_row`; C2 at
k points by a rule on covers, `_c2_classes`, and the Brandt cells from
twin blocks), every other all-points cell off orbits on strong
semilattices of groups (`_clifford_cell`: one placement of groups per
Aut(E)-orbit, then the orbits of its maps under its stabilizer), and
searches the rest.  From k = 4 on, a step also runs on each semilattice
that E owns under canonical augmentation (`_owned`: keys and swaps settle
most ties), with generators and extension ideals from E's, and at k = 1
only counts them.  A rigid E (no generators) searches no orbits.  Full
mode writes each task's tables as they arrive.  `enumerate_semigroups` streams
`_classes` over every E; `enumerate_fixed` runs `_keep_new` on one skeleton.

The pipeline calls every layer through this module's own names (`esn`,
`g_posets`, `is_isoc`, ...), which is where `bench/tracer.py` wraps them.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
from functools import cache, partial
from time import perf_counter

from . import groups as _groups
from .esn import esn
from .gposets import e_groupoid, g_posets
from .iso import invariants, is_isoc
from .orders import (
    MeetSemilattice,
    Poset,
    _bits,
    _canonical_labeling,
    _extension_ideals,
    _mask_images,
    _orbits,
    _owned,
    _point_orbits,
    _stabilizer,
    format_cover_line,
    meet_semilattices,
    semilattice_level,
)
from .shapes import (
    admissible_compositions,
    block_order,
    d_partitions,
    group_maps,
    is_d_partition,
    partitions,
)

__all__ = [
    "EnumerationConfig",
    "CountLedger",
    "RunResult",
    "enumerate_semigroups",
    "enumerate_counts_only",
    "enumerate_fixed",
    "run_enumeration",
    "breakdown_csv",
    "write_cayley_files",
    "write_semilattice_file",
]


class EnumerationConfig:
    """Knobs for one enumeration run."""

    __slots__ = ("order", "out", "threads", "progress")

    def __init__(self, order: int, out: str | None = None, threads: int = 1,
                 progress: bool = False):
        if order < 1:
            raise ValueError("order must be positive")
        if order > _groups.MAX_CATALOG_ORDER:
            raise ValueError("group catalog is limited to order "
                             f"{_groups.MAX_CATALOG_ORDER}")
        if threads < 1:
            raise ValueError("thread count must be positive")
        # the pool forks every worker at its first task
        limit = max(2, os.cpu_count() or 1)
        if threads > limit:
            raise ValueError(f"thread count is limited to {limit} here")
        if out is not None:  # an unusable directory fails before a run
            os.makedirs(out, exist_ok=True)
        self.order = order
        self.out = out          # a full run's directory of .tbl files
        self.threads = threads
        self.progress = progress


class CountLedger:
    """Per-(idempotent count, shape tuple) tallies plus run statistics.

    Each cell holds [isgs, commutative isgs, monoids, commutative monoids,
    contributing semilattices, contributing lattices].
    """

    __slots__ = ("cells", "generated", "immediate", "iso_tests")

    def __init__(self):
        self.cells = {}
        self.generated = 0
        self.immediate = 0
        self.iso_tests = 0

    def add_cell(self, m, shape, isgs, comm, is_lattice):
        if isgs:
            self.add(m, shape, (isgs, comm, isgs, comm, 1, 1) if is_lattice
                     else (isgs, comm, 0, 0, 1, 0))

    def add(self, m, shape, vals):
        """Add the six tallies `vals` to the cell (m, shape)."""
        cell = self.cells.setdefault((m, shape), [0, 0, 0, 0, 0, 0])
        for i, v in enumerate(vals):
            cell[i] += v

    def add_stats(self, generated, immediate, iso_tests):
        self.generated += generated
        self.immediate += immediate
        self.iso_tests += iso_tests

    def merge(self, other):
        """Add another ledger's cells and statistics to this one."""
        for (m, shape), vals in other.cells.items():
            self.add(m, shape, vals)
        self.add_stats(other.generated, other.immediate, other.iso_tests)

    def totals(self):
        """(inverse semigroups, commutative, monoids, commutative monoids)."""
        out = [0, 0, 0, 0]
        for vals in self.cells.values():
            for i in range(4):
                out[i] += vals[i]
        return tuple(out)

    def cell(self, m, shape):
        return tuple(self.cells.get((m, tuple(shape)), (0, 0, 0, 0, 0, 0)))

    def sorted_cells(self):
        return sorted(
            self.cells.items(),
            key=lambda kv: (kv[0][0], tuple(-p for p in kv[0][1])),
        )

    def __eq__(self, other):
        return isinstance(other, CountLedger) and self.cells == other.cells

    def __repr__(self):
        t = self.totals()
        return f"CountLedger(isgs={t[0]}, comm={t[1]}, ims={t[2]}, cims={t[3]})"


class RunResult:
    """What a run returns: its merged ledger."""

    __slots__ = ("ledger",)

    def __init__(self, ledger: CountLedger):
        self.ledger = ledger


# ---------------------------------------------------------------------------
# the pipeline


def _skeletons(E, comps, dparts, catalog, gens):
    """Basis of the first (D-partition, group map) of each orbit under the
    automorphisms of E that `gens` generate, over every composition.

    An automorphism maps each block, and its group with it, and the blocks
    are put back in `block_order`, as `d_partitions` lists them; every
    image must be among the skeletons listed.
    """
    skeletons = [(P, f) for C in comps for P in dparts
                 for f in group_maps(P, C, catalog)]

    def images(skeleton):
        for g in gens:
            moved = sorted(((tuple(sorted(g[x] for x in X)), G)
                            for X, G in zip(*skeleton)),
                           key=lambda block: block_order(block[0]))
            yield tuple(zip(*moved))  # (blocks, groups)

    for orbit in _orbits(skeletons, images):
        yield e_groupoid(E, *orbit[0])


def _candidates(basis):
    """The semigroup of every order on the basis, isomorphic copies included."""
    for down in g_posets(basis):
        yield esn(basis, down)


def _keep_new(candidates, stats):
    """Yield each candidate that is not isomorphic to an earlier one.

    Candidates are bucketed by `invariants` and compared with `is_isoc`
    against their own bucket only.  The first candidate is yielded at once
    and keyed only when a second one arrives, so a skeleton with one order
    computes no key.  `stats` is [generated, immediate, iso_tests], updated
    in place: candidates seen, candidates that found their bucket empty,
    and `is_isoc` calls.
    """
    store, first = {}, None
    for S in candidates:
        stats[0] += 1
        if first is None:
            first = S
            stats[1] += 1
            yield S
            continue
        if not store:
            store[invariants(first)] = [first]
        bucket = store.setdefault(invariants(S), [])
        if not bucket:
            stats[1] += 1
        for T in bucket:
            stats[2] += 1
            if is_isoc(S, T):
                break
        else:
            bucket.append(S)
            yield S


def _classes(n, E, gens, clifford=True):
    """Yield (shape, kept, stats) per shape over E: one representative per
    class of order n with D-partitions of that shape, from one store per
    orbit representative skeleton, and that search's [generated, immediate,
    iso_tests].  `gens` generate Aut(E); the all-points shape is searched
    only if `clifford`, which counts mode leaves False."""
    catalog = _groups.catalog(n)
    for shape in partitions(E.size):
        if shape[0] == 1 and not clifford:
            continue
        comps = admissible_compositions(n, shape)
        if not comps:
            continue
        stats = [0, 0, 0]
        dparts = d_partitions(E, shape)
        kept = [S for basis in _skeletons(E, comps, dparts, catalog, gens)
                for S in _keep_new(_candidates(basis), stats)]
        yield shape, kept, stats


# counts mode reads the rows k = n - |E| <= _WALK_ROWS off Aut(E)-orbits,
# walking from each E of order n - _WALK_ROWS through the semilattices that
# it owns, so its tasks are the canonical levels up to that order
_WALK_ROWS = 4


def _semilattice_task(n, collect, down, ledger=None, inherited=None):
    """(ledger, tables) of one step: `ledger` (a new one by default) with
    the cells of order n that the semilattice E with these down-set masks
    contributes added, and in full mode (table, m) per class.  k = n - |E|
    picks the rows.  At k = 0, E is its own class, whose table is its meet
    table.  In counts mode, `_orbit_row` reads the rows k <= _WALK_ROWS, and
    the step then runs on each semilattice that E owns, into the same
    ledger, with the generators of its automorphism group and its extension
    ideals (`inherited`) from E's; at k = 1 it only counts those children.
    At k > _WALK_ROWS, `_clifford_cell` counts the all-points cell and the
    search finds the other shapes.  Full mode searches every row.  A task,
    with no `inherited`, labels E.
    """
    m = len(down)
    k = n - m
    if ledger is None:
        ledger = CountLedger()
    # labels are linear extensions: E has a maximum iff down[-1] is full
    lattice = down[-1] == (1 << m) - 1
    if k == 0:
        ledger.add_cell(n, (1,) * n, 1, 1, lattice)
        return ledger, [(MeetSemilattice(down).meet, n)] if collect else []
    gens, ideals = inherited or (_canonical_labeling(m, down)[2], None)
    if not collect and k <= _WALK_ROWS:
        # Clifford classes are commutative and Brandt ones are not, and
        # add_cell skips a count of 0
        clifford, brandt = _orbit_row(k, down, gens)
        ledger.add_cell(m, (1,) * m, clifford, clifford, lattice)
        for j, b in enumerate(brandt, 1):  # j blocks of two
            ledger.add_cell(m, (2,) * j + (1,) * (m - 2 * j), b, 0, lattice)
        owned = _owned(down, gens, ideals or _extension_ideals(down))
        if k == 1:  # each E + z is its own class, a lattice iff z is top
            tops = [D == (1 << m) - 1 for D, _ in owned]
            if tops:
                c, top = len(tops), sum(tops)
                ledger.add(n, (1,) * n, (c, c, top, top, c, top))
        else:
            for D, inherit in owned:
                _semilattice_task(n, collect, down + (D | 1 << m,), ledger,
                                  inherit())
        return ledger, []
    if not collect:
        ledger.add_cell(m, (1,) * m, *_clifford_cell(n, down, gens), lattice)
    tables = []
    for shape, kept, stats in _classes(n, MeetSemilattice(down), gens,
                                       collect):
        ledger.add_cell(m, shape, len(kept),
                        sum(S.is_commutative() for S in kept), lattice)
        ledger.add_stats(*stats)
        if collect:
            tables += [(S.table, m) for S in kept]
    return ledger, tables


def _closed(down, covers, S):
    """Whether each b < a joined by a chain of covers in S (a mask over the
    sorted `covers`) has every cover of [b, a] in S."""
    if not S & S - 1:  # one cover spans its own interval
        return True
    reach = [0] * len(down)  # reach[a]: the points below a by S-covers
    for b, a in map(covers.__getitem__, _bits(S)):
        reach[a] |= reach[b] | 1 << b  # by lower end: reach[b] is whole
    return not any(  # a cover outside S in some [b, a]
        down[x] & r and down[a] >> y & 1 for a, r in enumerate(reach) if r
        for j, (x, y) in enumerate(covers) if not S >> j & 1)


def _c2_classes(k, down, covers, gens, images):
    """Classes of order m + k over E (these down-set masks, sorted `covers`,
    Aut(E) generated by `gens`, their `_mask_images` `images`) with C2 at a
    k-set T, C1 elsewhere: one per orbit of (T, S), S the covers in T with
    identity maps.  A map is the identity iff every chain composes to it, so
    S is valid iff each b < a joined by S-covers has [b, a] in T and all its
    covers in S (`_closed`).  T is S's points and any others: with no
    generators, sum C(m - |pts S|, k - |pts S|) over the valid S."""
    m = len(down)
    ends = [1 << b | 1 << a for b, a in covers]
    valid, sets = [], [(0, 0, 0)]  # (points, S as a cover mask, next cover)
    for pts, S, first in sets:  # grows as it is read
        if _closed(down, covers, S):
            valid.append((pts, S))
        sets += [(pts | ends[j], S | 1 << j, j + 1) for j in range(
            first, len(covers)) if (pts | ends[j]).bit_count() <= k]
    if not gens:
        return sum(math.comb(m - pts.bit_count(), k - pts.bit_count())
                   for pts, _ in valid)
    moved = _mask_images(len(covers), [
        [covers.index((g[b], g[a])) for b, a in covers] for g in gens])
    ones = [1 << x for x in range(m)]
    # Aut(E) fixes S = {}, whose items are the k-sets
    return len(list(_orbits(map(sum, itertools.combinations(ones, k)),
                            images))) + len(list(_orbits([
        (sum(rest) | pts, S) for pts, S in valid if S
        for rest in itertools.combinations([x for x in ones if not x & pts],
                                           k - pts.bit_count())],
        lambda item: list(zip(images(item[0]), moved(item[1]))))))


def _orbit_row(k, down, gens):
    """(Clifford classes, Brandt cells) of order m + k over the semilattice
    E of order m with these down-set masks, for k = 1..4; `gens` generate
    Aut(E).  The Brandt cells count the classes with one block of two
    points and, at k = 4, with two.

    The non-idempotents number sum p * (p * |G| - 1) = k over the blocks.  A
    group of order k + 1 at a point gives one class per orbit of points for
    each such group, and C2 at a k-set those of `_c2_classes`.  The other
    classes are one per orbit of items, tuples of point sets.  Clifford: C3
    at e with C2 at f (({e}, {f}, t)); at k = 4, C4, and again C2 x C2, at
    e with C2 at f (the same items), C3 at e and f (({e, f}, t)), and C3 at
    e with C2 at f and g (({e}, {f, g}, t)).  t = {e, f} or {f, g} marks a
    nontrivial structure map between the pair, unique up to the groups'
    automorphisms; it needs one point of the pair to cover the other, since
    a point between has a trivial group, and no map between C3 and C2 is
    nontrivial.  Brandt: a twin block X = {a, b} (equal strict down-sets,
    so each covers only their meet) over C1, whose arrow a -> b restricts
    to the meet's group, and a group at a point that covers a and b may
    swap them: those are X's flag points, and F holds the ones whose maps
    are nontrivial.  One class per orbit of (X,) at k = 2; (X, {c}, F)
    with C2 at c at k = 3; at k = 4, (X, {c}, F) with C3 at c, which can
    flag only the meet, and (X, {c, d}, F, S) with C2 at c and d, S = {c,
    d} for an identity map on a cover between them, if the nontrivial maps
    compose alike along every chain (`_closed`); and one per orbit of the
    pair {X, Y} of 2-blocks, Y twins or over X (c > a, d > b), with no
    nontrivial map.  With no generators each item is its own orbit.
    """
    m = len(down)
    # a group of order k + 1 at one point: C2; C3; C4 or C2 x C2; C5
    clifford = (1, 1, 2, 1)[k - 1] * (
        len(set(_point_orbits(m, gens))) if gens else m)
    if k == 1:
        return clifford, ()
    covers, images = Poset(down).covers, _mask_images(m, gens)
    clifford += _c2_classes(k, down, covers, gens, images)
    pairs = list(itertools.combinations(range(m), 2))
    at = {cover: 1 << j for j, cover in enumerate(covers)}
    zeros = [0] * len(gens)  # the images of an empty mask

    def orbits(items, order=tuple):  # order: how an image is written
        if not gens:
            return len(items)
        return len(list(_orbits(items, lambda item: [
            order(masks) for masks in zip(*[
                images(mask) if mask else zeros for mask in item])])))

    def ts(x, y):  # at k = 3 every pair is C3 and C2
        return (0, 1 << x | 1 << y)[:1 + (k == 4 and (
            (x, y) in at or (y, x) in at))]

    if k > 2:  # at k = 4 twice: C4, and C2 x C2, at e
        clifford += (k - 2) * orbits([(1 << e, 1 << f, t) for e, f in
                                      itertools.permutations(range(m), 2)
                                      for t in ts(e, f)])
    if k == 4:
        clifford += (orbits([(1 << e | 1 << f, t) for e, f in pairs
                             for t in ts(e, f)])
                     + orbits([(1 << e, 1 << f | 1 << g, t) for e in range(m)
                               for f, g in pairs if e != f and e != g
                               for t in ts(f, g)]))
    sdown = [d ^ 1 << x for x, d in enumerate(down)]
    over = [0] * m  # over[x]: the points that cover x
    for x, y in covers:
        over[x] |= 1 << y
    one, two = [], set()  # the items with one and with two 2-blocks
    for a, b in pairs:
        if sdown[a] != sdown[b]:
            continue
        X = 1 << a | 1 << b
        if k == 2:
            one.append((X,))
            continue
        meet = sdown[a].bit_length() - 1
        flags = 1 << meet | over[a] & over[b]
        rest = [c for c in range(m) if not X >> c & 1]
        if k == 3:  # C2 at c
            one += [(X, 1 << c, F) for c in rest
                    for F in {0, flags & 1 << c}]
        else:  # C3 at c, which can flag only the meet
            one += [(X, 1 << c, F) for c in rest
                    for F in {0, 1 << meet & 1 << c}]
            # the covers along which a flag point's group acts
            maps = {x: at[meet, a] | at[meet, b] if x == meet
                    else at[a, x] | at[b, x] for x in _bits(flags)}
            for c, d in itertools.combinations(rest, 2):  # C2 at c and d
                B, link = 1 << c | 1 << d, at.get((c, d), 0)
                f = flags & B
                one += [(X, B, F, S and B)
                        for F in {0, f & 1 << c, f & 1 << d, f}
                        for S in {0, link} if _closed(
                            down, covers, S | sum(map(maps.get, _bits(F))))]
                # Y = {c, d} is a block iff as many points lie below c as
                # below d in each block
                below = sdown[c] & X, sdown[d] & X
                if not (sdown[c] ^ sdown[d]) & ~X and (
                        below[0].bit_count() == below[1].bit_count()):
                    two.add(tuple(sorted((X, B))))
    brandt = (orbits(one),)
    if k == 4:  # {X, Y} is unordered
        brandt += (orbits(sorted(two), lambda p: tuple(sorted(p))),)
    return clifford, brandt


@cache
def _homs(G, H):
    """The maps G -> H, once per pair of catalog groups (one object each)."""
    return tuple(G.homomorphisms([[
        y for y in range(H.order)
        if G.element_order(g) % H.element_order(y) == 0]
        for g in G.generating_set()], H.mul))


@cache
def _aut_gens(G):
    """Pairs (a, a^-1) of automorphisms of G that generate Aut(G)."""
    one, gens = tuple(range(G.order)), []
    group = {one}
    for a in G.automorphism_images():
        if a not in group:
            gens.append((a, tuple(sorted(one, key=a.__getitem__))))
            group = set(next(_orbits([one], lambda f: [
                tuple(a[x] for x in f) for a, _ in gens])))
    return tuple(gens)


def _clifford_cell(n, down, gens):
    """(classes, commutative classes) of order n whose D-classes are the
    points of E, with these down-set masks and `gens` generating Aut(E).  A
    class is a strong semilattice of groups: a placement of catalog groups
    G_x, sum(|G_x| - 1) = n - |E|, and a map G_a -> G_b per cover b < a,
    one composite along all chains from a to b, up to Aut(E) and each
    Aut(G_x); the commutative ones have abelian groups.  Per Aut(E)-orbit
    of placements, the first one p counts once if it has no live cover
    (both ends nontrivial: maps to or from C1 are trivial), and else by
    `_map_systems` under p's stabilizer (`_stabilizer`)."""
    m, k = len(down), n - len(down)
    catalog = _groups.catalog(k + 1)
    # by upper end: the maps into the points below a come before a's own
    covers = sorted(Poset(down).covers, key=lambda cover: cover[::-1])
    lower = [[b for b, a in covers if a == x] for x in range(m)]
    places = _placements(m, k)
    hs = [sorted(range(m), key=g.__getitem__) for g in gens]  # g^-1

    def moved(p):
        return [tuple([p[x] for x in h]) for h in hs]

    @cache
    def shape(support):  # the live covers, in E's and in local labels
        live = [(b, a) for b, a in covers if support >> b & support >> a & 1]
        ends = sorted({x for cover in live for x in cover})
        local = {x: i for i, x in enumerate(ends)}
        # a check per b < a that chains of two or more live covers join
        steps, reach = [], set(live)  # reach: the (b, a) so joined
        for a in sorted({a for _, a in live}):
            checks = []
            for b in _bits(down[a] & support ^ 1 << a):
                above = [c for c in lower[a] if down[c] >> b & 1]
                cs = [c for c in above if (b, c) in reach]
                if cs:
                    reach.add((b, a))
                    checks.append((local[b], tuple(map(local.get, cs)),
                                   len(cs) < len(above)))
            steps.append((local[a], tuple(checks)))
        return live, ends, (tuple((local[b], local[a]) for b, a in live),
                            tuple(steps))

    classes = comm = 0
    for orbit in _orbits(places, moved):
        p = orbit[0]
        support, abelian = places[p]
        live, ends, key = shape(support)
        count, moves = 1, set()
        if len(live) > 1:  # the stabilizer fixes a single live cover
            at = {cover: j for j, cover in enumerate(live)}
            moves = {tuple([at[g[b], g[a]] for b, a in live])
                     for g in _stabilizer(m, gens, orbit, moved)}
            moves.discard(tuple(range(len(live))))
        if live:
            count = _map_systems(tuple([catalog[p[x]] for x in ends]), *key,
                                 tuple(sorted(moves)))
        classes += count
        comm += abelian and count
    return classes, comm


@cache
def _placements(m, k):
    """{p: (p's nontrivial points as a mask, whether p's groups are
    abelian)} over the placements p on m points with excess k, p[x] a
    catalog index, in lexicographic order."""
    catalog = _groups.catalog(k + 1)
    places = [((), k)]  # (groups at the points so far, excess left)
    for x in range(m):
        places = [(p + (i,), left - G.order + 1) for p, left in places
                  for i, G in enumerate(catalog) if G.order <= left + 1
                  and (x < m - 1 or G.order == left + 1)]
    return {p: (sum(1 << x for x, i in enumerate(p) if i),
                all(catalog[i].abelian for i in p)) for p, _ in places}


@cache
def _map_systems(groups, live, steps, moves):
    """Orbits of the maps on the `live` covers (b, a) of one placement,
    in local labels (groups[x] at x), under the stabilizer's `moves` of
    the live covers and each Aut(G_x), whose a sends maps phi out of x to
    phi a^-1 and into x to a phi.  `steps` lists the upper ends a in order
    with the checks (b, cs, flat) of their chains: the composites through
    the covers cs of a agree, and are trivial if `flat`."""
    auts = [(a, inv, [(j, c[1] == x) for j, c in enumerate(live) if x in c])
            for x, G in enumerate(groups) for a, inv in _aut_gens(G)]
    systems, phi = [], {}  # phi[a, b]: the map G_a -> G_b

    def extend(t, maps):
        if t == len(steps):
            return systems.append(maps)
        a, checks = steps[t]
        G = groups[a]
        up = [b for b, c in live if c == a]
        trivial = (0,) * G.order
        for fs in itertools.product(*(_homs(G, groups[c]) for c in up)):
            phi.update(zip([(a, c) for c in up], fs))
            for b, cs, flat in checks:
                ends = {tuple([phi[c, b][y] for y in phi[a, c]]) for c in cs}
                if flat:
                    ends.add(trivial)
                if len(ends) > 1:
                    break
                phi[a, b] = ends.pop()
            else:
                extend(t + 1, maps + fs)

    def images(maps):
        for js in moves:
            yield tuple([maps[j] for j in js])
        for a, inv, touch in auts:
            f = list(maps)
            for j, out in touch:
                f[j] = tuple([f[j][y] for y in inv]) if out else tuple(
                    [a[y] for y in f[j]])
            yield tuple(f)

    extend(0, ())
    return len(list(_orbits(systems, images)))


# ---------------------------------------------------------------------------
# drivers


def _ahead(maps):
    """Chain the iterables of `maps`, taking each before the last runs out."""
    for last, _ in itertools.pairwise(itertools.chain(maps, [()])):
        yield from last


def ProcessPoolExecutor(max_workers):
    """The process pool, imported only by a run that makes one."""
    import concurrent.futures
    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


def run_enumeration(config: EnumerationConfig) -> RunResult:
    """Run a full or counts-only enumeration per the config, mapping
    `_semilattice_task` over the canonical levels in order, an eighth of a
    level per map."""
    n = config.order
    collect = config.out is not None
    result = RunResult(ledger=CountLedger())
    # a terminal gets every update, each over the last; a log one per level
    tty = config.progress and sys.stderr.isatty()
    lead = "\r" if tty else ""

    pool = None
    mapper = map
    if config.threads > 1:
        pool = ProcessPoolExecutor(max_workers=config.threads)

        def mapper(fn, tasks):
            return pool.map(fn, tasks, chunksize=1 + len(tasks) // (
                64 * config.threads))

    try:
        # the canonical levels, built on the pool if any; in counts mode
        # each semilattice of the top one walks the rows from k = _WALK_ROWS
        top = n if collect else max(1, n - _WALK_ROWS)
        levels = [semilattice_level(m, mapper) for m in range(1, top + 1)]
        # mapped an eighth of a level at a time; a pool map submits its
        # tasks when `_ahead` takes it, so two eighths at most are queued
        fn = partial(_semilattice_task, n, collect)
        results = _ahead(mapper(fn, lv[i:i + 1 + len(lv) // 8])
                         for lv in levels
                         for i in range(0, len(lv), 1 + len(lv) // 8))
        written = 0
        for m, level in enumerate(levels, 1):
            size, start = len(level), perf_counter()
            for done, (part, tables) in enumerate(
                    itertools.islice(results, size), 1):
                result.ledger.merge(part)
                written += write_cayley_files(tables, n, config.out, written)
                if config.progress and (tty or done == size):
                    rate = done / max(perf_counter() - start, 1e-9)
                    print(f"{lead}m={m}: {done}/{size} semilattices, "
                          f"{rate:.1f}/s, ETA {(size - done) / rate:.0f}s",
                          end="\n" if done == size else "", flush=True,
                          file=sys.stderr)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return result


def enumerate_counts_only(n: int, threads: int = 1,
                          progress: bool = False) -> CountLedger:
    """Count ledger for order n, over the canonical levels 1..max(1, n - 4)
    and the semilattices that those of the top level own; reads the rows of
    n - 4 to n idempotents off Aut(E)-orbits, and the all-points cells of
    the rows below off `_clifford_cell`, and searches their other shapes,
    building candidates' tables but keeping none."""
    cfg = EnumerationConfig(order=n, threads=threads, progress=progress)
    return run_enumeration(cfg).ledger


def enumerate_semigroups(n: int):
    """Stream one representative per isomorphism class of order n."""
    if n < 1:
        raise ValueError("order must be positive")
    for m in range(1, n + 1):
        for E in meet_semilattices(m):
            gens = _canonical_labeling(m, E.down)[2]
            for _, kept, _ in _classes(n, E, gens):
                yield from kept


def enumerate_fixed(E, P, f) -> list:
    """All inverse semigroups with idempotents E, D-restriction P and
    maximal subgroups f, one per isomorphism class."""
    P = tuple(tuple(X) for X in P)
    if sorted(x for X in P for x in X) != list(range(E.size)):
        raise ValueError("P must partition the elements of E")
    if not is_d_partition(E, P):
        raise ValueError("P does not satisfy the D-partition condition")
    return list(_keep_new(_candidates(e_groupoid(E, P, f)), [0, 0, 0]))


# ---------------------------------------------------------------------------
# output


CSV_HEADER = "n,idempotents,shape,isgs,comm_isgs,ims,comm_ims,semilattices,lattices"


def breakdown_csv(ledger: CountLedger, n: int) -> str:
    lines = [CSV_HEADER]
    for (m, shape), vals in ledger.sorted_cells():
        lines.append(f"{n},{m},{'.'.join(map(str, shape))},"
                     + ",".join(map(str, vals)))
    return "\n".join(lines) + "\n"


def write_cayley_files(tables, order: int, out_dir: str, first: int = 0) -> int:
    """One file per (table, #idempotents) pair, numbered from `first`:
    `n=<size> e=<#idempotents>`, then the table, renamed into place whole.
    The number has 6 digits up to order 10 and one more per order above,
    so names sort in number order up to S(12) = 9324047 classes."""
    width = 6 + max(0, order - 10)
    for seq, (table, n_idem) in enumerate(tables, first):
        _write_whole(
            os.path.join(out_dir, f"isg_n{order}_{seq:0{width}d}.tbl"),
            [f"n={len(table)} e={n_idem}\n"]
            + [" ".join(map(str, row)) + "\n" for row in table])
    return len(tables)


def write_semilattice_file(m: int, path: str) -> int:
    """Cover-relation lines for every semilattice of order m."""
    level = semilattice_level(m)
    _write_whole(path, (format_cover_line(MeetSemilattice(down)) + "\n"
                        for down in level))
    return len(level)


def _write_whole(path, chunks):
    """Write the strings of `chunks` to `path` under a temporary name and
    rename it into place, so a write that fails or is cut leaves the old
    file, or none, at `path`."""
    try:
        with open(path + ".tmp", "w", encoding="ascii") as fh:
            fh.writelines(chunks)
        os.replace(path + ".tmp", path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path + ".tmp")
        raise
