"""Properties of the search kernels: the block-local possibility cache and
the incremental canonical labeling with its twin pruning."""

from isgenum import gposets
from isgenum.gposets import GroupoidBasis, poset_possibilities
from isgenum.groups import catalog
import random

from isgenum.orders import (
    _canonical_form,
    _canonical_labeling,
    _refined_colors,
    meet_semilattices,
    parse_cover_line,
)
from isgenum.shapes import (
    admissible_compositions,
    d_partitions,
    group_maps,
    partitions,
)


def _skeletons(n_max):
    cat = catalog(n_max)
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            for E in meet_semilattices(m):
                for shape in partitions(m):
                    comps = admissible_compositions(n, shape)
                    for P in d_partitions(E, shape):
                        for C in comps:
                            for f in group_maps(P, C, cat):
                                yield E, P, f


def _block_pairs(basis):
    k = len(basis.pos_blocks)
    return [(hi, lo) for hi in range(k) for lo in range(k) if hi != lo]


def test_possibilities_same_with_cold_and_warm_cache():
    skeletons = list(_skeletons(6))
    cold = []
    for E, P, f in skeletons:
        basis = GroupoidBasis(E, P, f)
        for hi, lo in _block_pairs(basis):
            gposets._POSS_CACHE.clear()
            cold.append(poset_possibilities(basis, hi, lo))
    for E, P, f in skeletons:  # fill the cache with every key
        basis = GroupoidBasis(E, P, f)
        for hi, lo in _block_pairs(basis):
            poset_possibilities(basis, hi, lo)
    warm = []
    for E, P, f in skeletons:
        basis = GroupoidBasis(E, P, f)
        warm.extend(poset_possibilities(basis, hi, lo)
                    for hi, lo in _block_pairs(basis))
    assert len(cold) > 500
    assert warm == cold


def test_cache_keys_are_block_local():
    tables = {G.mul for G in catalog(6)}
    gposets._POSS_CACHE.clear()
    calls = 0
    for E, P, f in _skeletons(6):
        basis = GroupoidBasis(E, P, f)
        for hi, lo in _block_pairs(basis):
            poset_possibilities(basis, hi, lo)
            calls += 1
    assert 0 < len(gposets._POSS_CACHE) < calls // 10
    for gmul, hmul, x, y, below in gposets._POSS_CACHE:
        assert gmul in tables and hmul in tables
        assert len(below) == x
        for positions in below:
            assert list(positions) == sorted(set(positions))
            assert all(0 <= c < y for c in positions)


def test_relabeled_block_pairs_share_one_entry():
    # {1} over {0} in a 2-chain and {2} over {1} in a 3-chain have the same
    # groups and block-local shape but different E labels and offsets
    by_name = {G.name: G for G in catalog(4)}
    C1, C2 = by_name["C1"], by_name["C2"]
    chain2 = GroupoidBasis(parse_cover_line("2:0<1"), ((0,), (1,)), (C1, C2))
    chain3 = GroupoidBasis(
        parse_cover_line("3:0<1,1<2"), ((0,), (1,), (2,)), (C1, C1, C2)
    )
    gposets._POSS_CACHE.clear()
    assert poset_possibilities(chain2, 1, 0) == [(1 << 0, 1 << 0)]
    assert len(gposets._POSS_CACHE) == 1
    assert poset_possibilities(chain3, 2, 1) == [(1 << 1, 1 << 1)]
    assert len(gposets._POSS_CACHE) == 1


def _labeled_possibilities(basis, hi_pos, lo_pos):
    """Possibilities as sets of (upper element, lower element) tuples, which
    do not depend on the order the blocks list their labels in."""
    upper = basis.pos_elems[hi_pos]
    elem = basis.elem
    return {
        frozenset(
            (elem[t], elem[u])
            for t, mask in zip(upper, poss)
            for u in range(basis.size) if mask >> u & 1
        )
        for poss in poset_possibilities(basis, hi_pos, lo_pos)
    }


def test_possibilities_for_blocks_listed_out_of_label_order():
    # 3 sits over 1 and 4 over 2, so the two upper idempotents differ
    E = parse_cover_line("5:0<1,0<2,1<3,2<4")
    by_name = {G.name: G for G in catalog(4)}
    for names in (("C1", "C1", "C1"), ("C2", "C1", "C1"), ("C1", "C2", "C1")):
        groups = tuple(by_name[t] for t in names)
        listed = GroupoidBasis(E, ((4, 3), (2, 1), (0,)), groups)
        ordered = GroupoidBasis(E, ((3, 4), (1, 2), (0,)), groups)
        assert listed.pos_blocks == ordered.pos_blocks
        for hi, lo in _block_pairs(listed):
            got = _labeled_possibilities(listed, hi, lo)
            assert got == _labeled_possibilities(ordered, hi, lo)
        assert len(list(gposets.g_posets(listed))) == len(
            list(gposets.g_posets(ordered))
        ) > 0


def _linear_extensions(down):
    n = len(down)
    strict = [d ^ (1 << x) for x, d in enumerate(down)]
    placed = []

    def rec(mask):
        if len(placed) == n:
            yield tuple(placed)
            return
        for x in range(n):
            if not (mask >> x) & 1 and not strict[x] & ~mask:
                placed.append(x)
                yield from rec(mask | (1 << x))
                placed.pop()

    yield from rec(0)


def _relabel(down, lab):
    """The poset with label i given to element lab[i]."""
    pos = {p: i for i, p in enumerate(lab)}
    return tuple(
        sum(1 << pos[q] for q in range(len(down)) if down[p] >> q & 1)
        for p in lab
    )


def test_canonical_labeling_invariant_under_linear_extensions():
    for m in range(1, 7):
        for E in meet_semilattices(m):
            key = _canonical_labeling(m, E.down)[0]
            form = _canonical_form(m, E.down)
            assert form == E.down  # generation emits canonical forms
            for ext in _linear_extensions(E.down):
                relabeled = _relabel(E.down, ext)
                assert _canonical_labeling(m, relabeled)[0] == key
                assert _canonical_form(m, relabeled) == form


def _atoms(k, top):
    """A bottom under k atoms, and a top over them if asked: all k atoms are
    twins, so a search that branches on each has k! leaves."""
    down = [1] + [1 | 1 << i for i in range(1, k + 1)]
    if top:
        down.append((1 << (k + 2)) - 1)
    return tuple(down)


def test_canonical_form_of_interchangeable_atoms():
    rng = random.Random(5)
    for k in range(1, 9):
        for top in (False, True):
            down = _atoms(k, top)
            n = len(down)
            assert _canonical_form(n, down) == down
            for _ in range(10):
                atoms = rng.sample(range(1, k + 1), k)
                ext = (0, *atoms, *range(k + 1, n))
                assert _canonical_form(n, _relabel(down, ext)) == down


def _random_posets(count, n, seed):
    """Random posets whose labels are a linear extension."""
    rng = random.Random(seed)
    for _ in range(count):
        down = []
        for j in range(n):
            mask = 1 << j
            for i in range(j):
                if rng.random() < 0.3:
                    mask |= down[i]
            down.append(mask)
        yield tuple(down)


def test_canonical_key_is_least_sequence_over_linear_extensions():
    posets = [E.down for m in range(1, 7) for E in meet_semilattices(m)]
    posets += list(_random_posets(150, 7, seed=3))
    posets += [_atoms(k, top) for k in range(1, 6) for top in (False, True)]
    for down in posets:
        n = len(down)
        below = [[i for i in range(n) if i != x and down[x] >> i & 1]
                 for x in range(n)]
        above = [[y for y in range(n) if x in below[y]] for x in range(n)]
        colors = _refined_colors(n, below, above)

        def sequence(ext):
            return tuple(
                (colors[x], sum(1 << i for i in range(k)
                                if down[x] >> ext[i] & 1))
                for k, x in enumerate(ext)
            )

        best = min(_linear_extensions(down), key=sequence)
        key, labels, _ = _canonical_labeling(n, down)
        assert key == sequence(best) == sequence(labels)
        # the labeling that attains the key spells the canonical form
        assert _relabel(down, best) == _canonical_form(n, down)
