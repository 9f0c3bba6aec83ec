import itertools
import random

import pytest

from isgenum.engine import _keep_new, enumerate_semigroups
from isgenum.esn import (
    d_restriction_from_table,
    esn,
    maximal_subgroup_of_table,
    natural_order_from_table,
)
from isgenum.gposets import BasisOrder, e_groupoid, g_posets
from isgenum.groups import Group, is_isomorphic
from isgenum.iso import (
    brute_force_isomorphic,
    e_coloring,
    invariants,
    is_isoc,
    lonely_idempotents,
)
from isgenum.orders import MeetSemilattice, _bits, parse_cover_line, up_down_levels

VEE = parse_cover_line("3:0<1,0<2")
CHAIN2 = parse_cover_line("2:0<1")
CHAIN3 = parse_cover_line("3:0<1,1<2")


def _build_one(E, P, names, groups_by_name):
    basis = e_groupoid(E, P, tuple(groups_by_name[t] for t in names))
    orders = list(g_posets(basis))
    return [esn(basis, o) for o in orders]


def _semilattice_semigroup(E, groups_by_name):
    P = tuple((x,) for x in range(E.size))
    return _build_one(E, P, ("C1",) * E.size, groups_by_name)[0]


def _relabeled_twin(S, sigma):
    """Rebuild S after relabeling E by one of its automorphisms."""
    E = S.E
    pairs = sorted(
        (tuple(sorted(sigma[x] for x in X)), G)
        for X, G in zip(S.d_restriction, S.groups)
    )
    pairs.sort(key=lambda bg: (-len(bg[0]), bg[0][0]))
    P2 = tuple(p for p, _ in pairs)
    f2 = tuple(g for _, g in pairs)
    basis2 = e_groupoid(E, P2, f2)
    newblock = {frozenset(X): i for i, X in enumerate(P2)}
    emap = [0] * S.size
    for s, (i, a, b, g) in enumerate(S.elem):
        j = newblock[frozenset(sigma[x] for x in S.d_restriction[i])]
        emap[s] = basis2.index[(j, sigma[a], sigma[b], g)]
    down2 = [0] * S.size
    for t in range(S.size):
        mask = 0
        for u in _bits(S.order_down[t]):
            mask |= 1 << emap[u]
        down2[emap[t]] = mask
    return esn(basis2, BasisOrder(tuple(down2)))


def _e_automorphisms(E):
    n = E.size
    for p in itertools.permutations(range(n)):
        if all(
            ((E.down[j] >> i) & 1) == ((E.down[p[j]] >> p[i]) & 1)
            for i in range(n) for j in range(n)
        ):
            yield p


# ---------------------------------------------------------------------------
# lonely idempotents


def test_lonely_vee_semilattice(groups_by_name):
    S = _semilattice_semigroup(VEE, groups_by_name)
    assert lonely_idempotents(S) == [1, 2]


def test_lonely_chain_top(groups_by_name):
    S = _semilattice_semigroup(CHAIN2, groups_by_name)
    assert lonely_idempotents(S) == [1]


def test_lonely_brandt_none(groups_by_name):
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    assert lonely_idempotents(S) == []


def test_lonely_c2_with_identity(groups_by_name):
    # order 3: chain E with C2 at the bottom; the top is interchangeable-free
    (S,) = _build_one(CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name)
    assert lonely_idempotents(S) == [1]


def test_lonely_group_has_none(groups_by_name):
    (S,) = _build_one(parse_cover_line("1:"), ((0,),), ("C2",), groups_by_name)
    assert lonely_idempotents(S) == []


# ---------------------------------------------------------------------------
# invariants


def test_invariants_chain3(groups_by_name):
    S = _semilattice_semigroup(CHAIN3, groups_by_name)
    lev, xmap = invariants(S)
    assert lev == (1, 1, 1)
    assert xmap == ((0, ((1, "C1"),)), (1, ((1, "C1"),)), (2, ((1, "C1"),)))


def test_invariants_c2(groups_by_name):
    (S,) = _build_one(parse_cover_line("1:"), ((0,),), ("C2",), groups_by_name)
    lev, xmap = invariants(S)
    assert lev == (2,)
    assert xmap == ((0, ((1, "C2"),)),)


def test_invariants_brandt(groups_by_name):
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    lev, xmap = invariants(S)
    assert lev == (4, 1)
    assert xmap == ((0, ((1, "C1"),)), (1, ((2, "C1"), (2, "C1"))))


def _invariants_from_table(table, group_catalog):
    """Independent recomputation of the key from a bare Cayley table whose
    idempotents are labeled 0..m-1 in semilattice order."""
    down = natural_order_from_table(table)
    n = len(table)
    up = [0] * n
    for j in range(n):
        for i in _bits(down[j]):
            up[i] |= 1 << j
    removed, lev = 0, []
    while removed != (1 << n) - 1:
        level = [
            x for x in range(n)
            if not (removed >> x) & 1 and not (up[x] & ~removed & ~(1 << x))
        ]
        lev.append(len(level))
        for x in level:
            removed |= 1 << x
    blocks = d_restriction_from_table(table)
    block_of = {}
    for bi, X in enumerate(blocks):
        for x in X:
            block_of[x] = bi
    m = len([x for x in range(n) if table[x][x] == x])
    emeet = tuple(tuple(table[a][b] for b in range(m)) for a in range(m))
    E = MeetSemilattice(
        tuple(
            sum(1 << a for a in range(m) if table[a][b] == a)
            for b in range(m)
        )
    )

    def group_name(e):
        elems = maximal_subgroup_of_table(table, e)
        order = {x: i for i, x in enumerate([e] + [x for x in elems if x != e])}
        tab = [[0] * len(elems) for _ in elems]
        for x in elems:
            for y in elems:
                tab[order[x]][order[y]] = order[table[x][y]]
        G = Group(tab, "tmp")
        for H in group_catalog:
            if H.order == G.order and is_isomorphic(G, H):
                return H.name
        raise AssertionError("group not in catalog")

    xmap = tuple(
        (L[0], tuple(sorted(
            (len(blocks[block_of[e]]), group_name(e)) for e in L
        )))
        for L in up_down_levels(E.down)
    )
    assert emeet == E.meet
    return (tuple(lev), xmap)


def test_invariants_stable_under_relabeling(group_catalog):
    rng = random.Random(7)
    for S in enumerate_semigroups(5):
        key = invariants(S)
        assert key == _invariants_from_table(S.table, group_catalog)
        # relabel the non-idempotents; idempotent labels stay put
        m = S.E.size
        perm = list(range(m)) + rng.sample(range(m, S.size), S.size - m)
        inv = [0] * S.size
        for i, v in enumerate(perm):
            inv[v] = i
        relab = tuple(
            tuple(inv[S.table[perm[x]][perm[y]]] for y in range(S.size))
            for x in range(S.size)
        )
        assert key == _invariants_from_table(relab, group_catalog)


def test_invariants_stable_under_e_automorphism(groups_by_name):
    for n in range(1, 7):
        for S in enumerate_semigroups(n):
            for sigma in _e_automorphisms(S.E):
                twin = _relabeled_twin(S, list(sigma))
                assert invariants(twin) == invariants(S)
                assert is_isoc(S, twin)


# ---------------------------------------------------------------------------
# coloring


def test_e_coloring_brandt(groups_by_name):
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    colors = e_coloring(S)
    assert colors == (("grp", "C1", 1), ("grp", "C1", 2), ("grp", "C1", 2))


def test_e_coloring_vee_semilattice(groups_by_name):
    S = _semilattice_semigroup(VEE, groups_by_name)
    colors = e_coloring(S)
    assert colors == (("grp", "C1", 1), ("lone", 1), ("lone", 2))


def test_e_coloring_c2_with_identity(groups_by_name):
    (S,) = _build_one(CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name)
    colors = e_coloring(S)
    assert colors == (("grp", "C2", 1), ("lone", 1))


def test_e_coloring_multiset_is_invariant(groups_by_name):
    for S in enumerate_semigroups(6):
        base = sorted(e_coloring(S))
        for sigma in _e_automorphisms(S.E):
            twin = _relabeled_twin(S, list(sigma))
            assert sorted(e_coloring(twin)) == base


# ---------------------------------------------------------------------------
# is_isoc


def test_is_isoc_self(groups_by_name):
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    assert is_isoc(S, S)


def test_is_isoc_distinguishes_groups(groups_by_name):
    E1 = parse_cover_line("1:")
    (S4,) = _build_one(E1, ((0,),), ("C4",), groups_by_name)
    (S22,) = _build_one(E1, ((0,),), ("C2xC2",), groups_by_name)
    assert invariants(S4) != invariants(S22)
    assert not is_isoc(S4, S22)


def test_is_isoc_table7_pair(groups_by_name):
    pair = _build_one(VEE, ((1, 2), (0,)), ("C1", "C2"), groups_by_name)
    assert len(pair) == 2
    assert not is_isoc(pair[0], pair[1])
    assert not brute_force_isomorphic(pair[0], pair[1])


def test_is_isoc_requires_same_semilattice(groups_by_name):
    S = _semilattice_semigroup(CHAIN3, groups_by_name)
    T = _semilattice_semigroup(VEE, groups_by_name)
    with pytest.raises(ValueError):
        is_isoc(S, T)


def test_is_isoc_symmetric_and_matches_bruteforce(groups_by_name):
    # compare all pairs generated over one semilattice for small orders
    by_semilattice = {}
    for n in range(1, 7):
        for S in enumerate_semigroups(n):
            by_semilattice.setdefault((n, S.E.down), []).append(S)
    checked = 0
    for (_, _), group in by_semilattice.items():
        for A, B in itertools.combinations(group, 2):
            if tuple(len(X) for X in A.d_restriction) != tuple(
                len(X) for X in B.d_restriction
            ):
                continue
            got = is_isoc(A, B)
            assert got == is_isoc(B, A)
            assert got == brute_force_isomorphic(A, B)
            checked += 1
    assert checked > 200


def test_is_isoc_accepts_lonely_permuted_twin(groups_by_name):
    # two interchangeable atoms swapped by an automorphism of E
    E = parse_cover_line("4:0<1,0<2,0<3")
    P = ((1,), (2,), (3,), (0,))
    (S,) = _build_one(E, P, ("C1", "C2", "C1", "C1"), groups_by_name)
    assert lonely_idempotents(S) == [1, 3]
    sigma = [0, 3, 2, 1]  # swaps the two lonely atoms
    twin = _relabeled_twin(S, sigma)
    assert invariants(twin) == invariants(S)
    assert is_isoc(S, twin)
    assert brute_force_isomorphic(S, twin)


# ---------------------------------------------------------------------------
# the keep-if-new filter (engine._keep_new)


def test_is_new_empty_store(groups_by_name):
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    stats = [0, 0, 0]
    assert list(_keep_new([S], stats)) == [S]
    assert stats == [1, 1, 0]


def test_is_new_detects_duplicate(groups_by_name):
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    twin = _relabeled_twin(S, [0, 2, 1])
    stats = [0, 0, 0]
    assert list(_keep_new([S, twin], stats)) == [S]
    assert stats == [2, 1, 1]


def test_is_new_keeps_same_key_sibling(groups_by_name):
    # a pair with different keys is kept without an isomorphism test
    pair = _build_one(VEE, ((1, 2), (0,)), ("C1", "C2"), groups_by_name)
    stats = [0, 0, 0]
    assert list(_keep_new(pair, stats)) == pair
    assert stats == [2, 2, 0]
    # over a 3-chain with C2 at every idempotent, two of the four semigroups
    # share an invariant key without being isomorphic
    semis = _build_one(CHAIN3, ((0,), (1,), (2,)), ("C2",) * 3, groups_by_name)
    by_key = {}
    for S in semis:
        by_key.setdefault(invariants(S), []).append(S)
    ((A, B),) = [b for b in by_key.values() if len(b) == 2]
    assert not brute_force_isomorphic(A, B)
    for pair in ((A, B), (B, A)):
        stats = [0, 0, 0]
        assert list(_keep_new(pair, stats)) == list(pair)
        assert stats == [2, 1, 1]


# ---------------------------------------------------------------------------
# brute-force oracle


def test_bruteforce_relabeled_copy(groups_by_name):
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    perm = [4, 2, 0, 1, 3]
    inv = [0] * 5
    for i, v in enumerate(perm):
        inv[v] = i
    relab = tuple(
        tuple(inv[S.table[perm[x]][perm[y]]] for y in range(5))
        for x in range(5)
    )
    assert brute_force_isomorphic(S.table, relab)


def test_bruteforce_distinguishes_semilattices(groups_by_name):
    A = _semilattice_semigroup(CHAIN3, groups_by_name)
    B = _semilattice_semigroup(VEE, groups_by_name)
    assert not brute_force_isomorphic(A, B)


def test_bruteforce_rejects_large():
    table = tuple(tuple((i + j) % 8 for j in range(8)) for i in range(8))
    with pytest.raises(ValueError):
        brute_force_isomorphic(table, table)


def test_anti_isomorphic_implies_isomorphic():
    # transpose tables are isomorphic for inverse semigroups
    for n in range(1, 6):
        for S in enumerate_semigroups(n):
            op = tuple(
                tuple(S.table[y][x] for y in range(S.size))
                for x in range(S.size)
            )
            assert brute_force_isomorphic(S.table, op)
