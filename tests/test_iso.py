import hashlib
import itertools
import random

import pytest

from isgenum import engine, iso
from isgenum.engine import _keep_new, enumerate_semigroups
from isgenum.esn import esn, idempotents_of_table, natural_order_from_table
from isgenum.gposets import e_groupoid, g_posets
from isgenum.groups import Group
from isgenum.iso import brute_force_isomorphic, invariants, is_isoc
from isgenum.orders import _bits, automorphisms, parse_cover_line

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
    return esn(basis2, tuple(down2))


def _e_automorphisms(E):
    n = E.size
    for p in itertools.permutations(range(n)):
        if all(
            ((E.down[j] >> i) & 1) == ((E.down[p[j]] >> p[i]) & 1)
            for i in range(n) for j in range(n)
        ):
            yield p


# ---------------------------------------------------------------------------
# invariants


def test_invariants_chain3(groups_by_name):
    # a semilattice has no non-idempotents, so its key is empty
    S = _semilattice_semigroup(CHAIN3, groups_by_name)
    assert invariants(S) == ()


def test_invariants_c2(groups_by_name):
    # in a group the natural order is equality: g alone lies below and above g
    (S,) = _build_one(parse_cover_line("1:"), ((0,),), ("C2",), groups_by_name)
    assert invariants(S) == ((1, 0, 1),)


def test_invariants_brandt(groups_by_name):
    # B2 with a zero 0 below it: each of the two non-idempotents of the
    # block {1, 2} lies above itself and 0, and below itself alone
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    assert invariants(S) == ((2, 1, 1), (2, 1, 1))


def _invariants_from_table(table):
    """Independent recomputation of the key from a bare Cayley table: over
    the non-idempotents s, the sorted triples (|down s|, |down s & E|,
    |up s|) of the natural order."""
    down = natural_order_from_table(table)
    idem = sum(1 << e for e in idempotents_of_table(table))
    return tuple(sorted(
        ((down[s].bit_count(), (down[s] & idem).bit_count(),
          sum(d >> s & 1 for d in down))
         for s in range(len(table)) if not idem >> s & 1)))


def test_invariants_stable_under_relabeling():
    rng = random.Random(7)
    for S in enumerate_semigroups(5):
        key = invariants(S)
        assert key == _invariants_from_table(S.table)
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
        assert key == _invariants_from_table(relab)


def test_invariants_stable_under_e_automorphism(groups_by_name):
    for n in range(1, 7):
        for S in enumerate_semigroups(n):
            for sigma in _e_automorphisms(S.E):
                twin = _relabeled_twin(S, list(sigma))
                assert invariants(twin) == invariants(S)
                assert is_isoc(S, twin)


def _isomorphic_pairs_share_keys(n):
    """Check that every pair of the raw search of order n (duplicates
    included) in one (E, shape) context that brute force calls isomorphic
    has one key; return the number of such pairs."""
    from test_engine import _raw_generated

    contexts = {}
    for S in _raw_generated(n):
        shape = tuple(len(X) for X in S.d_restriction)
        contexts.setdefault((S.E.down, shape), []).append(S)
    pairs = 0
    for group in contexts.values():
        for A, B in itertools.combinations(group, 2):
            if brute_force_isomorphic(A, B):
                assert invariants(A) == invariants(B), (A.table, B.table)
                pairs += 1
    return pairs


def test_invariants_agree_on_isomorphic_candidates():
    counts = [_isomorphic_pairs_share_keys(n) for n in range(1, 7)]
    assert counts == [0, 0, 0, 1, 8, 57]


@pytest.mark.stretch
def test_invariants_agree_on_isomorphic_candidates_order_7():
    assert _isomorphic_pairs_share_keys(7) == 348


# ---------------------------------------------------------------------------
# is_isoc


def test_is_isoc_self(groups_by_name):
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    assert is_isoc(S, S)


def test_is_isoc_distinguishes_groups(groups_by_name):
    E1 = parse_cover_line("1:")
    (S4,) = _build_one(E1, ((0,),), ("C4",), groups_by_name)
    (S22,) = _build_one(E1, ((0,),), ("C2xC2",), groups_by_name)
    assert not is_isoc(S4, S22)


def test_is_isoc_compares_groups_by_table(groups_by_name):
    # a group given as an equal but distinct object is the same group,
    # whatever its name
    P = ((0,), (1,))
    ours = _build_one(CHAIN2, P, ("C2", "C2"), groups_by_name)
    for name in ("C2", "Z2"):
        copy = {"C2": Group(groups_by_name["C2"].mul, name)}
        theirs = _build_one(CHAIN2, P, ("C2", "C2"), copy)
        assert [S.table for S in ours] == [T.table for T in theirs]
        assert theirs[0].groups[0] is not ours[0].groups[0]
        for i, S in enumerate(ours):
            for j, T in enumerate(theirs):
                assert (is_isoc(S, T) == is_isoc(T, S) == (i == j)
                        == brute_force_isomorphic(S, T))


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


def _cross_restriction_pairs(n):
    """Check that `is_isoc` rejects, both ways, every pair of classes of
    order n over one E whose D-restrictions differ; return the number of
    such pairs and how many of them differ in shape."""
    by_semilattice = {}
    for S in enumerate_semigroups(n):
        by_semilattice.setdefault(S.E.down, []).append(S)
    pairs = shapes = 0
    for group in by_semilattice.values():
        for A, B in itertools.combinations(group, 2):
            if A.d_restriction == B.d_restriction:
                continue
            assert not is_isoc(A, B) and not is_isoc(B, A), (A.table, B.table)
            pairs += 1
            shapes += list(map(len, A.d_restriction)) != list(
                map(len, B.d_restriction))
    return pairs, shapes


def test_is_isoc_rejects_other_d_restrictions():
    # the pairs that test_is_isoc_symmetric_and_matches_bruteforce and
    # criterion 7 leave out: every emitted class is its own, so is_isoc
    # must find no automorphism of E that carries one D-restriction and
    # its groups onto the other
    got = [_cross_restriction_pairs(n) for n in range(1, 8)]
    assert got == [(0, 0)] * 4 + [(5, 5), (56, 56), (557, 554)]


@pytest.mark.stretch
def test_is_isoc_rejects_other_d_restrictions_order_8():
    assert _cross_restriction_pairs(8) == (5858, 5776)


def test_is_isoc_accepts_lonely_permuted_twin(groups_by_name):
    # two interchangeable atoms swapped by an automorphism of E
    E = parse_cover_line("4:0<1,0<2,0<3")
    P = ((1,), (2,), (3,), (0,))
    (S,) = _build_one(E, P, ("C1", "C2", "C1", "C1"), groups_by_name)
    sigma = [0, 3, 2, 1]  # swaps the two lonely atoms
    twin = _relabeled_twin(S, sigma)
    assert invariants(twin) == invariants(S)
    assert is_isoc(S, twin)
    assert brute_force_isomorphic(S, twin)


def test_is_isoc_tries_only_automorphisms_that_keep_the_groups(
        groups_by_name, monkeypatch):
    # a zero below 8 atoms, all points, C2 at the zero and at atoms 1-3:
    # the candidates differ in how many of those three atoms lie over the
    # zero's non-identity, so 4 classes from 4 tests that find a duplicate.
    # Of the 8! automorphisms of E, is_isoc tries only those that map the
    # C2 points onto the C2 points, at most 3! 5! = 720 a test; over all
    # of Aut(E) the 4 tests tried 21604
    tried = []

    def counted(*args):
        for p in automorphisms(*args):
            tried.append(p)
            yield p

    monkeypatch.setattr(iso, "automorphisms", counted)
    E = parse_cover_line("9:" + ",".join(f"0<{a}" for a in range(1, 9)))
    f = tuple(groups_by_name["C2" if x < 4 else "C1"] for x in range(9))
    basis = e_groupoid(E, tuple((x,) for x in range(9)), f)
    stats = [0, 0, 0]  # candidates, kept without a test, tests
    classes = list(_keep_new(engine._candidates(basis), stats))
    assert (len(classes), stats) == (4, [8, 4, 4])
    assert all(sorted(p[:4]) == [0, 1, 2, 3] for p in tried)
    assert len(tried) == 1204


# ---------------------------------------------------------------------------
# the keep-if-new filter (engine._keep_new)


def _count_invariants(monkeypatch):
    """Patch the engine's `invariants` to record its arguments."""
    calls = []

    def counted(S):
        calls.append(S)
        return invariants(S)

    monkeypatch.setattr(engine, "invariants", counted)
    return calls


def test_is_new_empty_store(groups_by_name, monkeypatch):
    # a lone candidate is kept without computing its key
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    calls = _count_invariants(monkeypatch)
    stats = [0, 0, 0]
    assert list(_keep_new([S], stats)) == [S]
    assert (calls, stats) == ([], [1, 1, 0])


def test_is_new_detects_duplicate(groups_by_name, monkeypatch):
    # the second candidate keys the first, then itself
    (S,) = _build_one(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    twin = _relabeled_twin(S, [0, 2, 1])
    calls = _count_invariants(monkeypatch)
    stats = [0, 0, 0]
    assert list(_keep_new([S, twin], stats)) == [S]
    assert (calls, stats) == ([S, twin], [2, 1, 1])


def test_is_new_keeps_same_key_sibling(groups_by_name):
    # a pair with different keys is kept without an isomorphism test
    pair = _build_one(VEE, ((1, 2), (0,)), ("C1", "C2"), groups_by_name)
    stats = [0, 0, 0]
    assert list(_keep_new(pair, stats)) == pair
    assert stats == [2, 2, 0]
    # over 4:0<1,0<2,2<3 with C2 at 0, 1 and 2, the order that puts the
    # non-identity at 0 below the one at 1 alone and the order that puts it
    # below the one at 2 alone share their key: in both, one non-idempotent
    # lies below one other and the third above the idempotent 0.  No
    # automorphism of E swaps 1 and 2, as 2 lies below 3.
    E = parse_cover_line("4:0<1,0<2,2<3")
    P = ((0,), (1,), (2,), (3,))
    semis = _build_one(E, P, ("C2", "C2", "C2", "C1"), groups_by_name)
    A, B = semis[1], semis[2]
    assert invariants(A) == invariants(B) == ((1, 0, 2), (2, 0, 1), (2, 1, 1))
    assert not brute_force_isomorphic(A, B)
    for pair in ((A, B), (B, A)):
        stats = [0, 0, 0]
        assert list(_keep_new(pair, stats)) == list(pair)
        assert stats == [2, 1, 1]


# skeletons with a 2x2 Brandt block over a nontrivial group, of orders 10 to
# 15, beyond the brute-force oracle: class count, _keep_new stats and a
# digest of the kept tables
BRANDT_SKELETONS = (
    ("3:0<1,0<2", ((1, 2), (0,)), ("C2", "C2"), 3, [4, 2, 3],
     "8f4c55ab5bc4261a61a906db5e4a4b5b7aab151bbbfa96b0e2cc9b643607e83f"),
    ("3:0<1,0<2", ((1, 2), (0,)), ("C3", "C3"), 3, [9, 3, 6],
     "0f5abca90cd53b1338ed33886522a79fe97b0b88a4c7476f125507a984b0e9fc"),
    ("4:0<1,0<2,1<3,2<3", ((1, 2), (0,), (3,)), ("C2", "C2", "C2"),
     12, [20, 7, 20],
     "60a40a63b2044a91306967a37dae99c93a594f5bbae6f3d05ce3ed5e5a59bc6b"),
    ("4:0<1,0<2,0<3", ((1, 2), (0,), (3,)), ("C2", "C3", "C3"), 4, [9, 4, 5],
     "27848b838d08cac30e941bfa84c4c2a5bd72b4189e0bda8b9adae47d4419e708"),
    ("5:0<1,0<2,0<3,1<4,2<4", ((1, 2), (0,), (3,), (4,)), ("C2",) * 4,
     24, [40, 14, 40],
     "f6476c8314442f7d9736e92fb8d62c1521ec7cf9718bb7a0d9efd41f41e68959"),
)


@pytest.mark.parametrize("line,P,names,classes,stats,digest", BRANDT_SKELETONS)
def test_keep_new_on_brandt_blocks(line, P, names, classes, stats, digest,
                                   groups_by_name):
    candidates = _build_one(parse_cover_line(line), P, names, groups_by_name)
    got = [0, 0, 0]
    kept = list(_keep_new(candidates, got))
    assert (len(kept), got) == (classes, stats)
    text = repr([S.table for S in kept]).encode()
    assert hashlib.sha256(text).hexdigest() == digest


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
