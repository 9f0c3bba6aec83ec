import itertools
import random
import re
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from isgenum import orders
from isgenum.engine import enumerate_semigroups
from isgenum.orders import (
    MeetSemilattice,
    Poset,
    automorphisms,
    down_levels,
    format_cover_line,
    meet_semilattices,
    parse_cover_line,
    semilattice_count,
    semilattice_level,
)

from expected_counts import LATTICES, SEMILATTICES, TOTALS

CHAIN3 = parse_cover_line("3:0<1,1<2")
VEE = parse_cover_line("3:0<1,0<2")
DIAMOND = parse_cover_line("4:0<1,0<2,1<3,2<3")
ANTICHAIN2 = Poset((1, 2))


def _poset_isomorphic(A, B):
    """Exhaustive bijection search between two posets."""
    if A.size != B.size:
        return False
    n = A.size
    for p in itertools.permutations(range(n)):
        if all(
            ((A.down[j] >> i) & 1) == ((B.down[p[j]] >> p[i]) & 1)
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# generation


def test_generation_counts_small():
    for m in range(1, 9):
        assert semilattice_count(m) == SEMILATTICES[m]


def test_lattice_counts_small():
    for m in range(1, 9):
        got = sum(1 for E in meet_semilattices(m) if E.has_maximum())
        assert got == LATTICES[m]


def test_generation_pairwise_non_isomorphic():
    for m in range(1, 7):
        reps = list(meet_semilattices(m))
        for i, A in enumerate(reps):
            for B in reps[i + 1:]:
                assert not _poset_isomorphic(A, B)


def test_generation_is_deterministic():
    first = [E.down for E in meet_semilattices(6)]
    second = [E.down for E in meet_semilattices(6)]
    assert first == second


def test_pooled_levels_match_serial(monkeypatch):
    serial = [semilattice_level(m) for m in range(1, 9)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        for mapper in (pool.map, partial(pool.map, chunksize=8)):
            # a fresh cache, restored after the test
            monkeypatch.setattr(orders, "_LEVELS", [((1,),)])
            assert semilattice_level(8, mapper) == serial[7]
            assert orders._LEVELS == serial


def test_emitted_labels_are_linear_extensions():
    for m in range(1, 7):
        for E in meet_semilattices(m):
            for j in range(E.size):
                assert E.down[j] >> (j + 1) == 0
            assert E.down[0] == 1


def test_meet_table_properties():
    for E in meet_semilattices(5):
        n = E.size
        for a in range(n):
            assert E.meet[a][a] == a
            for b in range(n):
                v = E.meet[a][b]
                assert v == E.meet[b][a]
                assert E.leq(v, a) and E.leq(v, b)
                # greatest among common lower bounds
                common = E.down[a] & E.down[b]
                assert E.down[v] == common
                for c in range(n):
                    assert E.meet[E.meet[a][b]][c] == E.meet[a][E.meet[b][c]]


def test_invalid_meet_semilattice_rejected():
    with pytest.raises(ValueError):
        MeetSemilattice((1, 2))  # two-element antichain has no meet
    with pytest.raises(ValueError):
        MeetSemilattice((3, 2))  # labels not a linear extension
    with pytest.raises(ValueError, match="own element"):
        MeetSemilattice((1, 1))  # the down-set of 1 misses 1


# ---------------------------------------------------------------------------
# levels


def test_down_levels_examples():
    assert down_levels(CHAIN3.down) == [(2,), (1,), (0,)]
    assert down_levels(ANTICHAIN2.down) == [(0, 1)]
    assert down_levels(VEE.down) == [(1, 2), (0,)]


def test_down_levels_rejects_non_posets():
    with pytest.raises(ValueError, match="no maximal element"):
        down_levels((1, 1))  # down-set of 1 misses 1
    with pytest.raises(ValueError, match="no maximal element"):
        down_levels((3, 3))  # 0 < 1 < 0
    with pytest.raises(ValueError, match="no maximal element"):
        down_levels((3, 3, 7))  # a cycle below a maximal element


def test_levels_partition_and_refine():
    for E in meet_semilattices(6):
        levels = down_levels(E.down)
        flat = sorted(x for lev in levels for x in lev)
        assert flat == list(range(E.size))


def _levels_oracle(down):
    """Repeatedly remove the elements with no strict upper bound among the
    elements left, by pairwise comparison."""
    n = len(down)

    def less(x, y):
        return x != y and down[y] >> x & 1

    left = set(range(n))
    levels = []
    while left:
        lev = [x for x in left if not any(less(x, y) for y in left)]
        levels.append(tuple(sorted(lev)))
        left -= set(lev)
    return levels


def test_levels_of_natural_orders_match_oracle():
    # the natural order of an inverse semigroup is a poset, in general not a
    # semilattice; a random relabelling also makes its labels stop being a
    # linear extension
    rng = random.Random(5)
    checked = 0
    for n in range(1, 6):
        for S in enumerate_semigroups(n):
            perm = rng.sample(range(n), n)
            shuffled = [0] * n
            for t in range(n):
                shuffled[perm[t]] = sum(
                    1 << perm[s] for s in range(n) if S.order_down[t] >> s & 1
                )
            for down in (S.order_down, tuple(shuffled)):
                assert down_levels(down) == _levels_oracle(down)
            checked += 1
    assert checked == sum(TOTALS[n][0] for n in range(1, 6))


def test_has_maximum_examples():
    assert CHAIN3.has_maximum()
    assert not VEE.has_maximum()
    assert parse_cover_line("1:").has_maximum()
    assert DIAMOND.has_maximum()


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphisms_antichain():
    assert sorted(automorphisms(ANTICHAIN2)) == [(0, 1), (1, 0)]


def test_automorphisms_chain_is_rigid():
    assert list(automorphisms(CHAIN3)) == [(0, 1, 2)]


def test_automorphisms_form_group():
    for E in meet_semilattices(5):
        maps = set(automorphisms(E))
        assert tuple(range(E.size)) in maps
        for p in maps:
            inv = [0] * E.size
            for i, v in enumerate(p):
                inv[v] = i
            assert tuple(inv) in maps
            for q in maps:
                assert tuple(p[q[i]] for i in range(E.size)) in maps


def test_automorphisms_match_oracle():
    for E in meet_semilattices(5):
        got = list(automorphisms(E))
        assert got[0] == tuple(range(E.size))
        assert sorted(got) == _automorphisms(E)


def _automorphisms(E):
    n = E.size
    return [
        p for p in itertools.permutations(range(n))
        if all(
            ((E.down[j] >> i) & 1) == ((E.down[p[j]] >> p[i]) & 1)
            for i in range(n) for j in range(n)
        )
    ]


# ---------------------------------------------------------------------------
# automorphism generators


# sum over the semilattices of order m of their Aut-orbits on points, m = 1..8
POINT_ORBIT_SUMS = (1, 2, 5, 16, 60, 262, 1315, 7505)


def test_generators_are_automorphisms_and_give_every_orbit():
    for m in range(1, 8):
        for E in meet_semilattices(m):
            _, _, gens = orders._canonical_labeling(m, E.down)
            for g in gens:
                assert sorted(g) == list(range(m))
                for x in range(m):
                    image = sum(1 << g[i] for i in range(m) if E.leq(i, x))
                    assert image == E.down[g[x]]
            auts = list(automorphisms(E))
            roots = orders._point_orbits(m, gens)
            for x in range(m):
                assert {p[x] for p in auts} == {
                    y for y in range(m) if roots[y] == roots[x]
                }


def test_point_orbit_sums():
    sums = []
    for m in range(1, 9):
        sums.append(0)
        for down in semilattice_level(m):
            _, _, gens = orders._canonical_labeling(m, down)
            sums[-1] += len(set(orders._point_orbits(m, gens)))
    assert tuple(sums) == POINT_ORBIT_SUMS


# ---------------------------------------------------------------------------
# canonical augmentation


def test_image_tables_map_every_extension_ideal():
    for m in range(1, 8):
        for E in meet_semilattices(m):
            _, _, gens = orders._canonical_labeling(m, E.down)
            images = orders._mask_images(m, gens)
            for D in orders._extension_ideals(E.down):
                assert images(D) == [sum(1 << g[x] for x in orders._bits(D))
                                     for g in gens]


def _extension_ideals_by_definition(down):
    """Every nonempty down-closed mask whose meet with each down[x] has a
    greatest element, sorted by its ascending maximal elements."""
    n = len(down)
    ideals = []
    for mask in range(1, 1 << n):
        members = list(orders._bits(mask))
        if any(down[x] & ~mask for x in members):
            continue
        if all(any(mask & down[x] & ~down[g] == 0
                   for g in orders._bits(mask & down[x]))
               for x in range(n)):
            tops = [x for x in members
                    if not any(y != x and down[y] >> x & 1 for y in members)]
            ideals.append((tops, mask))
    return [mask for _, mask in sorted(ideals)]


def test_extension_ideals_match_definition():
    # in canonical labels and in the labels that canonical augmentation
    # grows, which are linear extensions too
    checked = 0
    level = [(1,)]
    for m in range(1, 8):
        grown = []
        for down in level:
            grown += orders.owned_children(
                down, orders._canonical_labeling(m, down)[2])
        for down in (*semilattice_level(m), *level):
            assert orders._extension_ideals(down) == (
                _extension_ideals_by_definition(down)), down
            checked += 1
        level = grown
    assert checked == 2 * sum(SEMILATTICES[m] for m in range(1, 8))


def test_rigid_semilattices_own_pairwise_distinct_children():
    rigid = 0
    for m in range(1, 8):
        for down in semilattice_level(m):
            if orders._canonical_labeling(m, down)[2]:
                continue
            rigid += 1
            forms = [orders._canonical_form(m + 1, child)
                     for child in orders.owned_children(down, [])]
            assert len(set(forms)) == len(forms)
    assert rigid == 109  # 1, 1, 1, 2, 5, 18 and 81 of orders 1..7


def test_twin_rival_keeps_the_child_unlabeled(monkeypatch):
    # the chain 0 < 1 extended below 1: the new element and 1 have equal
    # keys and are twins, so the child (a vee) is kept with no labeling
    def no_labeling(*args):
        raise AssertionError("child labeled")

    monkeypatch.setattr(orders, "_canonical_labeling", no_labeling)
    assert orders.owned_children((0b01, 0b11), []) == [
        (0b001, 0b011, 0b101), (0b001, 0b011, 0b111)]


def _is_automorphism(down, g):
    return sorted(g) == list(range(len(down))) and all(
        down[g[y]] == sum(1 << g[v] for v in range(len(down)) if d >> v & 1)
        for y, d in enumerate(down))


def test_swap_is_an_automorphism_exchanging_the_new_element(monkeypatch):
    # on every semilattice of order 2..7, for each maximal x below no other
    # element, other than the last element z: a swap found is an involution
    # and an automorphism that exchanges x and z, and twins give the plain
    # swap; some non-twins have a swap and some rivals have none
    found = {True: 0, False: 0}
    for m in range(2, 8):
        for down in semilattice_level(m):
            z = m - 1
            for x in range(z):
                if any(d >> x & 1 for y, d in enumerate(down) if y != x):
                    continue
                swap = orders._swap(down, x)
                if down[x] ^ 1 << x == down[z] ^ 1 << z:
                    plain = list(range(m))
                    plain[x], plain[z] = z, x
                    assert swap == tuple(plain)
                elif swap is None:
                    found[False] += 1
                else:
                    found[True] += 1
                if swap is not None:
                    assert swap[x] == z and swap[z] == x
                    assert all(swap[swap[y]] == y for y in range(m))
                    assert _is_automorphism(down, swap), (down, x, swap)
    assert found[True] and found[False]
    # 0 < 1, 2 and 1 < 3: z over 2 mirrors 3 over 1, a non-twin rival
    child = (0b1, 0b11, 0b101, 0b1011, 0b10101)
    assert orders._swap(child, 3) == (0, 2, 1, 4, 3)
    # with a second element 4 over 1, the rival 3 and z = 5 have down-sets
    # of one size, but 1 lies under three elements and 2 under two
    assert orders._swap((0b1, 0b11, 0b101, 0b1011, 0b10011, 0b100101),
                        3) is None

    def no_labeling(*args):
        raise AssertionError("child labeled")

    # every tie of this rigid parent's children has a swap
    monkeypatch.setattr(orders, "_canonical_labeling", no_labeling)
    assert child in orders.owned_children(child[:-1], [])


def _owned_by_brute_force(pdown, gens):
    """The first ideal of each Aut(P)-orbit whose child P owns, by the rule
    itself: rank each maximal element x of the child by (|down x|, the
    sorted (|down y|, |up y|) over the y <= x); the child is owned iff the
    new element z has the top rank and the top-rank element that the
    child's canonical labeling places last lies in z's orbit."""
    m = len(pdown)
    kept = []
    for orbit in orders._orbits(orders._extension_ideals(pdown),
                                orders._mask_images(m, gens)):
        child = pdown + (orbit[0] | 1 << m,)
        size = [d.bit_count() for d in child]
        up = [sum(d >> y & 1 for d in child) for y in range(m + 1)]
        rank = {x: (size[x], sorted((size[y], up[y])
                                    for y in orders._bits(child[x])))
                for x in range(m + 1) if up[x] == 1}
        top = max(rank.values())
        if rank[m] != top:
            continue
        _, labels, cgens = orders._canonical_labeling(m + 1, child)
        last = max([x for x in rank if rank[x] == top], key=labels.index)
        roots = orders._point_orbits(m + 1, cgens)
        if roots[last] == roots[m]:
            kept.append(orbit[0])
    return kept


def _check_ownership_by_brute_force(levels):
    """`_owned` against the brute-force rule on every semilattice of the
    given orders, with fresh generators; the number of children owned."""
    owned = 0
    for m in levels:
        for pdown in semilattice_level(m):
            gens = orders._canonical_labeling(m, pdown)[2]
            got = [D for D, _ in orders._owned(
                pdown, gens, orders._extension_ideals(pdown))]
            assert got == _owned_by_brute_force(pdown, gens), pdown
            owned += len(got)
    return owned


def test_ownership_matches_the_brute_force_rule():
    # each semilattice of order m + 1 is owned once over level m
    assert _check_ownership_by_brute_force(range(1, 8)) == sum(
        SEMILATTICES[m] for m in range(2, 9))


@pytest.mark.stretch
def test_ownership_brute_force_stretch_orders_8_and_9():
    assert _check_ownership_by_brute_force((8, 9)) == (
        SEMILATTICES[9] + SEMILATTICES[10])


# ---------------------------------------------------------------------------
# cover-relation file format


def test_cover_line_round_trip():
    for m in range(1, 7):
        for E in meet_semilattices(m):
            line = format_cover_line(E)
            back = parse_cover_line(line)
            assert back.down == E.down


def test_cover_line_singleton():
    assert format_cover_line(parse_cover_line("1:")) == "1:"


def test_cover_line_rejects_garbage():
    for bad in ["", "x", "3:2<1", "3:0<5", "2:0<1,0<1", "3:0<1,1<2,0<2"]:
        with pytest.raises(ValueError):
            parse_cover_line(bad)
    # int() reads a sign, '_' between digits and spaces around them; a
    # label is decimal digits alone, and the error names the bad token
    for bad, token in (("2:0<+1", "0<+1"), ("+2:0<1", "+2"),
                       ("2:0<1_0", "0<1_0"), ("1_1:", "1_1"),
                       ("2: 0<1", " 0<1")):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            parse_cover_line(bad)


@pytest.mark.stretch
def test_generation_counts_stretch():
    assert semilattice_count(9) == SEMILATTICES[9]
    assert semilattice_count(10) == SEMILATTICES[10]
