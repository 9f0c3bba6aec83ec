import itertools

import pytest

from isgenum.orders import (
    ColoredPoset,
    MeetSemilattice,
    Poset,
    colored_isomorphisms,
    down_levels,
    format_cover_line,
    meet_semilattices,
    parse_cover_line,
    semilattice_count,
    up_down_levels,
    up_levels,
)

from expected_counts import LATTICES, SEMILATTICES

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


# ---------------------------------------------------------------------------
# levels


def test_down_levels_examples():
    assert down_levels(CHAIN3) == [(2,), (1,), (0,)]
    assert down_levels(ANTICHAIN2) == [(0, 1)]
    assert down_levels(VEE) == [(1, 2), (0,)]


def test_up_levels_examples():
    assert up_levels(CHAIN3) == [(0,), (1,), (2,)]
    assert up_levels(VEE) == [(0,), (1, 2)]


def test_up_down_levels_examples():
    assert up_down_levels(CHAIN3) == [(0,), (1,), (2,)]
    assert up_down_levels(VEE) == [(0,), (1, 2)]
    assert up_down_levels(DIAMOND) == [(0,), (1, 2), (3,)]


def test_levels_partition_and_refine():
    for E in meet_semilattices(6):
        n = E.size
        for levels in (down_levels(E), up_levels(E)):
            flat = sorted(x for lev in levels for x in lev)
            assert flat == list(range(n))
        ud = up_down_levels(E)
        assert sorted(x for lev in ud for x in lev) == list(range(n))
        dmap = {x: i for i, lev in enumerate(down_levels(E)) for x in lev}
        umap = {x: i for i, lev in enumerate(up_levels(E)) for x in lev}
        for lev in ud:
            assert len({dmap[x] for x in lev}) == 1
            assert len({umap[x] for x in lev}) == 1


def test_has_maximum_examples():
    assert CHAIN3.has_maximum()
    assert not VEE.has_maximum()
    assert parse_cover_line("1:").has_maximum()


# ---------------------------------------------------------------------------
# colored isomorphisms


def test_colored_isoms_identical_chain():
    cp = ColoredPoset(Poset(CHAIN3.down), ("a", "b", "c"))
    assert list(colored_isomorphisms(cp, cp)) == [(0, 1, 2)]


def test_colored_isoms_antichain_same_color():
    cp = ColoredPoset(ANTICHAIN2, ("x", "x"))
    assert sorted(colored_isomorphisms(cp, cp)) == [(0, 1), (1, 0)]


def test_colored_isoms_mismatched_colors():
    a = ColoredPoset(ANTICHAIN2, ("x", "x"))
    b = ColoredPoset(ANTICHAIN2, ("x", "y"))
    assert list(colored_isomorphisms(a, b)) == []


def test_colored_isoms_respect_order():
    a = ColoredPoset(Poset(CHAIN3.down), ("x", "x", "x"))
    maps = list(colored_isomorphisms(a, a))
    assert maps == [(0, 1, 2)]  # chain is rigid even with uniform colors


def test_colored_isoms_form_group():
    for E in meet_semilattices(5):
        cp = ColoredPoset(Poset(E.down), ("c",) * E.size)
        maps = set(colored_isomorphisms(cp, cp))
        assert tuple(range(E.size)) in maps
        for p in maps:
            inv = [0] * E.size
            for i, v in enumerate(p):
                inv[v] = i
            assert tuple(inv) in maps
            for q in maps:
                assert tuple(p[q[i]] for i in range(E.size)) in maps


def test_colored_isoms_match_uncolored_oracle():
    # with a constant coloring these are exactly the poset automorphisms
    for E in meet_semilattices(5):
        cp = ColoredPoset(Poset(E.down), (0,) * E.size)
        got = sorted(colored_isomorphisms(cp, cp))
        n = E.size
        expect = sorted(
            p for p in itertools.permutations(range(n))
            if all(
                ((E.down[j] >> i) & 1) == ((E.down[p[j]] >> p[i]) & 1)
                for i in range(n) for j in range(n)
            )
        )
        assert got == expect


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


@pytest.mark.stretch
def test_generation_counts_stretch():
    assert semilattice_count(9) == SEMILATTICES[9]
    assert semilattice_count(10) == SEMILATTICES[10]
