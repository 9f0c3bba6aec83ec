import importlib.util
import itertools
import os
import sys

import pytest

from isgenum import engine, gposets, orders
from isgenum.engine import (
    CountLedger,
    EnumerationConfig,
    _classes,
    _clifford_cell,
    _orbit_row,
    _semilattice_task,
    _skeletons,
    breakdown_csv,
    enumerate_counts_only,
    enumerate_fixed,
    enumerate_semigroups,
    run_enumeration,
    write_cayley_files,
    write_semilattice_file,
)
from isgenum.esn import esn, validate_inverse_semigroup
from isgenum.gposets import e_groupoid, g_posets
from isgenum.groups import Group, catalog, is_isomorphic
from isgenum.iso import brute_force_isomorphic, is_isoc
from isgenum.orders import (
    MeetSemilattice,
    _canonical_labeling,
    _canonical_form,
    automorphisms,
    meet_semilattices,
    owned_children,
    parse_cover_line,
    semilattice_level,
)
from isgenum.shapes import (
    admissible_compositions,
    d_partitions,
    group_maps,
    is_d_partition,
    partitions,
)

from expected_counts import BREAKDOWN, SEMILATTICES, TOTALS

VEE = parse_cover_line("3:0<1,0<2")
CHAIN2 = parse_cover_line("2:0<1")


# ---------------------------------------------------------------------------
# oracles


def _all_semigroup_tables(n):
    """Every associative table on {0..n-1}, by cellwise backtracking."""
    table = [[-1] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    out = []

    def consistent():
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                if ab < 0:
                    continue
                for c in range(n):
                    bc = table[b][c]
                    if bc < 0:
                        continue
                    lhs = table[ab][c]
                    rhs = table[a][bc]
                    if lhs >= 0 and rhs >= 0 and lhs != rhs:
                        return False
        return True

    def rec(k):
        if k == len(cells):
            out.append(tuple(tuple(row) for row in table))
            return
        i, j = cells[k]
        for v in range(n):
            table[i][j] = v
            if consistent():
                rec(k + 1)
        table[i][j] = -1

    rec(0)
    return out


def _inverse_semigroup_classes_bruteforce(n):
    """Inverse semigroups of order n up to isomorphism, from all tables."""
    reps = []
    for tab in _all_semigroup_tables(n):
        if not validate_inverse_semigroup(tab):
            continue
        if not any(brute_force_isomorphic(tab, r) for r in reps):
            reps.append(tab)
    return reps


def _raw_generated(n):
    """Replay the generation loop without any isomorphism rejection."""
    cat = catalog(n)
    out = []
    for m in range(1, n + 1):
        shapes = [
            (s, admissible_compositions(n, s)) for s in partitions(m)
        ]
        shapes = [(s, c) for s, c in shapes if c]
        if not shapes:
            continue
        for E in meet_semilattices(m):
            for shape, comps in shapes:
                dparts = d_partitions(E, shape)
                for C in comps:
                    for P in dparts:
                        for f in group_maps(P, C, cat):
                            basis = e_groupoid(E, P, f)
                            for down in g_posets(basis):
                                out.append(esn(basis, down))
    return out


def _search(n, E):
    """`_classes` over every shape, with generators of Aut(E)."""
    return _classes(n, E, _canonical_labeling(E.size, E.down)[2])


def _commutative_by_table(S):
    table = S.table
    return all(table[x][y] == table[y][x]
               for x in range(S.size) for y in range(x))


def _dedupe_bruteforce(semis):
    reps = []
    for S in semis:
        if not any(brute_force_isomorphic(S, R) for R in reps):
            reps.append(S)
    return reps


# ---------------------------------------------------------------------------
# counts


@pytest.mark.parametrize("n", range(1, 7))
def test_totals_small(n):
    assert enumerate_counts_only(n).totals() == TOTALS[n]


@pytest.mark.parametrize("n", range(2, 7))
def test_breakdown_cells_small(n):
    ledger = enumerate_counts_only(n)
    cells = {k: tuple(v) for k, v in ledger.cells.items()}
    assert cells == BREAKDOWN[n]


def test_stream_matches_counts():
    for n in range(1, 7):
        semis = list(enumerate_semigroups(n))
        assert len(semis) == TOTALS[n][0]
        assert all(S.size == n for S in semis)


def test_stream_complete_against_table_oracle():
    # order <= 4: compare against a from-scratch enumeration of all tables
    for n in range(1, 5):
        oracle = _inverse_semigroup_classes_bruteforce(n)
        mine = list(enumerate_semigroups(n))
        assert len(mine) == len(oracle) == TOTALS[n][0]
        for S in mine:
            assert sum(
                1 for r in oracle if brute_force_isomorphic(S.table, r)
            ) == 1


@pytest.mark.parametrize("n", [5, 6])
def test_stream_matches_raw_dedup(n):
    # dedup of the raw pre-rejection stream agrees with the engine output
    raw = _raw_generated(n)
    assert len(raw) >= TOTALS[n][0]
    assert len(_dedupe_bruteforce(raw)) == TOTALS[n][0]


def test_stream_pairwise_non_isomorphic_small():
    for n in range(1, 6):
        semis = list(enumerate_semigroups(n))
        for A, B in itertools.combinations(semis, 2):
            assert not brute_force_isomorphic(A, B)


# ---------------------------------------------------------------------------
# skeleton orbits


def _moved(p, P, f):
    """The skeleton (P, f) moved by p, as a set of (block, group) pairs."""
    return frozenset(
        (frozenset(p[x] for x in X), G) for X, G in zip(P, f)
    )


def test_skeletons_keeps_first_of_each_orbit():
    cat = catalog(7)
    checked = 0
    for n in range(1, 8):
        for m in range(1, min(n, 6) + 1):
            for E in meet_semilattices(m):
                autos = list(automorphisms(E))
                _, _, gens = _canonical_labeling(E.size, E.down)
                for shape in partitions(m):
                    comps = admissible_compositions(n, shape)
                    dparts = d_partitions(E, shape)
                    seen = set()
                    first = []
                    for C in comps:
                        for P in dparts:
                            for f in group_maps(P, C, cat):
                                if _moved(range(m), P, f) not in seen:
                                    first.append((P, f))
                                    seen.update(_moved(p, P, f)
                                                for p in autos)
                    kept = [(basis.partition, basis.groups) for basis in
                            _skeletons(E, comps, dparts, cat, gens)]
                    assert kept == first, (n, E.down, shape)
                    checked += len(kept)
    assert checked == 847


def test_isomorphic_candidates_share_a_skeleton_orbit():
    # the lemma behind one store per skeleton orbit, on the raw stream
    positives = 0
    for n in range(1, 7):
        raw = _raw_generated(n)
        for A, B in itertools.combinations(raw, 2):
            if not brute_force_isomorphic(A, B):
                continue
            assert A.E.down == B.E.down
            target = _moved(range(A.E.size), B.d_restriction, B.groups)
            assert any(_moved(p, A.d_restriction, A.groups) == target
                       for p in automorphisms(A.E))
            positives += 1
    assert positives == 66


# ---------------------------------------------------------------------------
# ledger behavior


def test_ledger_merge_and_totals():
    a = CountLedger()
    a.add_cell(2, (1, 1), 3, 2, True)
    a.add_cell(2, (1, 1), 1, 1, False)
    a.add_cell(3, (2, 1), 2, 0, False)
    assert a.cell(2, (1, 1)) == (4, 3, 3, 2, 2, 1)
    assert a.cell(3, (2, 1)) == (2, 0, 0, 0, 1, 0)
    assert a.totals() == (6, 3, 3, 2)


def test_ledger_ignores_empty_contribution():
    a = CountLedger()
    a.add_cell(2, (1, 1), 0, 0, True)
    assert a.cells == {}


def test_ledger_adds_a_cell_in_one_update():
    # a walk node at k = 1 adds its owned children, each its own class, to
    # the all-points cell at once, as one add_cell per child would
    one, each = CountLedger(), CountLedger()
    one.add(3, (1, 1, 1), (3, 3, 1, 1, 3, 1))
    for lattice in (False, True, False):
        each.add_cell(3, (1, 1, 1), 1, 1, lattice)
    assert one.cells == each.cells == {(3, (1, 1, 1)): [3, 3, 1, 1, 3, 1]}


def test_breakdown_csv_format():
    ledger = enumerate_counts_only(5)
    text = breakdown_csv(ledger, 5)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "n,idempotents,shape,isgs,comm_isgs,ims,comm_ims,semilattices,lattices"
    )
    assert "5,3,2.1,1,0,0,0,1,0" in lines
    assert "5,3,1.1.1,13,13,8,8,2,1" in lines
    # rows ordered by idempotent count, then shape descending
    keys = [tuple(line.split(",")[1:3]) for line in lines[1:]]
    assert keys == sorted(
        keys, key=lambda k: (int(k[0]), tuple(-int(p) for p in k[1].split(".")))
    )


# ---------------------------------------------------------------------------
# fixed-parameters mode


def test_fixed_brandt(groups_by_name):
    got = enumerate_fixed(
        VEE, ((1, 2), (0,)), (groups_by_name["C1"], groups_by_name["C1"])
    )
    assert len(got) == 1
    assert got[0].size == 5


def test_fixed_chain_c2(groups_by_name):
    got = enumerate_fixed(
        CHAIN2, ((0,), (1,)), (groups_by_name["C2"], groups_by_name["C1"])
    )
    assert len(got) == 1
    assert got[0].size == 3


def test_fixed_vee_c2_pair(groups_by_name):
    got = enumerate_fixed(
        VEE, ((1, 2), (0,)), (groups_by_name["C1"], groups_by_name["C2"])
    )
    assert len(got) == 2
    assert not brute_force_isomorphic(got[0], got[1])


def test_fixed_rejects_non_d_partition(groups_by_name):
    chain3 = parse_cover_line("3:0<1,1<2")
    with pytest.raises(ValueError):
        enumerate_fixed(
            chain3, ((1, 2), (0,)),
            (groups_by_name["C1"], groups_by_name["C1"]),
        )


def test_fixed_rejects_bad_partition(groups_by_name):
    with pytest.raises(ValueError):
        enumerate_fixed(
            VEE, ((1, 2),), (groups_by_name["C1"],)
        )


def test_fixed_rejects_misshapen_input(groups_by_name):
    # both are caught by the basis constructor
    C1 = groups_by_name["C1"]
    with pytest.raises(ValueError, match="weakly decreasing"):
        enumerate_fixed(VEE, ((0,), (1, 2)), (C1, C1))
    with pytest.raises(ValueError, match="one group per block"):
        enumerate_fixed(VEE, ((1, 2), (0,)), (C1,))


def test_fixed_same_named_groups_stay_apart(groups_by_name):
    # the search caches must not hand one group's cells to another group
    # that merely shares its name
    E1 = parse_cover_line("1:")
    for name, orders in (("C4", [1, 2, 4, 4]), ("C2xC2", [1, 2, 2, 2])):
        G = Group(groups_by_name[name].mul, "G")
        (S,) = enumerate_fixed(E1, ((0,),), (G,))
        T = Group(S.table, "table")
        assert sorted(T.element_order(x) for x in range(4)) == orders
        assert is_isomorphic(T, groups_by_name[name])
    # one table under two names: one layout, but each basis keeps the
    # caller's own groups; a semigroup over either is the same semigroup
    mul = groups_by_name["C2"].mul
    A, B = Group(mul, "A"), Group(mul, "B")
    a = e_groupoid(CHAIN2, ((0,), (1,)), (A, A))
    layouts = len(gposets._LAYOUTS)
    b = e_groupoid(CHAIN2, ((0,), (1,)), (A, B))
    assert len(gposets._LAYOUTS) == layouts
    assert a.elem is b.elem and a.compose is b.compose
    assert a.groups[1] is A and b.groups[1] is B
    (S,) = enumerate_fixed(E1, ((0,),), (A,))
    (T,) = enumerate_fixed(E1, ((0,),), (B,))
    assert S.groups[0] is A and T.groups[0] is B
    assert is_isoc(S, T) and brute_force_isomorphic(S, T)


def test_fixed_caches_do_not_grow_with_fresh_groups(groups_by_name):
    # the search caches are keyed by group tables, so new Group objects
    # with a table already seen add no entries
    caches = (gposets._BLOCK_CELLS, gposets._POSS_CACHE, gposets._LAYOUTS,
              gposets._SHARED)
    mul = groups_by_name["C2"].mul

    def call():
        f = (Group(mul, "C2"), Group(mul, "C2"))
        assert len(enumerate_fixed(CHAIN2, ((0,), (1,)), f)) == 2

    call()
    sizes = [len(cache) for cache in caches]
    for _ in range(199):
        call()
    assert [len(cache) for cache in caches] == sizes


def test_fixed_narrower_than_full(groups_by_name):
    # same (E, P) with all group assignments of order 6 reproduces the cell
    total = 0
    for names in (("C1", "C2"),):
        total += len(enumerate_fixed(
            VEE, ((1, 2), (0,)),
            tuple(groups_by_name[t] for t in names),
        ))
    ledger = enumerate_counts_only(6)
    assert ledger.cell(3, (2, 1))[0] == total == 2


# ---------------------------------------------------------------------------
# determinism and parallel scheduling


def test_thread_count_does_not_change_ledger():
    l1 = enumerate_counts_only(5, threads=1)
    l2 = enumerate_counts_only(5, threads=2)
    assert l1 == l2
    assert l1.totals() == TOTALS[5]


def test_thread_count_does_not_change_tables(tmp_path):
    for k in (1, 2):
        run_enumeration(EnumerationConfig(order=5, out=str(tmp_path / str(k)),
                                          threads=k))
    assert _read_dir(tmp_path / "1") == _read_dir(tmp_path / "2")


def test_thread_count_does_not_change_counters():
    # CountLedger.__eq__ compares cells only; the counters are checked here
    # (order 7 searches nothing, order 9 rows k = 5..8)
    for threads in (1, 2):
        ledger = enumerate_counts_only(9, threads=threads)
        assert (ledger.generated, ledger.immediate, ledger.iso_tests) == (
            71, 50, 21
        )


def test_thread_count_does_not_change_order_8():
    # cells, breakdown CSV and counters, with subtree tasks in the workers
    ledgers = [enumerate_counts_only(8, threads=k) for k in (1, 2)]
    for ledger in ledgers:
        assert (ledger.generated, ledger.immediate, ledger.iso_tests) == (
            8, 5, 3
        )
    assert ledgers[0].cells == ledgers[1].cells
    assert breakdown_csv(ledgers[0], 8) == breakdown_csv(ledgers[1], 8)


def test_pool_maps_each_level_in_eighths(monkeypatch):
    # counts mode maps like full mode: each canonical level 1..5 of a count
    # of order 9 (1, 1, 2, 5 and 15 semilattices) in slices of
    # 1 + len(level) // 8 tasks, in level order
    maps = []

    class InProcess:
        def __init__(self, max_workers):
            pass

        def map(self, fn, tasks, chunksize=1):
            if getattr(fn, "func", None) is _semilattice_task:
                maps.append(list(tasks))
            return map(fn, tasks)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(engine, "ProcessPoolExecutor", InProcess)
    ledger = enumerate_counts_only(9, threads=2)
    one = enumerate_counts_only(9)
    assert ledger == one
    assert (ledger.generated, ledger.immediate, ledger.iso_tests) == (
        one.generated, one.immediate, one.iso_tests)
    assert [len(tasks) for tasks in maps] == [1] * 9 + [2] * 7 + [1]
    assert [down for tasks in maps for down in tasks] == [
        down for m in range(1, 6) for down in semilattice_level(m)]


def test_parent_grows_only_the_orders_below_n_minus_4(monkeypatch):
    # at n = 8 the parent takes the canonical levels 1..4 and extends none
    # of them: canonical augmentation runs only in the walk from each
    # semilattice of order r = 4, whose steps of orders 4, 5, 6 and 7 find
    # the owned children of orders 5, 6, 7 and 8
    calls = []
    owned = engine._owned

    def counted(pdown, gens, ideals):
        calls.append(len(pdown))
        return owned(pdown, gens, ideals)

    monkeypatch.setattr(engine, "_owned", counted)
    assert enumerate_counts_only(8).totals() == TOTALS[8]
    assert sorted(set(calls)) == [4, 5, 6, 7]


@pytest.mark.parametrize("n", [1, 4, 8])
def test_count_tasks_are_the_canonical_levels(monkeypatch, n):
    # the top-level steps (each with a new ledger) take the canonical levels
    # 1..r, r = max(1, n - 4), in order; the walk's steps share their
    # root's ledger
    tasks = []

    def counted(order, collect, down, ledger=None, inherited=None):
        if ledger is None:
            tasks.append(down)
        return _semilattice_task(order, collect, down, ledger, inherited)

    monkeypatch.setattr(engine, "_semilattice_task", counted)
    assert enumerate_counts_only(n).totals() == TOTALS[n]
    assert tasks == [down for m in range(1, max(1, n - 4) + 1)
                     for down in semilattice_level(m)]


def test_count_and_enumerate_ledgers_agree(tmp_path):
    # full mode also searches rows n - 4 to n - 1, and the Clifford cell of
    # every row, which counts mode reads off the Aut(E)-orbits or
    # `_clifford_cell`, so the counters differ by exactly that search; at
    # n = 6 that is every candidate
    counts = enumerate_counts_only(6)
    full = run_enumeration(EnumerationConfig(order=6,
                                             out=str(tmp_path))).ledger
    assert full == counts
    gap = (0, 0, 0)
    for m in range(1, 6):
        for E in meet_semilattices(m):
            for shape, _, stats in _search(6, E):
                if m >= 6 - 4 or shape[0] == 1:
                    gap = tuple(a + b for a, b in zip(gap, stats))
    assert gap == (161, 155, 6)
    assert (full.generated - counts.generated,
            full.immediate - counts.immediate,
            full.iso_tests - counts.iso_tests) == gap


def _read_off_orbits(n, m, shape):
    """Whether counts mode fills the cell (m, shape) of order n from orbits:
    rows n - 4 to n, and every all-points cell."""
    return m > n - 5 or shape == (1,) * m


def _top_rows_by_search(n):
    """The cells of `_read_off_orbits` as full mode fills them: by the search
    over levels 1 to n - 1 and from the masks of level n."""
    ledger = CountLedger()
    for m in range(1, n):
        for E in meet_semilattices(m):
            for shape, kept, _ in _search(n, E):
                if _read_off_orbits(n, m, shape):
                    comm = sum(map(_commutative_by_table, kept))
                    ledger.add_cell(m, shape, len(kept), comm,
                                    E.has_maximum())
    full = (1 << n) - 1
    for down in semilattice_level(n):
        ledger.add_cell(n, (1,) * n, 1, 1, down[-1] == full)
    return ledger


def _check_top_rows(n):
    searched = _top_rows_by_search(n)
    # m = n - 1 admits only singleton D-classes, m = n - 2 and n - 3
    # besides them only one 2-block over C1, and m = n - 4 one or two; of
    # the rows below only the all-points cells are read off orbits
    assert set(searched.cells) <= {
        (m, (1,) * m) for m in range(1, n + 1)} | {
        (n - 2, (2,) + (1,) * (n - 4)), (n - 3, (2,) + (1,) * (n - 5)),
        (n - 4, (2,) + (1,) * (n - 6)), (n - 4, (2, 2) + (1,) * (n - 8))}
    for threads in (1, 2):
        ledger = enumerate_counts_only(n, threads=threads)
        top = {k: v for k, v in ledger.cells.items()
               if _read_off_orbits(n, *k)}
        assert top == searched.cells


@pytest.mark.parametrize("n", range(2, 9))
def test_top_rows_match_search(n):
    _check_top_rows(n)


def test_two_below_counts_match_listed_automorphisms():
    # orbits from every automorphism, listed, against the union-finds over
    # the canonical search's generators
    for m in range(1, 8):
        for E in meet_semilattices(m):
            auts = list(automorphisms(E))
            points = {frozenset(p[x] for p in auts) for x in range(m)}
            pairs = {min(tuple(sorted((p[a], p[b]))) for p in auts)
                     for a, b in itertools.combinations(range(m), 2)}
            clifford = len(points)
            brandt = 0
            for a, b in pairs:
                covers = E.leq(a, b) and not any(
                    E.leq(a, z) and E.leq(z, b) for z in range(m)
                    if z not in (a, b))
                clifford += 1 + covers
                rest = tuple((z,) for z in range(m) if z not in (a, b))
                brandt += is_d_partition(E, ((a, b),) + rest)
            _, _, gens = _canonical_labeling(m, E.down)
            assert _orbit_row(1, E.down, gens) == (len(points), ())
            assert _orbit_row(2, E.down, gens) == (clifford, (brandt,))


def _c2_orbits(E, gens, k):
    """Classes with C2 at the points of a k-set T, trivial groups elsewhere,
    from every subset of T's comparable pairs: one per orbit of (T, the
    pairs b < a in T whose structure map is the identity).  It is the
    identity iff every d strictly between is in T with identity maps from
    a to d and d to b, and trivial otherwise."""
    down, up = E.down, E.up
    maps = []
    for T in itertools.combinations(range(E.size), k):
        below = [(b, a) for b, a in itertools.combinations(T, 2)
                 if down[a] >> b & 1]
        maps += [(T, ids) for j in range(len(below) + 1)
                 for ids in itertools.combinations(below, j)
                 if all(((b, a) in ids) == (d in T and (b, d) in ids
                                            and (d, a) in ids)
                        for b, a in below
                        for d in orders._bits(
                            down[a] & up[b] ^ 1 << a ^ 1 << b))]
    return len(list(orders._orbits(maps, lambda item: [
        (tuple(sorted(map(g.__getitem__, item[0]))),
         tuple(sorted((g[b], g[a]) for b, a in item[1]))) for g in gens])))


def _check_c2_cover_rule(sizes):
    """`_c2_classes`, which lists sets of identity covers, against the
    listing of every set of identity pairs, on every semilattice of the
    given orders for k = 2..4, under its generators and under none."""
    for m in sizes:
        for E in meet_semilattices(m):
            fresh = _canonical_labeling(m, E.down)[2]
            for gens in (fresh, []):
                images = orders._mask_images(m, gens)
                for k in range(2, 5):
                    assert engine._c2_classes(
                        k, E.down, E.covers, gens, images) == (
                        _c2_orbits(E, gens, k)), (E.down, gens, k)


def test_c2_cover_rule_matches_pair_listing():
    _check_c2_cover_rule(range(1, 8))


@pytest.mark.stretch
def test_c2_cover_rule_stretch_orders_8_and_9():
    _check_c2_cover_rule((8, 9))


def test_rigid_nodes_search_no_orbits(monkeypatch):
    # with no generators every point, item and ideal is its own orbit, so
    # the rows and the owned children of a rigid semilattice come out the
    # same with the orbit search patched out; a child labelled on a tie
    # gets its point orbits from the closure of its generators here
    rigid = [down for m in range(1, 8) for down in semilattice_level(m)
             if not _canonical_labeling(m, down)[2]]

    def walk(down):
        owned = orders._owned(down, [], orders._extension_ideals(down))
        return ([_orbit_row(k, down, []) for k in range(1, 5)],
                [(D, inherit()) for D, inherit in owned])

    before = [walk(down) for down in rigid]

    def no_search(items, images):
        raise AssertionError("an orbit search at a rigid node")

    monkeypatch.setattr(engine, "_orbits", no_search)
    monkeypatch.setattr(orders, "_orbits", no_search)
    monkeypatch.setattr(orders, "_point_orbits", lambda n, gens: [
        min(g[x] for g in _closure(n, gens)) for x in range(n)])
    assert [walk(down) for down in rigid] == before
    assert len(rigid) == 109
    # the Brandt branch of row 4 is exercised: one and two 2-blocks
    assert all(sum(rows[3][1][j] for rows, _ in before) for j in (0, 1))


def _three_below_by_listed_automorphisms(E):
    """(Clifford, Brandt) classes of order |E| + 3 over E, from orbits under
    every automorphism of E, listed, and D-partitions by their definition."""
    m = E.size
    auts = list(automorphisms(E))

    def orbits(items, image):
        return {min(image(p, item) for p in auts) for item in items}

    def covered(x, y):
        return E.leq(x, y) and x != y and not any(
            E.leq(x, z) and E.leq(z, y) for z in range(m) if z not in (x, y))

    points = orbits(range(m), lambda p, x: p[x])
    ordered = orbits(itertools.permutations(range(m), 2),
                     lambda p, ef: (p[ef[0]], p[ef[1]]))
    # C2 at the points of T: phi(a, b) is the identity for b < a in T in a
    # chosen set, and phi(a, b) = phi(d, b) phi(a, d) for all b < d < a
    strict = {(b, a) for b, a in itertools.permutations(range(m), 2)
              if E.leq(b, a)}
    maps = []
    for T in itertools.combinations(range(m), 3):
        inside = sorted((b, a) for b, a in strict if b in T and a in T)
        for k in range(len(inside) + 1):
            for ids in itertools.combinations(inside, k):
                if all(((b, a) in ids) == ((b, d) in ids and (d, a) in ids)
                       for b, a in strict for d in range(m)
                       if (b, d) in strict and (d, a) in strict):
                    maps.append((T, ids))
    maps = orbits(maps, lambda p, item: (
        tuple(sorted(p[x] for x in item[0])),
        tuple(sorted((p[b], p[a]) for b, a in item[1]))))
    brandt = 0
    for (a, b), c in orbits(
            [((a, b), c) for a, b in itertools.combinations(range(m), 2)
             for c in range(m) if c not in (a, b)],
            lambda p, t: (tuple(sorted((p[t[0][0]], p[t[0][1]]))), p[t[1]])):
        rest = tuple((z,) for z in range(m) if z not in (a, b))
        if is_d_partition(E, ((a, b),) + rest):
            brandt += 1 + (c == E.meet[a][b] or covered(a, c)
                           and covered(b, c))
    return 2 * len(points) + len(ordered) + len(maps), (brandt,)


def _check_three_below_by_listed_automorphisms(m):
    for E in meet_semilattices(m):
        _, _, gens = _canonical_labeling(m, E.down)
        assert _orbit_row(3, E.down, gens) == (
            _three_below_by_listed_automorphisms(E))


def test_three_below_counts_match_listed_automorphisms():
    for m in range(1, 8):
        _check_three_below_by_listed_automorphisms(m)


@pytest.mark.stretch
def test_three_below_stretch_listed_automorphisms_m_8():
    # the semilattices of order 8 that a count of order 11 walks
    _check_three_below_by_listed_automorphisms(8)


def _check_three_below_by_search(n):
    """`_orbit_row(3)` against the search, per semilattice of order
    n - 3: Clifford classes are the commutative ones, all of one shape."""
    m = n - 3
    for E in meet_semilattices(m):
        counts = {shape: (len(kept), sum(map(_commutative_by_table, kept)))
                  for shape, kept, _ in _search(n, E)}
        _, _, gens = _canonical_labeling(m, E.down)
        clifford, (brandt,) = _orbit_row(3, E.down, gens)
        assert counts.pop((1,) * m, (0, 0)) == (clifford, clifford)
        assert counts.pop((2,) + (1,) * (m - 2), (0, 0)) == (brandt, 0)
        assert not any(count for count, _ in counts.values())


@pytest.mark.parametrize("n", range(4, 10))
def test_three_below_counts_match_search(n):
    _check_three_below_by_search(n)


@pytest.mark.stretch
def test_three_below_stretch_order_10():
    _check_three_below_by_search(10)


def _check_four_below_by_search(n):
    """`_orbit_row(4)` against the search, per semilattice of order n - 4:
    the Clifford classes are the commutative ones, all of one shape, and
    the Brandt cells have one and two 2-blocks, none commutative."""
    m = n - 4
    for E in meet_semilattices(m):
        counts = {shape: (len(kept), sum(map(_commutative_by_table, kept)))
                  for shape, kept, _ in _search(n, E)}
        _, _, gens = _canonical_labeling(m, E.down)
        clifford, (one, two) = _orbit_row(4, E.down, gens)
        assert counts.pop((1,) * m) == (clifford, clifford)
        assert counts.pop((2,) + (1,) * (m - 2), (0, 0)) == (one, 0)
        assert counts.pop((2, 2) + (1,) * (m - 4), (0, 0)) == (two, 0)
        assert not any(count for count, _ in counts.values())


@pytest.mark.parametrize("n", range(5, 10))
def test_four_below_clifford_matches_search(n):
    _check_four_below_by_search(n)


@pytest.mark.stretch
def test_four_below_clifford_stretch_order_10():
    _check_four_below_by_search(10)


def test_clifford_cell_matches_orbit_row():
    # two derivations of the Clifford classes of rows k = 1..4: the strong
    # semilattices of groups up to Aut(E) and each Aut(G_x), and the orbit
    # formulas of `_orbit_row`; every group of order at most 5 is abelian
    for m in range(1, 7):
        for E in meet_semilattices(m):
            _, _, gens = _canonical_labeling(m, E.down)
            for k in range(1, 5):
                clifford = _orbit_row(k, E.down, gens)[0]
                assert _clifford_cell(m + k, E.down, gens) == (
                    clifford, clifford)


def _check_clifford_cell_by_search(top):
    """`_clifford_cell` against the all-points shape of the search, per
    semilattice E of order m <= top - 5, at every k >= 5 with m + k <= top:
    the classes kept and the commutative ones."""
    for m in range(1, top - 4):
        for E in meet_semilattices(m):
            _, _, gens = _canonical_labeling(m, E.down)
            for n in range(m + 5, top + 1):
                kept = [kept for shape, kept, _ in _classes(n, E, gens)
                        if shape == (1,) * m][0]
                assert _clifford_cell(n, E.down, gens) == (
                    len(kept), sum(map(_commutative_by_table, kept))), (
                    n, E.down)


def test_clifford_cell_matches_search():
    _check_clifford_cell_by_search(10)


@pytest.mark.stretch
def test_clifford_cell_stretch_n_11():
    _check_clifford_cell_by_search(11)


def test_clifford_cell_agrees_under_three_generating_sets():
    # the placements' stabilizers come from Schreier generators of the
    # generators given, so every generating set of Aut(E) must give the same
    # cell: the labelling's generators, the ones the walk passes down, and
    # a redundant set (each twice, the identity and the pairwise products),
    # on every semilattice of order 2..6 at k = 5
    checked = 0
    for n, child, cgens, _ in _walked(6):
        fresh = _canonical_labeling(n, child)[2]
        redundant = fresh + fresh + [tuple(range(n))] + [
            tuple(g[x] for x in h) for g in fresh for h in fresh]
        cells = [_clifford_cell(n + 5, child, gens)
                 for gens in (fresh, cgens, redundant)]
        assert cells[0] == cells[1] == cells[2], (child, cells)
        checked += 1
    assert checked == sum(SEMILATTICES[m] for m in range(2, 7))


def _cyclic(k):
    return tuple(tuple((a + b) % k for b in range(k)) for a in range(k))


# every group with at most four non-identity elements, as a Cayley table
# with identity 0: C1, C2, C3, C4, C2 x C2 and C5
_SMALL_GROUPS = (*map(_cyclic, range(1, 5)),
                 tuple(tuple(a ^ b for b in range(4)) for a in range(4)),
                 _cyclic(5))


def _homs(G, H):
    """Every homomorphism G -> H, as the tuple of the images of G."""
    return [f for f in itertools.product(range(len(H)), repeat=len(G))
            if all(f[G[x][y]] == H[f[x]][f[y]]
                   for x in range(len(G)) for y in range(len(G)))]


_HOMS = {(i, j): _homs(G, H) for i, G in enumerate(_SMALL_GROUPS)
         for j, H in enumerate(_SMALL_GROUPS)}
_AUTS = [[f for f in _HOMS[i, i] if len(set(f)) == len(G)]
         for i, G in enumerate(_SMALL_GROUPS)]


def _placements(m, left=4):
    """Every tuple of m indices into _SMALL_GROUPS whose groups have `left`
    non-identity elements in all."""
    if m == 0:
        return [()] if left == 0 else []
    return [(i,) + rest for i, G in enumerate(_SMALL_GROUPS)
            if len(G) - 1 <= left
            for rest in _placements(m - 1, left - len(G) + 1)]


def _four_below_by_listed_automorphisms(E):
    """Clifford classes of order |E| + 4 over E: every placement of groups
    with four non-identity elements in all, and every family of structure
    maps phi(a, b): G_a -> G_b for b < a with phi(a, b) = phi(d, b) phi(a, d)
    over all triples b < d < a, up to every automorphism of E, listed, and
    the groups' own automorphisms."""
    m = E.size
    auts = list(automorphisms(E))
    strict = [(b, a) for b, a in itertools.permutations(range(m), 2)
              if E.leq(b, a)]
    classes, seen = 0, set()
    for place in _placements(m):
        for maps in itertools.product(*(_HOMS[place[a], place[b]]
                                        for b, a in strict)):
            phi = dict(zip(strict, maps))
            if not all(phi[b, a] == tuple(phi[b, d][y] for y in phi[d, a])
                       for b, a in strict for d in range(m)
                       if (b, d) in phi and (d, a) in phi):
                continue
            # a map to or from C1 is trivial, so the others determine phi
            phi = {(b, a): f for (b, a), f in phi.items()
                   if place[b] and place[a]}
            if (place, tuple(sorted(phi.items()))) in seen:
                continue
            classes += 1
            for p in auts:
                for alpha in itertools.product(*(_AUTS[i] for i in place)):
                    # phi(a, b) moves to alpha_b phi(a, b) alpha_a^-1 at
                    # (p[b], p[a]), and G_x to p[x]
                    moved = []
                    for (b, a), f in phi.items():
                        g = [0] * len(f)
                        for x, y in enumerate(f):
                            g[alpha[a][x]] = alpha[b][y]
                        moved.append(((p[b], p[a]), tuple(g)))
                    where = sorted(zip(p, place))
                    seen.add((tuple(i for _, i in where),
                              tuple(sorted(moved))))
    return classes


def _check_four_below_by_listed_automorphisms(m):
    for E in meet_semilattices(m):
        _, _, gens = _canonical_labeling(m, E.down)
        assert _orbit_row(4, E.down, gens)[0] == (
            _four_below_by_listed_automorphisms(E))


def test_four_below_clifford_matches_listed_automorphisms():
    for m in range(1, 7):
        _check_four_below_by_listed_automorphisms(m)


@pytest.mark.stretch
def test_four_below_clifford_stretch_listed_automorphisms_m_7():
    # the semilattices of order 7 whose tasks a count of order 11 runs
    _check_four_below_by_listed_automorphisms(7)


def test_clifford_caches_list_every_map_and_generate_aut():
    # `_clifford_cell` reads the maps between catalog groups and generators
    # of their automorphism groups, cached per group object
    small = catalog(4)
    for G in small:
        for H in small:
            homs = engine._homs(G, H)
            assert len(homs) == len(set(homs))
            assert set(homs) == set(_homs(G.mul, H.mul))
            assert engine._homs(G, H) is homs
    for G in catalog(8):
        gens = engine._aut_gens(G)
        one = tuple(range(G.order))
        for a, inv in gens:
            assert tuple(a[x] for x in inv) == one
        group, todo = {one}, [one]
        while todo:
            f = todo.pop()
            for a, _ in gens:
                g = tuple(a[x] for x in f)
                if g not in group:
                    group.add(g)
                    todo.append(g)
        assert group == set(G.automorphism_images())
        assert engine._aut_gens(G) is gens


def test_commutative_from_skeleton_matches_table_scan():
    for n in range(1, 9):
        comm = 0
        for S in enumerate_semigroups(n):
            scan = _commutative_by_table(S)
            assert S.is_commutative() == scan
            comm += scan
        assert comm == TOTALS[n][1]


def _check_grown_levels(top):
    """Levels 2..top as counts mode grows them, in the parent below order
    n - 3 and in the subtree tasks from there on, against the canonical
    levels."""
    parents = [(1,)]
    for m in range(2, top + 1):
        owned = [owned_children(pdown, _canonical_labeling(m - 1, pdown)[2])
                 for pdown in parents]
        level = [child for children in owned for child in children]
        assert len(level) == SEMILATTICES[m]
        assert {_canonical_form(m, down) for down in level} == set(
            semilattice_level(m))
        for pdown, children in zip(parents, owned):
            for child in children:
                # the parent's labels, then the new maximal element: a
                # linear extension that MeetSemilattice accepts
                assert child[:-1] == pdown
                MeetSemilattice(child)
        parents = level


def test_augmentation_counts_levels():
    _check_grown_levels(8)


def _closure(n, gens):
    """The permutation group that `gens` generate, by breadth-first search."""
    group = {tuple(range(n))}
    frontier = list(group)
    for p in frontier:
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def _walked(top):
    """Walk from the one-element semilattice as counts mode does: yield
    (n, child, generators, extension ideals) for every child of order n
    <= `top`, with the generators and ideals its parent passes down."""
    stack = [((1,), [], [1])]
    while stack:
        pdown, gens, ideals = stack.pop()
        n = len(pdown) + 1
        for D, inherit in orders._owned(pdown, gens, ideals):
            child = pdown + (D | 1 << n - 1,)
            cgens, cideals = inherit()
            yield n, child, cgens, cideals
            if n < top:
                stack.append((child, cgens, cideals))


def _check_inherited(top):
    """Check the generators and extension ideals of every child in the walk
    up to order `top` against a fresh labeling and fold; the number of
    children checked."""
    checked = 0
    for n, child, cgens, cideals in _walked(top):
        assert len(set(cideals)) == len(cideals)
        assert set(cideals) == set(orders._extension_ideals(child))
        fresh = _canonical_labeling(n, child)[2]
        # every generator is an automorphism, and they generate every
        # fresh one, so the two generate one group of the same order
        for g in cgens:
            assert sorted(g) == list(range(n))
            for x in range(n):
                assert child[g[x]] == sum(
                    1 << g[y] for y in range(n) if child[x] >> y & 1)
        group = _closure(n, cgens)
        assert all(g in group for g in fresh)
        assert orders._point_orbits(n, cgens) == (
            orders._point_orbits(n, fresh))
        assert [set(o) for o in orders._orbits(
            cideals, orders._mask_images(n, cgens))] == [
            set(o) for o in orders._orbits(
                cideals, orders._mask_images(n, fresh))]
        checked += 1
    return checked


def test_inherited_generators_and_ideals_match_a_fresh_labeling():
    # every semilattice of order 1..7, in the labels the walk grows
    assert _check_inherited(8) == sum(SEMILATTICES[m] for m in range(2, 9))


def test_orbit_rows_agree_under_three_generating_sets():
    # `_orbit_row` counts orbits, so every generating set of Aut(E) gives
    # the same rows: the labelling's generators, every automorphism that
    # `automorphisms` lists, and the Schreier generators and twin
    # swaps that the walk passes down, on every semilattice of order 2..7
    checked = 0
    for n, child, cgens, _ in _walked(7):
        listed = list(automorphisms(MeetSemilattice(child)))
        fresh = _canonical_labeling(n, child)[2]
        for k in range(1, 5):
            rows = [_orbit_row(k, child, gens)
                    for gens in (fresh, listed, cgens)]
            assert rows[0] == rows[1] == rows[2], (child, k, rows)
        checked += 1
    assert checked == sum(SEMILATTICES[m] for m in range(2, 8))


@pytest.mark.stretch
def test_inherited_stretch_orders_8_and_9():
    assert _check_inherited(10) == sum(SEMILATTICES[m] for m in range(2, 11))


def test_canonical_labelings_of_a_count_of_order_9(monkeypatch):
    # 24 for the top-level steps (one per semilattice of order 1..5, each
    # labelled in its own step; the walk's steps of orders 6, 7 and 8 take
    # their generators from their parents), 39 for the canonical levels
    # 1..5 built from a cold cache (the 9 semilattices of orders 1..4
    # labelled for their children, and the 30 children put in canonical
    # form), and 32 for the children whose ownership neither the deletion
    # key nor a swap of the new element with each tied rival settles: 0, 1,
    # 4 and 27 of orders 6, 7, 8 and 9
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _canonical_labeling(*args)

    monkeypatch.setattr(orders, "_LEVELS", [((1,),)])
    monkeypatch.setattr(orders, "_canonical_labeling", counted)
    monkeypatch.setattr(engine, "_canonical_labeling", counted)
    assert enumerate_counts_only(9).totals() == TOTALS[9]
    assert len(calls) == 95
    assert calls.count(9) == 27


def _check_walk_without_swaps(top, monkeypatch):
    """The walk up to order `top` owns the same children, in the same order,
    whether the ties are settled by `_swap` or, with no swap ever found, by
    the labelings alone; the number of children."""
    swapped = [(n, child) for n, child, _, _ in _walked(top)]
    monkeypatch.setattr(orders, "_swap", lambda child, x: None)
    assert [(n, child) for n, child, _, _ in _walked(top)] == swapped
    return len(swapped)


def test_walk_owns_the_same_children_without_swaps(monkeypatch):
    assert _check_walk_without_swaps(8, monkeypatch) == sum(
        SEMILATTICES[m] for m in range(2, 9))


@pytest.mark.stretch
def test_walk_without_swaps_stretch_orders_9_and_10(monkeypatch):
    assert _check_walk_without_swaps(10, monkeypatch) == sum(
        SEMILATTICES[m] for m in range(2, 11))


@pytest.mark.stretch
def test_augmentation_stretch_levels_9_and_10():
    _check_grown_levels(10)


@pytest.mark.stretch
def test_top_rows_stretch_order_9():
    _check_top_rows(9)


@pytest.mark.stretch
def test_top_rows_stretch_order_10():
    _check_top_rows(10)


def _check_lattice_row(ledger, n):
    """A lattice of order n is a semilattice of order n - 1 with a new top:
    the lattices in cell (n, 1^n) number the semilattices in the cell
    (n - 1, 1^(n - 1)), every one of order n - 1 (C2 at any point)."""
    lattices = ledger.cell(n, (1,) * n)[5]
    assert lattices == ledger.cell(n - 1, (1,) * (n - 1))[4]
    return lattices


@pytest.mark.parametrize("n", range(2, 10))
def test_lattices_of_order_n_are_the_semilattices_below(n):
    assert _check_lattice_row(enumerate_counts_only(n), n) == (
        SEMILATTICES[n - 1])


@pytest.mark.stretch
def test_counts_stretch_order_11():
    # S(11) as published; 3.0 s at two threads on a 2-core host
    ledger = enumerate_counts_only(11, threads=2)
    assert ledger.totals() == TOTALS[11]
    _check_lattice_row(ledger, 11)


@pytest.mark.stretch
def test_counts_stretch_order_12():
    # S(12) as published; 21-25 s at two threads on a 2-core host, so CI
    # runs it on one Python version only
    ledger = enumerate_counts_only(12, threads=2)
    assert ledger.totals() == TOTALS[12]
    _check_lattice_row(ledger, 12)


@pytest.mark.parametrize("threads", [1, 2])
def test_counts_of_orders_one_and_two(threads):
    # order 1 has no level 0, and order 2 searches nothing
    for n in (1, 2):
        ledger = enumerate_counts_only(n, threads=threads)
        assert ledger.totals() == TOTALS[n]
        assert {k: tuple(v) for k, v in ledger.cells.items()} == BREAKDOWN[n]


def _read_dir(out):
    """{file name: bytes} of every file in the directory out."""
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _read_tables(out):
    """(table, #idempotents) of each `.tbl` file in out, in name order."""
    tables = []
    for path in sorted(out.glob("*.tbl")):
        head, *rows = path.read_text().splitlines()
        tables.append((tuple(tuple(map(int, row.split())) for row in rows),
                       int(head.split(" e=")[1])))
    return tables


def test_consumers_agree(tmp_path):
    # streaming and full mode at either thread count emit the same tables
    for n in range(1, 7):
        streamed = [(S.table, S.E.size) for S in enumerate_semigroups(n)]
        for threads in (1, 2):
            out = tmp_path / f"{n}-{threads}"
            cfg = EnumerationConfig(order=n, out=str(out), threads=threads)
            run_enumeration(cfg)
            assert _read_tables(out) == streamed


def test_interrupted_run_leaves_a_prefix_of_whole_files(tmp_path,
                                                         monkeypatch):
    # a task of order 4 raises partway through a full run of order 5; the
    # files written before it are the first ones of a whole run, unchanged
    whole = tmp_path / "whole"
    run_enumeration(EnumerationConfig(order=5, out=str(whole)))
    task = engine._semilattice_task

    def failing(n, collect, down):
        if len(down) == 4:
            raise RuntimeError("task failed")
        return task(n, collect, down)

    monkeypatch.setattr(engine, "_semilattice_task", failing)
    cut = tmp_path / "cut"
    with pytest.raises(RuntimeError, match="task failed"):
        run_enumeration(EnumerationConfig(order=5, out=str(cut)))
    names = sorted(p.name for p in cut.iterdir())
    assert 0 < len(names) < TOTALS[5][0]
    assert names == [f"isg_n5_{i:06d}.tbl" for i in range(len(names))]
    full = _read_dir(whole)
    assert all(full[name] == (cut / name).read_bytes() for name in names)


def test_file_names_sort_in_number_order(tmp_path):
    # S(11) = 1198651 classes, so order 11 numbers past 999999; names up to
    # order 10 keep their six digits
    table = ((0,),)
    write_cayley_files([(table, 1)] * 2, 11, str(tmp_path), first=999999)
    write_cayley_files([(table, 1)], 10, str(tmp_path), first=7)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["isg_n10_000007.tbl", "isg_n11_0999999.tbl",
                     "isg_n11_1000000.tbl"]


def test_ahead_takes_one_map_ahead():
    # a full run's next slice is submitted as the parent starts on the last
    # one's results, and not before: at most two slices are in flight
    taken = []

    def maps():
        for k in range(3):
            taken.append(k)
            yield [k, k]

    seen = [(x, len(taken)) for x in engine._ahead(maps())]
    assert seen == [(0, 2), (0, 2), (1, 3), (1, 3), (2, 3), (2, 3)]


def test_repeated_runs_identical():
    c1 = breakdown_csv(enumerate_counts_only(6), 6)
    c2 = breakdown_csv(enumerate_counts_only(6), 6)
    assert c1 == c2


def test_written_outputs_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        run_enumeration(EnumerationConfig(order=4, out=str(out)))
        n = len(list(out.glob("*.tbl")))
        assert n == TOTALS[4][0]
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cayley_file_format(tmp_path):
    run_enumeration(EnumerationConfig(order=3, out=str(tmp_path)))
    names = sorted(os.listdir(tmp_path))
    assert len(names) == TOTALS[3][0]
    assert names[0] == "isg_n3_000000.tbl"
    lines = (tmp_path / names[0]).read_text().splitlines()
    head = dict(kv.split("=") for kv in lines[0].split())
    assert head["n"] == "3"
    rows = [list(map(int, line.split())) for line in lines[1:]]
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    assert validate_inverse_semigroup(rows)


def test_semilattice_file(tmp_path):
    path = tmp_path / "sl.txt"
    count = write_semilattice_file(5, str(path))
    lines = path.read_text().splitlines()
    assert count == len(lines) == 15
    assert all(line.startswith("5:") for line in lines)
    for line in lines:
        parse_cover_line(line)


@pytest.mark.parametrize("name, write", [
    ("sl.txt", lambda out: write_semilattice_file(5, str(out / "sl.txt"))),
    ("isg_n1_000000.tbl",
     lambda out: write_cayley_files([(((0,),), 1)], 1, str(out))),
])
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, name,
                                             write):
    # the write raises after its first string: the file written before is
    # intact, and no temporary file is left behind
    (tmp_path / name).write_text("earlier\n")

    class Cut:
        def __init__(self, path, mode, encoding):
            self.fh = open(path, mode, encoding=encoding)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            for k, chunk in enumerate(chunks):
                if k == 1:
                    raise OSError("disk full")
                self.fh.write(chunk)

    monkeypatch.setattr(engine, "open", Cut, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_text() == "earlier\n"


def test_progress_reports_rate_and_eta(capsys, tmp_path):
    enumerate_counts_only(6, progress=True)
    err = capsys.readouterr().err
    # captured stderr is not a terminal: one plain line per level
    assert "\r" not in err
    lines = [line.split("\r")[-1] for line in err.rstrip("\n").split("\n")]
    # one line per order of the tasks: row 1 is searched, and the one
    # semilattice of order r = 2 roots the subtree task that fills rows 2-6
    assert [line.split(":")[0] for line in lines] == ["m=1", "m=2"]
    assert lines[1].startswith("m=2: 1/1 semilattices, ")
    for line in lines:
        rate, eta = line.split(", ")[1:]
        assert float(rate.removesuffix("/s")) > 0
        assert eta == "ETA 0s"
    # full mode has tasks of every order up to n, row n included
    run_enumeration(EnumerationConfig(order=4, out=str(tmp_path),
                                      progress=True))
    lines = capsys.readouterr().err.rstrip("\n").split("\n")
    assert [line.split(":")[0] for line in lines] == ["m=1", "m=2", "m=3",
                                                      "m=4"]
    assert lines[3].startswith("m=4: 5/5 semilattices, ")


def test_progress_rewrites_a_terminal_line(capsys, monkeypatch):
    # on a terminal every update starts with a carriage return, over the
    # last, and each order ends its line
    monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
    enumerate_counts_only(6, progress=True)
    err = capsys.readouterr().err
    assert err.count("\n") == 2
    lines = err.rstrip("\n").split("\n")
    assert all(line.startswith("\r") for line in lines)
    assert [line.split("\r")[-1].split(":")[0] for line in lines] == ["m=1",
                                                                     "m=2"]
    # at n = 8 the five semilattices of order 4 rewrite one line five times
    enumerate_counts_only(8, progress=True)
    last = capsys.readouterr().err.rstrip("\n").split("\n")[-1]
    assert [update.split(" semilattices")[0]
            for update in last.split("\r")[1:]] == [
        f"m=4: {done}/5" for done in range(1, 6)]


def test_progress_is_the_same_at_two_threads(capsys):
    # one final line per level, whatever the worker count; only the rate,
    # a timing, may differ
    finals = []
    for threads in (1, 2):
        enumerate_counts_only(8, threads=threads, progress=True)
        lines = capsys.readouterr().err.rstrip("\n").split("\n")
        finals.append([(line.split(", ")[0], line.split(", ")[2])
                       for line in lines])
    assert finals[0] == finals[1]
    assert finals[0][-1] == ("m=4: 5/5 semilattices", "ETA 0s")


def test_stats_diagnostic_present():
    from isgenum.orders import semilattice_count

    ledger = enumerate_counts_only(5)
    # the top semilattice row, the three rows below it and row 1's one
    # all-points cell (C5) are read off Aut(E)-orbits, so nothing of order
    # 5 is generated by search
    row4 = ledger.cell(4, (1,) * 4)[0]
    row3 = ledger.cell(3, (1,) * 3)[0] + ledger.cell(3, (2, 1))[0]
    row2 = ledger.cell(2, (1,) * 2)[0] + ledger.cell(2, (2,))[0]
    row1 = ledger.cell(1, (1,))[0]
    assert (row1, row2, row3, row4) == (1, 6, 14, 16)
    assert (TOTALS[5][0] - semilattice_count(5)
            == row4 + row3 + row2 + row1)
    assert (ledger.generated, ledger.immediate, ledger.iso_tests) == (0, 0, 0)
    # orders 6 and 7 search nothing either: the all-points cells of rows 1
    # and 2 come from `_clifford_cell`, and row 2 of order 7 admits no
    # 2-block; order 8 searches the Brandt cell of row 3
    for n in (6, 7):
        ledger = enumerate_counts_only(n)
        assert (ledger.generated, ledger.immediate, ledger.iso_tests) == (
            0, 0, 0)
    ledger = enumerate_counts_only(8)
    assert 0 < ledger.immediate <= ledger.generated
    assert ledger.iso_tests >= 0


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(order=0)
    with pytest.raises(ValueError):
        EnumerationConfig(order=3, threads=0)


def test_engine_binds_every_traced_layer():
    # bench/tracer.py wraps these names of the engine and the CLI; loading
    # the module does not install its wrappers
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from isgenum import cli

    for name in (*tracer._ENGINE_CALLS, *tracer._ENGINE_GENERATORS,
                 "ProcessPoolExecutor"):
        assert hasattr(engine, name), name
    for name in ("run_enumeration", "write_cayley_files"):
        assert hasattr(cli, name), name
