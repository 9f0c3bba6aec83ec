import itertools
import os

import pytest

from isgenum import gposets
from isgenum.engine import (
    CountLedger,
    EnumerationConfig,
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
from isgenum.iso import brute_force_isomorphic
from isgenum.orders import meet_semilattices, parse_cover_line
from isgenum.shapes import admissible_compositions, d_partitions, group_maps, partitions

from expected_counts import BREAKDOWN, TOTALS

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
                            for order in g_posets(basis):
                                out.append(esn(basis, order))
    return out


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
# ledger behavior


def test_ledger_merge_and_totals():
    a = CountLedger()
    a.add_cell(2, (1, 1), 3, 2, True)
    b = CountLedger()
    b.add_cell(2, (1, 1), 1, 1, False)
    b.add_cell(3, (2, 1), 2, 0, False)
    a.merge(b)
    assert a.cell(2, (1, 1)) == (4, 3, 3, 2, 2, 1)
    assert a.cell(3, (2, 1)) == (2, 0, 0, 0, 1, 0)
    assert a.totals() == (6, 3, 3, 2)


def test_ledger_ignores_empty_contribution():
    a = CountLedger()
    a.add_cell(2, (1, 1), 0, 0, True)
    assert a.cells == {}


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


def test_fixed_caches_do_not_grow_with_fresh_groups(groups_by_name):
    # the search caches are keyed by group tables, so new Group objects
    # with a table already seen add no entries
    caches = (gposets._BLOCK_CELLS, gposets._WREATH_HOM_CACHE,
              gposets._POSS_CACHE)
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


def test_thread_count_does_not_change_tables():
    r1 = run_enumeration(EnumerationConfig(order=5, mode="full", threads=1))
    r2 = run_enumeration(EnumerationConfig(order=5, mode="full", threads=2))
    assert r1.tables == r2.tables


def test_thread_count_does_not_change_counters():
    # CountLedger.__eq__ compares cells only; the counters are checked here
    for threads in (1, 2):
        ledger = enumerate_counts_only(7, threads=threads)
        assert (ledger.generated, ledger.immediate, ledger.iso_tests) == (
            921, 650, 285
        )


def test_consumers_agree():
    # streaming and full mode at either thread count emit the same tables
    for n in range(1, 7):
        streamed = [(S.table, S.E.size) for S in enumerate_semigroups(n)]
        for threads in (1, 2):
            cfg = EnumerationConfig(order=n, mode="full", threads=threads)
            assert run_enumeration(cfg).tables == streamed


def test_repeated_runs_identical():
    c1 = breakdown_csv(enumerate_counts_only(6), 6)
    c2 = breakdown_csv(enumerate_counts_only(6), 6)
    assert c1 == c2


def test_written_outputs_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        result = run_enumeration(EnumerationConfig(order=4, mode="full"))
        n = write_cayley_files(result, str(out))
        assert n == TOTALS[4][0]
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cayley_file_format(tmp_path):
    result = run_enumeration(EnumerationConfig(order=3, mode="full"))
    write_cayley_files(result, str(tmp_path))
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


def test_progress_reports_rate_and_eta(capsys):
    enumerate_counts_only(5, progress=True)
    err = capsys.readouterr().err
    # captured stderr is not a terminal: one plain line per level
    assert "\r" not in err
    lines = [line.split("\r")[-1] for line in err.rstrip("\n").split("\n")]
    # one line per level searched; counts mode fills level 5 directly
    assert [line.split(":")[0] for line in lines] == ["m=1", "m=2", "m=3",
                                                      "m=4"]
    assert lines[3].startswith("m=4: 5/5 semilattices, ")
    for line in lines:
        rate, eta = line.split(", ")[1:]
        assert float(rate.removesuffix("/s")) > 0
        assert eta == "ETA 0s"


def test_counts_mode_emits_no_tables():
    result = run_enumeration(EnumerationConfig(order=4, mode="counts"))
    assert result.tables == []


def test_stats_diagnostic_present():
    from isgenum.orders import semilattice_count

    ledger = enumerate_counts_only(5)
    # the top semilattice row is filled directly, not generated by search
    assert ledger.generated >= TOTALS[5][0] - semilattice_count(5)
    assert 0 < ledger.immediate <= ledger.generated
    assert ledger.iso_tests >= 0


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(order=0)
    with pytest.raises(ValueError):
        EnumerationConfig(order=3, threads=0)
    with pytest.raises(ValueError):
        EnumerationConfig(order=3, mode="bogus")
