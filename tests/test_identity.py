"""Frozen outputs: semilattice order and labels, Cayley tables and ledger
counters must stay byte-identical across changes to the search kernels."""

import hashlib

from isgenum.engine import (
    EnumerationConfig,
    enumerate_counts_only,
    enumerate_fixed,
    run_enumeration,
)
from isgenum.gposets import _local_possibilities
from isgenum.groups import catalog
from isgenum.orders import format_cover_line, meet_semilattices
from isgenum.shapes import (
    admissible_compositions,
    d_partitions,
    group_maps,
    partitions,
)

COVER_LINES_SHA256 = (
    "c48b5c551c3e363b4ec70a9b7330be036c01c0646f329cac613234bb57d5c2a8"
)
# cover lines of orders 9 and 10, one digest per order
COVER_LINES_9_10_SHA256 = {
    9: "b4d86785941dff58eb681c218988c32f09b53ce7bce17699012582662f3e58dc",
    10: "6fd0e81dedc4a866375b71d4564af461243658b196711dad4915e2b01cdc1aff",
}
# names and tables of the 28 catalog groups, which fix element numbering
GROUP_CATALOG_SHA256 = (
    "19bbd9d6ee048352605dcafc3d36fe3696fe058d2f803039ca97e15356cb5f79"
)
# generators and automorphism order of the catalog groups
GROUP_GENERATORS_AUTS_SHA256 = (
    "497980d75775142243294cc4044e2cdccda20ad7fa5d7bd694804ac172c9dfd0"
)
# cross-block possibilities, in order, for (G, H, |Y|, below) keys that cover
# several upper rows, slot counts m >= 2 and a non-abelian G
POSSIBILITY_KEYS = (
    ("C1", "C1", 1, ((0,),)),
    ("C2", "C2", 1, ((0,), (0,))),
    ("C3", "C2", 2, ((0, 1), (0, 1))),
    ("C2", "C3", 2, ((0, 1),)),
    ("C2xC2", "C2", 3, ((0, 1, 2),)),
    ("S3", "C2", 3, ((0, 1, 2),)),
    ("C1", "C1", 3, ((0, 1, 2),) * 3),
    ("C4", "C2", 2, ((0, 1), (0, 1))),
)
POSSIBILITIES_SHA256 = (
    "25774cae0aba10df97b265b54b1be18e17aa792d4862f80c4a3845c9e3dd26ed"
)
TABLES_N7_SHA256 = (
    "0e0f6923a4af1107f94ab30a89998c5357dfd91544e019b9117909370b505232"
)

# enumerate_fixed's tables, in order, over every skeleton of order 8 whose
# semilattice has order 6
FIXED_TABLES_E6_N8_SHA256 = (
    "69f9a53b7aac2358beb60935e0b59bca53291fdaaf0acc9e6a8357e3b6865d30"
)


def test_cover_lines_up_to_order_8():
    text = "".join(
        format_cover_line(E) + "\n"
        for m in range(1, 9) for E in meet_semilattices(m)
    )
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == COVER_LINES_SHA256


def test_cover_lines_of_orders_9_and_10():
    for m, expected in COVER_LINES_9_10_SHA256.items():
        text = "".join(format_cover_line(E) + "\n" for E in meet_semilattices(m))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == expected


def test_group_catalog():
    groups = catalog(15)
    assert len(groups) == 28
    text = repr([(G.name, G.mul) for G in groups])
    assert hashlib.sha256(text.encode()).hexdigest() == GROUP_CATALOG_SHA256


def test_group_generators_and_automorphisms():
    text = repr([
        (G.name, G.generating_set(), G.automorphism_images())
        for G in catalog(15)
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == GROUP_GENERATORS_AUTS_SHA256


def test_cross_block_possibilities():
    by = {G.name: G for G in catalog(15)}
    got = [
        _local_possibilities(by[G], by[H], y, below)
        for G, H, y, below in POSSIBILITY_KEYS
    ]
    assert [len(p) for p in got] == [1, 4, 8, 4, 208, 68, 36, 64]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == POSSIBILITIES_SHA256


def test_tables_of_order_7(tmp_path):
    run_enumeration(EnumerationConfig(order=7, out=str(tmp_path)))
    assert len(list(tmp_path.glob("*.tbl"))) == 911
    digest = hashlib.sha256()
    for path in sorted(tmp_path.glob("*.tbl")):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == TABLES_N7_SHA256


def test_ledger_counters():
    for n, expected in ((7, (0, 0, 0)), (8, (8, 5, 3)), (9, (71, 50, 21))):
        ledger = enumerate_counts_only(n)
        assert (ledger.generated, ledger.immediate, ledger.iso_tests) == expected


def test_fixed_tables_over_order_6_semilattices():
    cat = catalog(8)
    digest = hashlib.sha256()
    skeletons = tables = 0
    for E in meet_semilattices(6):
        for shape in partitions(6):
            comps = admissible_compositions(8, shape)
            for P in d_partitions(E, shape):
                for C in comps:
                    for f in group_maps(P, C, cat):
                        skeletons += 1
                        for S in enumerate_fixed(E, P, f):
                            tables += 1
                            digest.update(repr(S.table).encode())
    assert (skeletons, tables) == (1244, 1553)
    assert digest.hexdigest() == FIXED_TABLES_E6_N8_SHA256
