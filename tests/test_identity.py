"""Frozen outputs: semilattice order and labels, Cayley tables and ledger
counters must stay byte-identical across changes to the search kernels."""

import hashlib

from isgenum.engine import (
    EnumerationConfig,
    enumerate_counts_only,
    run_enumeration,
    write_cayley_files,
)
from isgenum.groups import catalog
from isgenum.orders import format_cover_line, meet_semilattices

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
TABLES_N7_SHA256 = (
    "0e0f6923a4af1107f94ab30a89998c5357dfd91544e019b9117909370b505232"
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


def test_tables_of_order_7(tmp_path):
    result = run_enumeration(EnumerationConfig(order=7, mode="full"))
    assert write_cayley_files(result, tmp_path) == 911
    digest = hashlib.sha256()
    for path in sorted(tmp_path.glob("*.tbl")):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == TABLES_N7_SHA256


def test_ledger_counters():
    for n, expected in ((7, (447, 417, 31)), (8, (2388, 2160, 260))):
        ledger = enumerate_counts_only(n)
        assert (ledger.generated, ledger.immediate, ledger.iso_tests) == expected
