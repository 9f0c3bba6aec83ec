import os
import time

from isgenum import engine
from isgenum.cli import main

from expected_counts import TOTALS


def test_count_basic(capsys):
    assert main(["count", "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert "n=5 inverse_semigroups=52 commutative=51" in out
    assert "monoids=27 commutative_monoids=27" in out
    assert "accepted_immediately=" in out


def test_count_with_breakdown(tmp_path, capsys):
    path = tmp_path / "b.csv"
    assert main(["count", "--order", "4", "--breakdown", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("n,idempotents,shape,")
    assert "4,4,1.1.1.1,5,5,2,2,5,2" in lines


def test_count_threads(capsys):
    assert main(["count", "--order", "5", "--threads", "2"]) == 0
    assert "inverse_semigroups=52" in capsys.readouterr().out


def test_enumerate_writes_everything(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["enumerate", "--order", "4", "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    tables = [f for f in files if f.endswith(".tbl")]
    assert len(tables) == TOTALS[4][0]
    assert "breakdown.csv" in files
    assert f"files={TOTALS[4][0]}" in capsys.readouterr().out


def test_semilattices_command(tmp_path, capsys):
    path = tmp_path / "sl.txt"
    assert main(["semilattices", "--order", "6", "--out", str(path)]) == 0
    assert len(path.read_text().splitlines()) == 53
    assert "semilattices=53" in capsys.readouterr().out


def test_fixed_command(tmp_path, capsys):
    sl = tmp_path / "sl3.txt"
    assert main(["semilattices", "--order", "3", "--out", str(sl)]) == 0
    lines = sl.read_text().splitlines()
    vee_line = 1 + lines.index("3:0<1,0<2")
    out = tmp_path / "fx"
    code = main([
        "fixed",
        "--semilattice", f"{sl}:{vee_line}",
        "--dpartition", "e1,e2|0",
        "--groups", "C1,C2",
        "--out", str(out),
    ])
    assert code == 0
    assert "order=6" in capsys.readouterr().out
    assert len([f for f in os.listdir(out) if f.endswith(".tbl")]) == 2


def test_fixed_plain_integer_blocks(tmp_path):
    sl = tmp_path / "sl.txt"
    main(["semilattices", "--order", "3", "--out", str(sl)])
    out = tmp_path / "fx"
    code = main([
        "fixed",
        "--semilattice", f"{sl}:1",
        "--dpartition", "1,2|0",
        "--groups", "C1,C1",
        "--out", str(out),
    ])
    assert code == 0


def test_exit_code_bad_arguments():
    assert main(["count"]) == 2
    assert main(["bogus"]) == 2
    assert main([]) == 2


def test_exit_code_invalid_input(tmp_path, capsys):
    assert main(["count", "--order", "0"]) == 2
    sl = tmp_path / "sl.txt"
    main(["semilattices", "--order", "3", "--out", str(sl)])
    code = main([
        "fixed",
        "--semilattice", f"{sl}:2",
        "--dpartition", "1,2|0",
        "--groups", "C1,C1",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2  # chain admits no 2,1 D-partition
    code = main([
        "fixed",
        "--semilattice", f"{sl}:1",
        "--dpartition", "1,2|0",
        "--groups", "Q99",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_order_beyond_catalog_fails_fast(tmp_path, capsys, monkeypatch):
    # rejected with the config, before any semilattice level is built
    def no_levels(*args):
        raise AssertionError("semilattice levels built beyond the catalog")

    monkeypatch.setattr(engine, "semilattice_level", no_levels)
    for argv in (["count", "--order", "16"],
                 ["enumerate", "--order", "16", "--out", str(tmp_path / "x")]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "limited to order 15" in capsys.readouterr().err


def test_exit_code_io_failure(tmp_path):
    missing = tmp_path / "nope" / "deep" / "out.txt"
    assert main(["semilattices", "--order", "3", "--out", str(missing)]) == 3
    assert main([
        "fixed",
        "--semilattice", str(tmp_path / "absent.txt") + ":1",
        "--dpartition", "0",
        "--groups", "C1",
        "--out", str(tmp_path),
    ]) == 3


def test_fixed_groups_follow_their_blocks(tmp_path, capsys):
    # V-shaped semilattice: {0} gets C2 and {1,2} gets C1, so the order is
    # 1*1*2 + 2*2*1 = 6 whichever order the blocks are listed in
    sl = tmp_path / "sl3.txt"
    assert main(["semilattices", "--order", "3", "--out", str(sl)]) == 0
    assert sl.read_text().splitlines()[0] == "3:0<1,0<2"
    capsys.readouterr()

    tables = []
    for blocks, names in (("0|1,2", "C2,C1"), ("1,2|0", "C1,C2")):
        out = tmp_path / blocks.replace("|", "_").replace(",", "")
        code = main([
            "fixed",
            "--semilattice", f"{sl}:1",
            "--dpartition", blocks,
            "--groups", names,
            "--out", str(out),
        ])
        assert code == 0
        assert "order=6" in capsys.readouterr().out
        tables.append([
            (out / name).read_text() for name in sorted(os.listdir(out))
        ])
    assert tables[0] and tables[0] == tables[1]
