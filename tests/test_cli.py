import os
import subprocess
import sys
import time
from pathlib import Path

from isgenum import cli, engine
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


def test_count_prints_generated_line_with_nothing_searched(tmp_path, capsys):
    # counts mode reads rows n - 1 and n off level n - 1, so orders 1 and 2
    # search no candidate, while enumerate still searches row 1 of order 2
    zero = "generated=0 accepted_immediately=0.0% iso_tests_per_generated=0.000"
    for n in (1, 2):
        assert main(["count", "--order", str(n)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"n={n} inverse_semigroups={TOTALS[n][0]} ")
        assert out[1] == zero
    assert main(["enumerate", "--order", "2", "--out", str(tmp_path)]) == 0
    assert "generated=1 accepted_immediately=100.0% " in capsys.readouterr().out


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


def test_invalid_fixed_input_leaves_no_out_dir(tmp_path, capsys):
    # {0, 1} is no D-class of the vee: 0 < 1 inside one block
    sl = tmp_path / "s.txt"
    sl.write_text("3:0<1,0<2\n")
    out = tmp_path / "D"
    assert main(["fixed", "--semilattice", f"{sl}:1", "--dpartition", "0,1|2",
                 "--groups", "C1,C1", "--out", str(out)]) == 2
    assert "D-partition condition" in capsys.readouterr().err
    assert not out.exists()


def test_empty_dpartition_block_is_named(tmp_path, capsys):
    # an empty block is reported as one, not as a bad element ''
    sl = tmp_path / "s.txt"
    sl.write_text("3:0<1,0<2\n")
    out = tmp_path / "D"
    for blocks in ("0,1|", "0,1||2", "|0,1,2"):
        assert main(["fixed", "--semilattice", f"{sl}:1", "--dpartition",
                     blocks, "--groups", "C1,C1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "empty block in --dpartition" in err, blocks
        assert "bad element" not in err
        assert not out.exists()


def test_non_decimal_digits_are_named(tmp_path, capsys):
    # '²' is a digit to str.isdigit but no number to int(): the flag that
    # holds it is named, not int()'s own message
    sl = tmp_path / "s.txt"
    sl.write_text("3:0<1,0<2\n")
    out = tmp_path / "N"
    for semilattice, blocks, message in (
            (f"{sl}:1", "0|\u00b2", "bad element '\u00b2' in --dpartition"),
            (f"{sl}:\u00b2", "0|1|2", "--semilattice must be FILE:LINE")):
        assert main(["fixed", "--semilattice", semilattice, "--dpartition",
                     blocks, "--groups", "C1,C1,C1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err, err
        assert "invalid literal" not in err
        assert not out.exists()


def test_empty_group_name_is_named(tmp_path, capsys):
    # an empty name is reported as one, not as an unknown name ''
    sl = tmp_path / "s.txt"
    sl.write_text("3:0<1,0<2\n")
    out = tmp_path / "G"
    for groups in ("C2,,C2", "C2,C2,", ",C2,C2", "C2, ,C2"):
        assert main(["fixed", "--semilattice", f"{sl}:1", "--dpartition",
                     "0|1|2", "--groups", groups, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "empty group name in --groups" in err, groups
        assert "unknown group name" not in err
        assert not out.exists()


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


def test_unusable_output_path_fails_fast(tmp_path, capsys, monkeypatch):
    # rejected before the search, which would otherwise run to completion
    def no_search(*args):
        raise AssertionError("searched before checking the output path")

    monkeypatch.setattr(cli, "run_enumeration", no_search)
    monkeypatch.setattr(cli, "enumerate_fixed", no_search)
    monkeypatch.setattr(cli, "write_semilattice_file", no_search)
    blocker = tmp_path / "file"
    blocker.write_text("")
    sl = tmp_path / "sl.txt"
    sl.write_text("1:\n")
    for argv in (
            ["count", "--order", "8",
             "--breakdown", str(tmp_path / "missing" / "x.csv")],
            ["count", "--order", "8", "--breakdown", str(tmp_path)],
            ["count", "--order", "8", "--breakdown", ""],
            ["enumerate", "--order", "8", "--out", str(blocker / "out")],
            ["fixed", "--semilattice", f"{sl}:1", "--dpartition", "0",
             "--groups", "C2", "--out", str(blocker / "out")],
            ["semilattices", "--order", "10",
             "--out", str(tmp_path / "missing" / "x.txt")],
            ["semilattices", "--order", "10", "--out", ""],
            ["semilattices", "--order", "10", "--out", str(tmp_path)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1


def test_failed_count_keeps_breakdown_file(tmp_path, capsys, monkeypatch):
    def failing_run(config):
        raise ValueError("run failed")

    monkeypatch.setattr(cli, "run_enumeration", failing_run)
    path = tmp_path / "b.csv"
    path.write_text("old\n")
    assert main(["count", "--order", "5", "--breakdown", str(path)]) == 2
    assert "run failed" in capsys.readouterr().err
    assert path.read_text() == "old\n"


def test_thread_count_beyond_host_fails_fast(tmp_path, capsys, monkeypatch):
    # rejected with the config, before the pool could fork a single worker
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started for an unbounded --threads")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    limit = max(2, os.cpu_count() or 1)
    for argv in (["count", "--order", "5", "--threads", "100000"],
                 ["count", "--order", "5", "--threads", str(limit + 1)],
                 ["enumerate", "--order", "5", "--threads", "100000",
                  "--out", str(tmp_path / "x")]):
        assert main(argv) == 2
        assert f"thread count is limited to {limit}" in capsys.readouterr().err


def test_semilattices_bad_order_keeps_out_file(tmp_path, capsys):
    path = tmp_path / "keep.txt"
    path.write_text("3:0<1,0<2\n")
    assert main(["semilattices", "--order", "0", "--out", str(path)]) == 2
    assert "order must be positive" in capsys.readouterr().err
    assert path.read_text() == "3:0<1,0<2\n"


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


def test_io_error_names_the_path_once(tmp_path, capsys):
    absent = tmp_path / "absent.txt"
    for argv, err in (
            (["count", "--order", "6", "--breakdown", str(tmp_path)],
             f"[Errno 21] is a directory: '{tmp_path}'"),
            (["count", "--order", "6",
              "--breakdown", str(tmp_path / "missing" / "x.csv")],
             f"[Errno 2] no such directory: '{tmp_path / 'missing'}'"),
            (["fixed", "--semilattice", f"{absent}:1", "--dpartition", "0",
              "--groups", "C2", "--out", str(tmp_path / "out")],
             f"[Errno 2] No such file or directory: '{absent}'")):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"i/o error: {err}\n"


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


def test_one_thread_count_imports_no_process_pool():
    # in a fresh interpreter, since pytest may have imported them itself
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import sys\n"
        "from isgenum.cli import main\n"
        "assert main(['count', '--order', '6', '--threads', '1']) == 0\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'}"
        " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("n=6 inverse_semigroups=208 ")
    assert lines[-1] == "[]"
