"""One measured process of the enumeration benchmark.

bench/run.py starts this script in a fresh interpreter, with PYTHONPATH set
to the checkout's src/, and reads the JSON report it writes.

    child.py cli REPORT DUMP_DIR -- ARG...
        Run `isg ARG...` in this process with the per-layer tracer installed.
    child.py fixed REPORT --seed N --seconds S [--setup-only] [--trace DIR]
        Load the seeded skeleton sample, then run enumerate_fixed over it in
        whole passes until S seconds have passed, with the per-layer tracer
        installed if --trace is given, and check every table of the first
        pass.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter

from isgenum.engine import enumerate_fixed
from isgenum.esn import (
    d_restriction_from_table,
    idempotents_of_table,
    maximal_subgroup_of_table,
    validate_inverse_semigroup,
)
from isgenum.groups import MAX_CATALOG_ORDER, catalog
from isgenum.orders import parse_cover_line

DATA = Path(__file__).resolve().parent / "data"
FIXED_ORDER = 10
SAMPLE_SIZE = 4000  # of the 6000 frozen skeletons


def run_cli(dump_dir, argv):
    import isgenum.cli as cli
    import tracer

    t = tracer.Tracer(dump_dir)
    captured = tracer.install(t)

    t0 = perf_counter()
    code = cli.main(argv)
    wall = perf_counter() - t0
    sys.stdout.flush()
    parent_span_s = sum(t.state()["seconds"].values())
    t.merge_worker_dumps()
    ledger = captured["result"].ledger
    return {
        "exit": code, "wall_s": wall, "parent_span_s": parent_span_s,
        "trace": t.state(),
        "ledger": {"generated": ledger.generated,
                   "iso_tests": ledger.iso_tests},
    }


def load_sample(seed):
    """The seeded sample of frozen skeletons, as (E, P, f, classes)."""
    covers = (DATA / "fixed_n10_semilattices.txt").read_text().splitlines()
    rows = (DATA / "fixed_n10_skeletons.tsv").read_text().splitlines()
    by_name = {G.name: G for G in catalog(MAX_CATALOG_ORDER)}
    semilattices = {}
    sample = []
    for row in random.Random(seed).sample(rows, SAMPLE_SIZE):
        index, blocks, names, classes = row.split("\t")
        E = semilattices.get(index)
        if E is None:
            E = semilattices[index] = parse_cover_line(covers[int(index)])
        P = tuple(tuple(map(int, b.split(","))) for b in blocks.split("|"))
        f = tuple(by_name[name] for name in names.split(","))
        sample.append((E, P, f, int(classes)))
    return sample


def fixed_pass(sample, wrong, tables=None):
    """One pass over the sample; returns (start, end, classes emitted)."""
    classes = 0
    t0 = perf_counter()
    for i, (E, P, f, expected) in enumerate(sample):
        got = enumerate_fixed(E, P, f)
        classes += len(got)
        if len(got) != expected:
            wrong.add(i)
        if tables is not None:
            tables.append([S.table for S in got])
    return t0, perf_counter(), classes


def tables_ok(E, P, f, tables):
    """Table-level oracles: each table is an inverse semigroup of the
    stated order with idempotents E, D-restriction P and subgroups f."""
    blocks = {tuple(sorted(X)) for X in P}
    for table in tables:
        if len(table) != FIXED_ORDER or not validate_inverse_semigroup(table):
            return False
        if idempotents_of_table(table) != list(range(E.size)):
            return False
        if set(d_restriction_from_table(table)) != blocks:
            return False
        for X, G in zip(P, f):
            if len(maximal_subgroup_of_table(table, X[0])) != G.order:
                return False
    return True


def run_fixed(seed, seconds, trace_dir):
    sample = load_sample(seed)
    out = {}
    if trace_dir is not None:
        import tracer

        t = tracer.Tracer(trace_dir)
        tracer.install(t)
    wrong, first_tables = set(), []
    passes, classes = [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        t0, t1, n = fixed_pass(sample, wrong, None if passes else first_tables)
        passes.append((t0, t1))
        classes.append(n)
    if trace_dir is not None:
        out["trace"] = t.state()
        out["parent_span_s"] = sum(out["trace"]["seconds"].values())
    for i, (E, P, f, _) in enumerate(sample):
        if not tables_ok(E, P, f, first_tables[i]):
            wrong.add(i)
    out.update(exit=0, passes=passes, classes=classes,
               attempted=len(sample), failed=len(wrong))
    return out


def main(argv):
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("report")
    p.add_argument("dump_dir")
    p.add_argument("args", nargs=argparse.REMAINDER)
    p = sub.add_parser("fixed")
    p.add_argument("report")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", metavar="DIR", default=None)
    args = parser.parse_args(argv)

    if args.mode == "cli":
        argv = args.args[1:] if args.args[:1] == ["--"] else args.args
        report = run_cli(args.dump_dir, argv)
    elif args.setup_only:
        load_sample(args.seed)
        report = {"exit": 0}
    else:
        report = run_fixed(args.seed, args.seconds, args.trace)
    with open(args.report, "w", encoding="ascii") as fh:
        json.dump(report, fh)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
