"""Command-line interface.

Subcommands:
  isg count        --order N [--threads K] [--breakdown PATH.csv] [--progress]
  isg enumerate    --order N --out DIR [--threads K]
  isg fixed        --semilattice FILE:LINE --dpartition "1,2|0" --groups "C1,C2" --out DIR
  isg semilattices --order M --out FILE

Exit codes: 0 success, 2 invalid input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .engine import (
    EnumerationConfig,
    _write_whole,
    breakdown_csv,
    enumerate_fixed,
    run_enumeration,
    write_cayley_files,
    write_semilattice_file,
)
from .groups import MAX_CATALOG_ORDER, catalog
from .orders import parse_cover_line
from .shapes import block_order, is_d_partition

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="isg",
        description="Enumerate finite inverse semigroups up to isomorphism.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count inverse semigroups of order N")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--breakdown", metavar="PATH.csv", default=None)
    p.add_argument("--progress", action="store_true")

    p = sub.add_parser("enumerate", help="write one Cayley table per class")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser(
        "fixed",
        help="enumerate with fixed idempotents, D-restriction and subgroups",
    )
    p.add_argument("--semilattice", required=True, metavar="FILE:LINE")
    p.add_argument("--dpartition", required=True, metavar="BLOCKS")
    p.add_argument("--groups", required=True, metavar="NAMES")
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("semilattices", help="write semilattices of order M")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", required=True, metavar="FILE")

    return parser


def _print_summary(ledger, n):
    t = ledger.totals()
    print(
        f"n={n} inverse_semigroups={t[0]} commutative={t[1]} "
        f"monoids={t[2]} commutative_monoids={t[3]}"
    )
    searched = max(ledger.generated, 1)  # reads 0 when nothing was searched
    pct = 100.0 * ledger.immediate / searched
    rate = ledger.iso_tests / searched
    print(
        f"generated={ledger.generated} accepted_immediately={pct:.1f}% "
        f"iso_tests_per_generated={rate:.3f}"
    )


def _check_file_folder(path):
    """Fail before a run whose output file could not be created; the file
    itself is left untouched."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, "no such directory", folder)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "is a directory", path)


def _cmd_count(args) -> int:
    cfg = EnumerationConfig(order=args.order, threads=args.threads,
                            progress=args.progress)
    if args.breakdown is not None:
        _check_file_folder(args.breakdown)
    result = run_enumeration(cfg)
    _print_summary(result.ledger, args.order)
    if args.breakdown is not None:
        _write_whole(args.breakdown,
                     [breakdown_csv(result.ledger, args.order)])
        print(f"breakdown={args.breakdown}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    cfg = EnumerationConfig(order=args.order, out=args.out,
                            threads=args.threads)
    result = run_enumeration(cfg)
    _write_whole(os.path.join(args.out, "breakdown.csv"),
                 [breakdown_csv(result.ledger, args.order)])
    _print_summary(result.ledger, args.order)
    print(f"files={result.ledger.totals()[0]} out={args.out}")
    return EXIT_OK


def _parse_dpartition(text: str, size: int):
    """Blocks of --dpartition in the order given, each sorted."""
    blocks = []
    for chunk in text.split("|"):
        if not chunk.strip():
            raise ValueError("empty block in --dpartition")
        members = []
        for tok in chunk.split(","):
            tok = tok.strip()
            if tok.startswith("e"):
                tok = tok[1:]
            if not tok.isdecimal():  # exactly what int() reads
                raise ValueError(f"bad element {tok!r} in --dpartition")
            members.append(int(tok))
        blocks.append(tuple(sorted(members)))
    flat = sorted(x for b in blocks for x in b)
    if flat != list(range(size)):
        raise ValueError("--dpartition must partition the semilattice elements")
    return tuple(blocks)


def _cmd_fixed(args) -> int:
    path, sep, lineno_txt = args.semilattice.rpartition(":")
    if not sep or not lineno_txt.isdecimal():
        raise ValueError("--semilattice must be FILE:LINE with a 1-based line")
    lineno = int(lineno_txt)
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not (1 <= lineno <= len(lines)):
        raise ValueError(f"{path} has no line {lineno}")
    E = parse_cover_line(lines[lineno - 1])

    P = _parse_dpartition(args.dpartition, E.size)
    by_name = {G.name: G for G in catalog(MAX_CATALOG_ORDER)}
    names = [t.strip() for t in args.groups.split(",")]
    if "" in names:
        raise ValueError("empty group name in --groups")
    missing = [t for t in names if t not in by_name]
    if missing:
        raise ValueError(f"unknown group name(s): {', '.join(missing)}")
    if len(names) != len(P):
        raise ValueError("--groups must name one group per block")
    # the i-th group belongs to the i-th block; the basis sorts the blocks
    pairs = sorted(zip(P, names), key=lambda bg: block_order(bg[0]))
    P = tuple(X for X, _ in pairs)
    f = tuple(by_name[t] for _, t in pairs)
    # invalid input leaves no --out directory behind, and an unusable one
    # fails before the search
    if not is_d_partition(E, P):
        raise ValueError("--dpartition does not satisfy the D-partition "
                         "condition")
    os.makedirs(args.out, exist_ok=True)
    accepted = enumerate_fixed(E, P, f)
    n = sum(len(X) * len(X) * G.order for X, G in zip(P, f))
    count = write_cayley_files([(S.table, E.size) for S in accepted], n,
                               args.out)
    print(f"order={n} idempotents={E.size} classes={count} out={args.out}")
    return EXIT_OK


def _cmd_semilattices(args) -> int:
    _check_file_folder(args.out)
    count = write_semilattice_file(args.order, args.out)
    print(f"order={args.order} semilattices={count} out={args.out}")
    return EXIT_OK


_DISPATCH = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "fixed": _cmd_fixed,
    "semilattices": _cmd_semilattices,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
