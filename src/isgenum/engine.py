"""The enumeration pipeline, the count ledger, the drivers and output.

Every mode runs one pipeline per semilattice E and block-size shape:

  _skeletons   the basis of every (composition, D-partition, group map)
  _candidates  the semigroup of every order on each basis
  _keep_new    one representative per isomorphism class: candidates are
               bucketed by `invariants`, then tested with `is_isoc`
               against their bucket

`run_enumeration` tallies it per shape (counts mode) and keeps the tables
(full mode), `enumerate_semigroups` streams it, and `enumerate_fixed` runs
it on one skeleton.  `run_enumeration` builds the semilattice levels and
then runs one task per semilattice, both serially or on one process pool;
results are merged in generation order, so levels, ledgers and output files
do not depend on the worker count.

The pipeline calls every layer through this module's own names (`esn`,
`g_posets`, `is_isoc`, ...), which is where `bench/tracer.py` wraps them.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

from . import groups as _groups
from .esn import esn
from .gposets import e_groupoid, g_posets
from .iso import invariants, is_isoc
from .orders import (
    MeetSemilattice,
    format_cover_line,
    meet_semilattices,
    semilattice_level,
)
from .shapes import (
    admissible_compositions,
    d_partitions,
    group_maps,
    is_d_partition,
    partitions,
)

__all__ = [
    "EnumerationConfig",
    "CountLedger",
    "RunResult",
    "enumerate_semigroups",
    "enumerate_counts_only",
    "enumerate_fixed",
    "run_enumeration",
    "breakdown_csv",
    "write_cayley_files",
    "write_semilattice_file",
]


@dataclass(frozen=True)
class EnumerationConfig:
    """Knobs for one enumeration run."""
    order: int
    mode: str = "counts"            # "counts" or "full"
    threads: int = 1
    progress: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if self.order > _groups.MAX_CATALOG_ORDER:
            raise ValueError("group catalog is limited to order "
                             f"{_groups.MAX_CATALOG_ORDER}")
        if self.threads < 1:
            raise ValueError("thread count must be positive")
        if self.mode not in ("counts", "full"):
            raise ValueError(f"unknown mode {self.mode!r}")


class CountLedger:
    """Per-(idempotent count, shape) tallies plus run statistics.

    Each cell holds [isgs, commutative isgs, monoids, commutative monoids,
    contributing semilattices, contributing lattices].
    """

    __slots__ = ("cells", "generated", "immediate", "iso_tests")

    def __init__(self):
        self.cells = {}
        self.generated = 0
        self.immediate = 0
        self.iso_tests = 0

    def add_cell(self, m, shape, isgs, comm, is_lattice):
        if isgs == 0:
            return
        cell = self.cells.setdefault((m, tuple(shape)), [0, 0, 0, 0, 0, 0])
        cell[0] += isgs
        cell[1] += comm
        cell[4] += 1
        if is_lattice:
            cell[2] += isgs
            cell[3] += comm
            cell[5] += 1

    def add_stats(self, generated, immediate, iso_tests):
        self.generated += generated
        self.immediate += immediate
        self.iso_tests += iso_tests

    def merge(self, other: "CountLedger"):
        for key, vals in other.cells.items():
            cell = self.cells.setdefault(key, [0, 0, 0, 0, 0, 0])
            for i, v in enumerate(vals):
                cell[i] += v
        self.add_stats(other.generated, other.immediate, other.iso_tests)

    def totals(self):
        """(inverse semigroups, commutative, monoids, commutative monoids)."""
        out = [0, 0, 0, 0]
        for vals in self.cells.values():
            for i in range(4):
                out[i] += vals[i]
        return tuple(out)

    def cell(self, m, shape):
        return tuple(self.cells.get((m, tuple(shape)), (0, 0, 0, 0, 0, 0)))

    def sorted_cells(self):
        return sorted(
            self.cells.items(),
            key=lambda kv: (kv[0][0], tuple(-p for p in kv[0][1])),
        )

    def __eq__(self, other):
        return isinstance(other, CountLedger) and self.cells == other.cells

    def __repr__(self):
        t = self.totals()
        return f"CountLedger(isgs={t[0]}, comm={t[1]}, ims={t[2]}, cims={t[3]})"


@dataclass
class RunResult:
    order: int
    ledger: CountLedger
    tables: list = field(default_factory=list)  # (cayley rows, #idempotents)


# ---------------------------------------------------------------------------
# the pipeline


def _shapes_with_compositions(n, m):
    out = []
    for shape in partitions(m):
        comps = admissible_compositions(n, shape)
        if comps:
            out.append((shape, comps))
    return out


def _skeletons(E, comps, dparts, catalog):
    """Basis of every (composition, D-partition, group map) of one shape."""
    for C in comps:
        for P in dparts:
            for f in group_maps(P, C, catalog):
                yield e_groupoid(E, P, f)


def _candidates(bases):
    """The semigroup of every order on every basis, isomorphic copies included."""
    for basis in bases:
        for order in g_posets(basis):
            yield esn(basis, order)


def _keep_new(candidates, stats):
    """Yield each candidate that is not isomorphic to an earlier one.

    Candidates are bucketed by `invariants` and compared with `is_isoc`
    against their own bucket only.  `stats` is [generated, immediate,
    iso_tests], updated in place: candidates seen, candidates that found
    their bucket empty, and `is_isoc` calls.
    """
    store = {}
    for S in candidates:
        stats[0] += 1
        bucket = store.setdefault(invariants(S), [])
        if not bucket:
            stats[1] += 1
        for T in bucket:
            stats[2] += 1
            if is_isoc(S, T):
                break
        else:
            bucket.append(S)
            yield S


def _shape_classes(E, shape, comps, catalog, stats):
    """One representative per class over E with D-partitions of this shape."""
    dparts = d_partitions(E, shape)
    return _keep_new(_candidates(_skeletons(E, comps, dparts, catalog)), stats)


def _search_semilattice(task):
    """Per-shape tallies over one semilattice; the task of every run.

    `task` is (n, E.down, shapes with their compositions, collect).  Returns
    (E has a maximum, results), where results lists (shape, count,
    commutative count, tables, stats) for the shapes with at least one
    class, and tables is None unless `collect`.
    """
    n, down, shapes, collect = task
    E = MeetSemilattice(down)
    catalog = _groups.catalog(n)
    results = []
    for shape, comps in shapes:
        stats = [0, 0, 0]
        kept = list(_shape_classes(E, shape, comps, catalog, stats))
        if kept:
            comm = sum(S.is_commutative() for S in kept)
            tables = [(S.table, E.size) for S in kept] if collect else None
            results.append((shape, len(kept), comm, tables, stats))
    return E.has_maximum(), results


# ---------------------------------------------------------------------------
# drivers


def run_enumeration(config: EnumerationConfig) -> RunResult:
    """Run a full or counts-only enumeration per the config."""
    n = config.order
    collect = config.mode == "full"
    ledger = CountLedger()
    result = RunResult(order=n, ledger=ledger)
    m_top = n if collect else n - 1
    # a terminal gets every update, each over the last; a log one line per level
    tty = config.progress and sys.stderr.isatty()
    lead = "\r" if tty else ""

    pool = None
    mapper = map
    if config.threads > 1:
        pool = ProcessPoolExecutor(max_workers=config.threads)
        mapper = partial(pool.map, chunksize=8)
    try:
        # every level up to n is built here, on the pool if there is one;
        # meet_semilattices then reads it from the cache, and counts mode
        # needs only the masks of level n
        level_n = semilattice_level(n, mapper)
        for m in range(1, m_top + 1):
            shapes = _shapes_with_compositions(n, m)
            if not shapes:
                continue
            tasks = [(n, E.down, shapes, collect) for E in meet_semilattices(m)]
            start = perf_counter()
            for i, (is_lattice, res) in enumerate(
                    mapper(_search_semilattice, tasks), 1):
                for shape, count, comm, tables, stats in res:
                    ledger.add_cell(m, shape, count, comm, is_lattice)
                    ledger.add_stats(*stats)
                    if collect:
                        result.tables.extend(tables)
                if config.progress and (tty or i == len(tasks)):
                    rate = i / max(perf_counter() - start, 1e-9)
                    print(
                        f"{lead}m={m}: {i}/{len(tasks)} semilattices, "
                        f"{rate:.1f}/s, ETA {(len(tasks) - i) / rate:.0f}s",
                        end="", flush=True, file=sys.stderr,
                    )
            if config.progress:
                print(file=sys.stderr)
    finally:
        if pool is not None:
            pool.shutdown()

    if not collect:
        # pure-semilattice row: the only inverse semigroup of order n whose
        # idempotents exhaust it is the semilattice itself; its labels are a
        # linear extension, so it has a maximum iff the last down-set is full
        shape, full = (1,) * n, (1 << n) - 1
        for down in level_n:
            ledger.add_cell(n, shape, 1, 1, down[-1] == full)
    return result


def enumerate_counts_only(n: int, threads: int = 1,
                          progress: bool = False) -> CountLedger:
    """Count ledger for order n without materializing Cayley tables."""
    cfg = EnumerationConfig(order=n, mode="counts", threads=threads,
                            progress=progress)
    return run_enumeration(cfg).ledger


def enumerate_semigroups(n: int):
    """Stream one representative per isomorphism class of order n."""
    if n < 1:
        raise ValueError("order must be positive")
    catalog = _groups.catalog(n)
    for m in range(1, n + 1):
        shapes = _shapes_with_compositions(n, m)
        if not shapes:
            continue
        for E in meet_semilattices(m):
            for shape, comps in shapes:
                yield from _shape_classes(E, shape, comps, catalog, [0, 0, 0])


def enumerate_fixed(E, P, f) -> list:
    """All inverse semigroups with idempotents E, D-restriction P and
    maximal subgroups f, one per isomorphism class."""
    P = tuple(tuple(X) for X in P)
    if sorted(x for X in P for x in X) != list(range(E.size)):
        raise ValueError("P must partition the elements of E")
    if not is_d_partition(E, P):
        raise ValueError("P does not satisfy the D-partition condition")
    return list(_keep_new(_candidates([e_groupoid(E, P, f)]), [0, 0, 0]))


# ---------------------------------------------------------------------------
# output


CSV_HEADER = "n,idempotents,shape,isgs,comm_isgs,ims,comm_ims,semilattices,lattices"


def breakdown_csv(ledger: CountLedger, n: int) -> str:
    lines = [CSV_HEADER]
    for (m, shape), vals in ledger.sorted_cells():
        shape_txt = ".".join(str(p) for p in shape)
        lines.append(
            f"{n},{m},{shape_txt},{vals[0]},{vals[1]},{vals[2]},{vals[3]},"
            f"{vals[4]},{vals[5]}"
        )
    return "\n".join(lines) + "\n"


def write_cayley_files(result: RunResult, out_dir: str) -> int:
    """One text file per semigroup: `n=<size> e=<#idempotents>` then the table."""
    os.makedirs(out_dir, exist_ok=True)
    for seq, (table, n_idem) in enumerate(result.tables):
        path = os.path.join(out_dir, f"isg_n{result.order}_{seq:06d}.tbl")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"n={len(table)} e={n_idem}\n")
            for row in table:
                fh.write(" ".join(str(v) for v in row) + "\n")
    return len(result.tables)


def write_semilattice_file(m: int, path: str) -> int:
    """Cover-relation lines for every semilattice of order m."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for E in meet_semilattices(m):
            fh.write(format_cover_line(E) + "\n")
            count += 1
    return count
