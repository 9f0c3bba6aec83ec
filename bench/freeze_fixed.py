"""Regenerate the frozen skeleton pool used by the fixed-n10 workload.

A skeleton is a triple (E, P, f): a meet-semilattice E, a D-partition P of
E and one group per block.  The pool is a uniform sample of the order-10
skeletons with |E| <= 8, stored as data together with the number of
isomorphism classes each one yields, so that the benchmark feeds identical
inputs to every version of the program even when the generators of
semilattices, D-partitions or group assignments change.  The data files in
bench/data were written by this script from the first version of the
program; rerunning it is only needed to build a different pool.

    PYTHONPATH=src python3 bench/freeze_fixed.py
"""

import random
import sys
import time
from pathlib import Path

from isgenum.engine import enumerate_fixed
from isgenum.groups import catalog
from isgenum.orders import format_cover_line, meet_semilattices
from isgenum.shapes import admissible_compositions, d_partitions, group_maps, partitions

ORDER = 10
MAX_IDEMPOTENTS = 8
POOL_SIZE = 6000
POOL_SEED = 13127192
DATA = Path(__file__).resolve().parent / "data"


def universe():
    groups = catalog(ORDER)
    for m in range(1, MAX_IDEMPOTENTS + 1):
        shapes = [(s, admissible_compositions(ORDER, s)) for s in partitions(m)]
        shapes = [(s, comps) for s, comps in shapes if comps]
        for E in meet_semilattices(m):
            for shape, comps in shapes:
                dparts = d_partitions(E, shape)
                for C in comps:
                    for P in dparts:
                        for f in group_maps(P, C, groups):
                            yield E, P, f


def main():
    every = list(universe())
    print(f"universe: {len(every)} skeletons", file=sys.stderr)
    pool = random.Random(POOL_SEED).sample(every, POOL_SIZE)
    covers, cover_index, rows = [], {}, []
    t0 = time.perf_counter()
    for E, P, f in pool:
        line = format_cover_line(E)
        if line not in cover_index:
            cover_index[line] = len(covers)
            covers.append(line)
        classes = len(enumerate_fixed(E, P, f))
        blocks = "|".join(",".join(map(str, X)) for X in P)
        names = ",".join(G.name for G in f)
        rows.append(f"{cover_index[line]}\t{blocks}\t{names}\t{classes}")
    print(f"pool: {POOL_SIZE} skeletons in {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)
    DATA.mkdir(exist_ok=True)
    (DATA / "fixed_n10_semilattices.txt").write_text("\n".join(covers) + "\n")
    (DATA / "fixed_n10_skeletons.tsv").write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
