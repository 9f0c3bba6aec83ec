"""Enumeration benchmark for isgenum.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each listed one is there):

  count-n9      `isg count --order 9 --threads 1`
  count-n9-t2   the same with `--threads 2`
  fixed-n10     `enumerate_fixed` over a seeded sample of frozen order-10
                skeletons (bench/data), in one process
  enumerate-n9  `isg enumerate --order 9` into a fresh directory.  Not in
                BENCHMARK.json: creating its 26422 files costs between 0.5
                and 9 s of kernel time on the same host from one run to the
                next, so its wall time spreads by 15-20% whatever the
                program does.  Run it by hand for the write layer, peak
                memory with every table held, and the table-level checks.

Every measured process is a fresh interpreter: the semilattice cache in
isgenum.orders would make a warm process look faster than a user's run.
A CLI workload starts runs until their wall times add up to --seconds (at
least one) and reports medians; fixed-n10 repeats whole passes over its
sample for --seconds and reports the median pass.  Wall time, CPU time and
peak RSS come from os.wait4 on each process, so memory is that run's own;
for --threads 2 the peak is that of the largest single process (parent or
pool worker), not a sum.

Host speed.  On a small shared host each CPU slows down by up to 1.75x,
independently of the other, whenever a neighbour uses its sibling
hyperthread; CPU time slows down with it.  One thread per CPU, pinned to
it, runs a fixed pure-Python kernel every REF_PERIOD_S and records its CPU
time.  Single-threaded workloads are pinned to the first CPU.  Every time
reported (end-to-end and per layer) is the measured time multiplied by
(REF_NOMINAL_S / mean kernel time on the CPUs used while it was measured)
** REF_ELASTICITY, so times read as seconds on a host where the kernel
takes REF_NOMINAL_S.  The samplers take about 2% of each CPU.  The
unscaled times and the factors are printed on the `details:` line.

Every run's output is checked: totals and breakdown cells against
tests/expected_counts.py, written tables against the table-level oracles in
isgenum.esn, fixed-mode class counts against the counts frozen with the
sample.  Runs (CLI) or skeletons (fixed-n10) that fail are counted in
`failed`; `failed / attempted` is the error rate.  With --trace 1 an
untraced and a traced run of the workload give the per-layer metrics (see
bench/tracer.py).  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import runpy
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED_PATH = ROOT / "tests" / "expected_counts.py"
CHILD = BENCH / "child.py"
ORDER = 9
SETUP_PROBES = 7
RUN_LIMIT_S = 160.0
REF_ITERATIONS = 15000
REF_NOMINAL_S = 0.004
REF_PERIOD_S = 0.25
REF_WINDOW_S = 0.25  # samples this close to an interval count for it
# slope of log(enumerator time) against log(kernel time), both measured in
# turn on one CPU of a 2-core shared host: the kernel slows down more
REF_ELASTICITY = 0.77

CLI_WORKLOADS = {  # name -> (isg arguments, processes that compute)
    "count-n9": (["count", "--order", str(ORDER), "--threads", "1"], 1),
    "count-n9-t2": (["count", "--order", str(ORDER), "--threads", "2"], 2),
    "enumerate-n9": (["enumerate", "--order", str(ORDER)], 1),
}
WORKLOADS = (*CLI_WORKLOADS, "fixed-n10")


class BenchError(Exception):
    """The benchmark cannot run or its tracer disagrees with the program."""


def reference_kernel():
    """Fixed dict, tuple and integer work, like the enumerator's own."""
    counts = {}
    for i in range(REF_ITERATIONS):
        key = ((i * 7919) % 1009, i & 63)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class SpeedProbe:
    """Samples the CPU time of reference_kernel on each CPU, one thread each."""

    def __init__(self, cpus):
        self.samples = []  # (perf_counter at the middle, cpu, CPU seconds)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,),
                                          daemon=True) for cpu in cpus]
        for thread in self._threads:
            thread.start()

    def _loop(self, cpu):
        os.sched_setaffinity(0, {cpu})  # pins this thread only
        while not self._stop.wait(REF_PERIOD_S):
            t0, c0 = perf_counter(), time.thread_time()
            reference_kernel()
            used = time.thread_time() - c0
            self.samples.append(((t0 + perf_counter()) / 2, cpu, used))

    def stop(self):
        """Let samples after the last interval arrive, then stop."""
        if not self._stop.is_set():
            time.sleep(REF_WINDOW_S + REF_PERIOD_S)
            self._stop.set()
            for thread in self._threads:
                thread.join()

    def factor(self, t0, t1, cpus):
        """Scale for a time measured in [t0, t1] on cpus; call after stop().

        The mean, not the median, of the kernel times: a process is slowed
        by the share of its time its CPU spent in the slow state."""
        near = [used for t, cpu, used in self.samples
                if cpu in cpus and t0 - REF_WINDOW_S <= t <= t1 + REF_WINDOW_S]
        if not near:
            raise BenchError("no host-speed samples near a measurement")
        return (REF_NOMINAL_S / statistics.fmean(near)) ** REF_ELASTICITY


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Proc:
    """A finished child process, its interval and its own resource usage."""

    def __init__(self, code, cpus, t0, t1, cpu_s, rss_mb, stdout):
        self.code, self.cpus, self.t0, self.t1 = code, cpus, t0, t1
        self.wall_s = t1 - t0
        self.cpu_s, self.rss_mb, self.stdout = cpu_s, rss_mb, stdout


class Bench:
    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.t_start = perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.expected = runpy.run_path(str(EXPECTED_PATH))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.units = {m["name"]: m["unit"] for m in
                      spec["per_layer" if args.trace else "end_to_end"]}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.speed = SpeedProbe(self.cpus)
        self.attempted = 0
        self.failed = 0
        self.details = {"workload": args.workload, "seed": args.seed}

    # -- processes -----------------------------------------------------------

    def spawn(self, argv, cwd: Path, threads=1) -> Proc:
        """Run `python3 argv...` in cwd; time it and reap it with wait4.

        A single-threaded workload is pinned to one CPU, so that the
        host-speed samples of that CPU apply to it."""
        cwd.mkdir(parents=True, exist_ok=True)
        limit = max(5.0, RUN_LIMIT_S - (perf_counter() - self.t_start))
        cpus = set(self.cpus if threads > 1 else self.cpus[:1])
        with open(cwd / "stdout.txt", "w") as out, \
                open(cwd / "stderr.txt", "w") as err:
            os.sched_setaffinity(0, cpus)  # the child inherits it
            t0 = perf_counter()
            try:
                proc = subprocess.Popen([sys.executable, *argv], cwd=cwd,
                                        env=self.env, stdout=out, stderr=err,
                                        start_new_session=True)
            finally:
                os.sched_setaffinity(0, self.cpus)
            killer = threading.Timer(limit, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = perf_counter()
            _kill_group(proc.pid)  # pool workers left by a failed run
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write((cwd / "stderr.txt").read_text()[-2000:])
        return Proc(proc.returncode, cpus, t0, t1,
                    usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, (cwd / "stdout.txt").read_text())

    def setup_probes(self, argv):
        """Cold processes that do only the set-up of the workload."""
        probes = []
        for i in range(SETUP_PROBES + 1):
            proc = self.spawn(argv, self.work / f"setup{i}")
            if proc.code != 0:
                raise BenchError(f"set-up probe failed: {argv}")
            probes.append(proc)
        return probes[1:]  # the first one also fills __pycache__

    def setup_s(self, probes):
        """Median set-up time of the probes, scaled to the reference host."""
        return statistics.median(p.wall_s * self.factor(p) for p in probes)

    def factor(self, proc):
        return self.speed.factor(proc.t0, proc.t1, proc.cpus)

    def scaled(self, metrics, factor):
        """Scale every time among the metrics by the host-speed factor."""
        return {name: value * factor if self.units[name] in ("s", "ms")
                else value for name, value in metrics.items()}

    # -- correctness ---------------------------------------------------------

    def expected_csv(self):
        """The breakdown CSV `isg` must write, rendered from the fixture."""
        cells = self.expected["BREAKDOWN"][ORDER]
        lines = ["n,idempotents,shape,isgs,comm_isgs,ims,comm_ims,"
                 "semilattices,lattices"]
        for (m, shape), vals in sorted(
                cells.items(),
                key=lambda kv: (kv[0][0], tuple(-p for p in kv[0][1]))):
            lines.append(f"{ORDER},{m},{'.'.join(map(str, shape))},"
                         + ",".join(map(str, vals)))
        return "\n".join(lines) + "\n"

    def check_cli(self, proc, out_dir):
        """Check one CLI run; returns (ok, classes, files, bytes)."""
        problems = []
        totals = re.search(
            r"inverse_semigroups=(\d+) commutative=(\d+) monoids=(\d+) "
            r"commutative_monoids=(\d+)", proc.stdout)
        if proc.code != 0 or totals is None:
            problems.append(f"exit code {proc.code}, no totals line")
        elif tuple(map(int, totals.groups())) != \
                self.expected["TOTALS"][ORDER]:
            problems.append(f"totals {totals.groups()}")
        csv_path = out_dir / "breakdown.csv"
        csv = csv_path.read_text() if csv_path.exists() else ""
        if csv != self.expected_csv():
            problems.append("breakdown.csv differs from BREAKDOWN[9]")
        self.details["breakdown_sha256"] = hashlib.sha256(
            csv.encode()).hexdigest()
        tables = sorted(out_dir.glob("*.tbl"))
        if self.args.workload == "enumerate-n9":
            problems += self.check_tables(tables)
        files = [csv_path, *tables] if csv_path.exists() else tables
        nbytes = sum(p.stat().st_size for p in files)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        classes = int(totals.group(1)) if totals else 0
        return not problems, classes, len(files), nbytes

    def check_tables(self, paths):
        """Oracles on every written table, and the breakdown they imply."""
        from isgenum.esn import (
            d_restriction_from_table,
            idempotents_of_table,
            validate_inverse_semigroup,
        )

        problems = []
        if len(paths) != self.expected["TOTALS"][ORDER][0]:
            problems.append(f"{len(paths)} table files")
        digest = hashlib.sha256()
        tally = {}
        bad = 0
        for path in paths:
            raw = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + raw)
            head, *rows = raw.decode("ascii").splitlines()
            table = tuple(tuple(map(int, row.split())) for row in rows)
            n = len(table)
            idem = idempotents_of_table(table)
            if (head != f"n={ORDER} e={len(idem)}" or n != ORDER
                    or any(len(row) != n for row in table)
                    or not validate_inverse_semigroup(table)):
                bad += 1
                continue
            shape = tuple(len(X) for X in d_restriction_from_table(table))
            comm = all(table[a][b] == table[b][a]
                       for a in range(n) for b in range(a))
            monoid = any(all(table[e][x] == x == table[x][e]
                             for x in range(n)) for e in idem)
            cell = tally.setdefault((len(idem), shape), [0, 0, 0, 0])
            cell[0] += 1
            cell[1] += comm
            cell[2] += monoid
            cell[3] += comm and monoid
        if bad:
            problems.append(f"{bad} tables fail the table-level oracles")
        want = {key: list(vals[:4]) for key, vals in
                self.expected["BREAKDOWN"][ORDER].items()}
        if tally != want:
            problems.append("tables do not reproduce BREAKDOWN[9]")
        self.details["tables_sha256"] = digest.hexdigest()
        return problems

    def cross_check(self, checks):
        self.details["cross_checks"] = checks
        bad = [f"{name}: {a} != {b}" for name, (a, b) in checks.items()
               if a != b]
        if bad:
            raise BenchError("tracer disagrees with the program: "
                             + "; ".join(bad))

    # -- CLI workloads -------------------------------------------------------

    def cli_run(self, name, traced):
        """One cold `isg` process (traced through child.py if asked)."""
        args, _ = CLI_WORKLOADS[self.args.workload]
        run_dir = self.work / name
        out_dir = run_dir / "out"
        out_dir.mkdir(parents=True)
        if self.args.workload == "enumerate-n9":
            args = args + ["--out", str(out_dir)]
        else:
            args = args + ["--breakdown", str(out_dir / "breakdown.csv")]
        if traced:
            dump_dir = run_dir / "dumps"
            dump_dir.mkdir()
            argv = [str(CHILD), "cli", str(run_dir / "report.json"),
                    str(dump_dir), "--", *args]
        else:
            argv = ["-m", "isgenum.cli", *args]
        proc = self.spawn(argv, run_dir, CLI_WORKLOADS[self.args.workload][1])
        ok, classes, files, nbytes = self.check_cli(proc, out_dir)
        shutil.rmtree(out_dir)
        self.attempted += 1
        self.failed += not ok
        report = None
        if traced and proc.code == 0:
            report = json.loads((run_dir / "report.json").read_text())
        return proc, classes, files, nbytes, report

    def cli_metrics(self):
        probes = self.setup_probes(["-c", "import isgenum.cli"])
        procs, classes = [], []
        while (not procs or sum(p.wall_s for p in procs)
               < self.args.seconds):
            proc, n, _, _, _ = self.cli_run(f"run{len(procs)}", False)
            procs.append(proc)
            classes.append(n)
        self.speed.stop()
        factors = [self.factor(p) for p in procs]
        wall = statistics.median(p.wall_s * f for p, f in zip(procs, factors))
        self.details["raw_wall_s"] = [p.wall_s for p in procs]
        self.details["speed_factors"] = factors
        return {
            "wall_s": wall,
            "classes_per_s": statistics.median(classes) / wall,
            "peak_rss_mb": statistics.median(p.rss_mb for p in procs),
            "setup_s": self.setup_s(probes),
        }

    def cli_layers(self):
        plain, _, _, _, _ = self.cli_run("plain", False)
        proc, _, files, nbytes, report = self.cli_run("traced", True)
        if report is None:
            raise BenchError("traced run failed")
        counts = report["trace"]["counts"]
        generated = re.search(r"generated=(\d+)", proc.stdout)
        ledger = report["ledger"]
        self.cross_check({
            "gposets.candidates vs printed generated=":
                (counts.get("gposets.candidates", 0),
                 int(generated.group(1)) if generated else None),
            "gposets.candidates vs ledger.generated":
                (counts.get("gposets.candidates", 0), ledger["generated"]),
            "esn.tables vs ledger.generated":
                (counts.get("esn.tables", 0), ledger["generated"]),
            "iso.tests vs ledger.iso_tests":
                (counts.get("iso.tests_dup", 0)
                 + counts.get("iso.tests_distinct", 0), ledger["iso_tests"]),
        })
        self.speed.stop()
        f_plain = self.factor(plain)
        f_traced = self.factor(proc)
        overhead = (proc.wall_s * f_traced) / (plain.wall_s * f_plain) - 1
        threads = CLI_WORKLOADS[self.args.workload][1]
        wait = report["trace"]["seconds"].get("engine.pool_wait", 0.0)
        metrics = self.layer_metrics(report, overhead)
        metrics.update({
            "engine.files": files,
            "engine.bytes_written": nbytes,
            "engine.pool_wait_s": wait,
            "engine.parent_busy_s": report["wall_s"] - wait,
            "engine.cpu_util": proc.cpu_s / (threads * proc.wall_s),
        })
        self.details["speed_factors"] = [f_plain, f_traced]
        return self.scaled(metrics, f_traced)

    # -- fixed-n10 -----------------------------------------------------------

    def fixed_run(self, name, extra):
        run_dir = self.work / name
        run_dir.mkdir()
        report_path = run_dir / "report.json"
        proc = self.spawn([str(CHILD), "fixed", str(report_path),
                           "--seed", str(self.args.seed),
                           "--seconds", str(self.args.seconds), *extra],
                          run_dir)
        if proc.code != 0:
            raise BenchError(f"fixed-n10 {name} process failed")
        report = json.loads(report_path.read_text())
        if len(set(report["classes"])) != 1:  # passes must agree
            report["failed"] = report["attempted"]
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        return proc, report

    def fixed_metrics(self):
        probes = self.setup_probes([str(CHILD), "fixed", "report.json",
                                    "--seed", str(self.args.seed),
                                    "--seconds", "0", "--setup-only"])
        proc, report = self.fixed_run("run", [])
        self.speed.stop()
        wall = statistics.median(self.scaled_passes(proc, report))
        return {
            "wall_s": wall,
            "classes_per_s": report["classes"][0] / wall,
            "peak_rss_mb": proc.rss_mb,
            "setup_s": self.setup_s(probes),
        }

    def scaled_passes(self, proc, report):
        """Pass times, each scaled by the host speed during that pass."""
        factors = [self.speed.factor(t0, t1, proc.cpus)
                   for t0, t1 in report["passes"]]
        raw = [t1 - t0 for t0, t1 in report["passes"]]
        self.details.setdefault("raw_pass_s", []).append(raw)
        self.details.setdefault("speed_factors", []).append(factors)
        return [t * f for t, f in zip(raw, factors)]

    def fixed_layers(self):
        plain_proc, plain = self.fixed_run("plain", [])
        dump_dir = self.work / "dumps"
        dump_dir.mkdir()
        proc, report = self.fixed_run("traced", ["--trace", str(dump_dir)])
        # every pass does the same work: report the layers of one pass
        k = len(report["passes"])
        trace = report["trace"]
        per_pass = {
            "wall_s": sum(t1 - t0 for t0, t1 in report["passes"]) / k,
            "parent_span_s": report["parent_span_s"] / k,
            "trace": {
                "seconds": {n: v / k for n, v in trace["seconds"].items()},
                "counts": {n: v // k for n, v in trace["counts"].items()},
                "skeleton_ms": trace["skeleton_ms"],
            },
        }
        counts = per_pass["trace"]["counts"]
        self.cross_check({
            "classes vs esn.tables - iso.tests_dup":
                (report["classes"][0],
                 counts.get("esn.tables", 0) - counts.get("iso.tests_dup", 0)),
        })
        self.speed.stop()
        overhead = (statistics.median(self.scaled_passes(proc, report))
                    / statistics.median(self.scaled_passes(plain_proc, plain))
                    - 1)
        metrics = self.layer_metrics(per_pass, overhead)
        metrics.update({
            "engine.files": 0,
            "engine.bytes_written": 0,
            "engine.pool_wait_s": 0.0,
            "engine.parent_busy_s": per_pass["wall_s"],
            "engine.cpu_util": proc.cpu_s / proc.wall_s,
        })
        return self.scaled(metrics, self.factor(proc))

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, report, overhead):
        seconds = report["trace"]["seconds"]
        counts = report["trace"]["counts"]
        lat = report["trace"]["skeleton_ms"]
        pct = statistics.quantiles(lat, n=100) if len(lat) > 1 else lat * 99
        cand = counts.get("gposets.candidates", 0)
        bases = counts.get("gposets.bases", 0)
        dup = counts.get("iso.tests_dup", 0)
        distinct = counts.get("iso.tests_distinct", 0)
        return {
            "orders.generate_s": seconds.get("orders.generate", 0.0),
            "orders.semilattices": counts.get("orders.semilattices", 0),
            "shapes.d_partitions_s": seconds.get("shapes.d_partitions", 0.0),
            "shapes.skeletons": counts.get("shapes.skeletons", 0),
            "gposets.bases": bases,
            "gposets.basis_s": seconds.get("gposets.basis", 0.0),
            "gposets.search_s": seconds.get("gposets.search", 0.0),
            "gposets.candidates": cand,
            "gposets.fruitless_ratio":
                counts.get("gposets.fruitless", 0) / bases if bases else 0.0,
            "gposets.skeleton_ms_p50": pct[49],
            "gposets.skeleton_ms_p99": pct[98],
            "esn.tables": counts.get("esn.tables", 0),
            "esn.build_s": seconds.get("esn.build", 0.0),
            "iso.invariants_s": seconds.get("iso.invariants", 0.0),
            "iso.isoc_s": seconds.get("iso.isoc", 0.0),
            "iso.tests": dup + distinct,
            "iso.tests_dup": dup,
            "iso.tests_distinct": distinct,
            "iso.accept_ratio": (cand - dup) / cand if cand else 0.0,
            "engine.write_s": seconds.get("engine.write", 0.0),
            # spans of pool workers overlap the parent's wall time, so only
            # the parent's spans are taken from it
            "engine.self_s": report["wall_s"] - report["parent_span_s"],
            "trace.wall_s": report["wall_s"],
            "trace.overhead_ratio": overhead,
        }

    # -- entry ---------------------------------------------------------------

    def run(self):
        fixed = self.args.workload == "fixed-n10"
        try:
            if self.args.trace:
                metrics = self.fixed_layers() if fixed else self.cli_layers()
            else:
                metrics = (self.fixed_metrics() if fixed
                           else self.cli_metrics())
        finally:
            self.speed.stop()
        if set(self.units) != set(metrics):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(self.units) ^ set(metrics))}")
        self.details["error_rate"] = self.failed / self.attempted
        self.details["src_lines"] = {
            p.name: len(p.read_text().splitlines())
            for p in sorted((SRC / "isgenum").glob("*.py"))
        }
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in self.units.items()},
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not ((SRC / "isgenum" / "cli.py").is_file()
            and EXPECTED_PATH.is_file()):
        print("error: run from a checkout of the isgenum repository "
              "(src/isgenum and tests/expected_counts.py are missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=BENCH / ".work"))
    try:
        bench = Bench(args, work)
        result = bench.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("details: " + json.dumps(bench.details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
