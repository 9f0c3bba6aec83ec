"""Per-layer spans and counters, recorded around the calls isgenum makes
from its engine into each module.

`isgenum.engine` binds its callees by name (`from .esn import esn`, ...),
so the wrappers replace those bindings in `isgenum.engine` itself; patching
the defining modules would leave the engine calling the originals.  The
same goes for the two functions `isgenum.cli` imports from the engine.

Spans never nest: every wrapped call is made by engine or CLI code, never by
another wrapped function, so a layer's self time is the sum of its span
durations.  A skeleton (E, P, f) is timed from its basis construction to
the end of the last search, construction or isomorphism span before the
next skeleton or the next call into orders or shapes.

Worker processes of `--threads K` runs record into their own tracer and
write it to a file when they exit; `merge_worker_dumps` folds those files
into the parent's tracer.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util as mp_util
from time import perf_counter

# span roles: OUTER closes the open skeleton, START opens a new one,
# INNER extends it
OUTER, START, INNER = 0, 1, 2

_ACTIVE = None  # the tracer whose wrappers are installed in this process


class Tracer:
    """Span seconds and counters for one process."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.reset()

    def reset(self):
        self.seconds = {}
        self.counts = {}
        self.skeleton_ms = []
        self._busy = False
        self._skeleton = None  # [start, end of last inner span]

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _begin(self, name, role):
        if self._busy:
            raise RuntimeError(f"span {name} started inside another span")
        self._busy = True
        t = perf_counter()
        if role != INNER:
            self.close_skeleton()
        if role == START:
            self._skeleton = [t, t]
        return t

    def _end(self, name, t0, role):
        t = perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + (t - t0)
        if role != OUTER and self._skeleton is not None:
            self._skeleton[1] = t
        self._busy = False

    def close_skeleton(self):
        if self._skeleton is not None:
            start, end = self._skeleton
            self.skeleton_ms.append((end - start) * 1000.0)
            self._skeleton = None

    def call(self, name, fn, role, after=None):
        """Wrap fn as one span; `after(tracer, result)` updates counters."""
        def wrapper(*args, **kwargs):
            t0 = self._begin(name, role)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(name, t0, role)
            if after is not None:
                after(self, out)
            return out
        return wrapper

    def generator(self, name, fn, role, item_key, done=None):
        """Wrap a function returning an iterator; each step is one span."""
        def wrapper(*args, **kwargs):
            t0 = self._begin(name, role)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self._end(name, t0, role)
            n = 0
            try:
                while True:
                    t0 = self._begin(name, role)
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        self._end(name, t0, role)
                    n += 1
                    yield item
            finally:
                self.add(item_key, n)
                if done is not None:
                    done(self, n)
        return wrapper

    def state(self):
        self.close_skeleton()
        return {"seconds": self.seconds, "counts": self.counts,
                "skeleton_ms": self.skeleton_ms}

    def merge_worker_dumps(self):
        """Fold the files written by exited pool workers into this tracer."""
        for name in sorted(os.listdir(self.dump_dir)):
            with open(os.path.join(self.dump_dir, name), encoding="ascii") as fh:
                part = json.load(fh)
            for key, val in part["seconds"].items():
                self.seconds[key] = self.seconds.get(key, 0.0) + val
            for key, val in part["counts"].items():
                self.add(key, val)
            self.skeleton_ms.extend(part["skeleton_ms"])


def _count_skeletons(tracer, maps):
    tracer.add("shapes.skeletons", len(maps))


def _count_isoc(tracer, same):
    tracer.add("iso.tests_dup" if same else "iso.tests_distinct")


def _count_fruitless(tracer, n):
    if n == 0:
        tracer.add("gposets.fruitless")


# engine binding -> (span name, role, counter update)
_ENGINE_CALLS = {
    "partitions": ("shapes.d_partitions", OUTER, None),
    "admissible_compositions": ("shapes.d_partitions", OUTER, None),
    "d_partitions": ("shapes.d_partitions", OUTER, None),
    "is_d_partition": ("shapes.d_partitions", OUTER, None),
    "group_maps": ("shapes.d_partitions", OUTER, _count_skeletons),
    "e_groupoid": ("gposets.basis", START,
                   lambda t, _: t.add("gposets.bases")),
    "esn": ("esn.build", INNER, lambda t, _: t.add("esn.tables")),
    "invariants": ("iso.invariants", INNER, None),
    "is_isoc": ("iso.isoc", INNER, _count_isoc),
}
# engine binding -> (span name, role, per-item counter, on exhaustion)
_ENGINE_GENERATORS = {
    "meet_semilattices": ("orders.generate", OUTER, "orders.semilattices",
                          None),
    "g_posets": ("gposets.search", INNER, "gposets.candidates",
                 _count_fruitless),
}


def _worker_start(dump_dir, initializer, initargs):
    """Pool worker initializer: fresh tracer, dumped when the worker exits."""
    global _ACTIVE
    if _ACTIVE is None:  # spawned worker: wrappers are not inherited
        install(Tracer(dump_dir))
    _ACTIVE.reset()
    path = os.path.join(dump_dir, f"worker-{os.getpid()}.json")
    mp_util.Finalize(None, _dump, args=(_ACTIVE, path), exitpriority=10)
    if initializer is not None:
        initializer(*initargs)


def _dump(tracer, path):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(tracer.state(), fh)


class _TracedPool(ProcessPoolExecutor):
    """Process pool whose workers trace, and whose results time the wait."""

    def __init__(self, *args, initializer=None, initargs=(), **kwargs):
        super().__init__(*args, initializer=_worker_start,
                         initargs=(_ACTIVE.dump_dir, initializer, initargs),
                         **kwargs)

    def map(self, fn, *iterables, **kwargs):
        results = super().map(fn, *iterables, **kwargs)
        wait = _ACTIVE.generator("engine.pool_wait", lambda: results, OUTER,
                                 "engine.pool_results")
        return wait()


def install(tracer: Tracer):
    """Replace the engine's and CLI's bindings with traced wrappers.

    Returns a dict that `captured["result"]` fills with the last
    `run_enumeration` result, so the caller can compare the tracer's
    counters with the program's own ledger.
    """
    global _ACTIVE
    import isgenum.cli as cli
    import isgenum.engine as engine

    missing = [name for name in (*_ENGINE_CALLS, *_ENGINE_GENERATORS,
                                 "ProcessPoolExecutor")
               if not hasattr(engine, name)]
    missing += [f"cli.{name}" for name in ("run_enumeration",
                                           "write_cayley_files")
                if not hasattr(cli, name)]
    if missing:
        raise RuntimeError(
            "bench/tracer.py is out of date: isgenum no longer binds "
            + ", ".join(missing)
        )
    _ACTIVE = tracer
    for name, (span, role, after) in _ENGINE_CALLS.items():
        setattr(engine, name,
                tracer.call(span, getattr(engine, name), role, after))
    for name, (span, role, item_key, done) in _ENGINE_GENERATORS.items():
        setattr(engine, name, tracer.generator(
            span, getattr(engine, name), role, item_key, done))
    engine.ProcessPoolExecutor = _TracedPool

    captured = {}
    run = cli.run_enumeration

    def run_and_keep(config):
        captured["result"] = run(config)
        return captured["result"]

    cli.run_enumeration = run_and_keep
    cli.write_cayley_files = tracer.call("engine.write",
                                         cli.write_cayley_files, OUTER)
    return captured
