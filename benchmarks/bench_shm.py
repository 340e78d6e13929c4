#!/usr/bin/env python
"""Data-plane benchmark: shared-memory vs pickled dataset shipping.

Writes ``BENCH_shm.json`` next to this file (or ``--out``).  The figure
of merit is **spawn-to-first-result latency**: the wall time from
calling ``parallel_join`` to the first merged result reaching the sink.
That window contains everything the data plane changes — parent state
construction, dataset shipping, worker attach/rebuild — and none of the
things it must not change (the join itself).  ``tasks_per_s`` (canonical
tasks / total wall) is recorded alongside for throughput context.

All numbers are medians of ``--repeat`` (default 3) timed runs on THIS
host (``host_cpus`` records the core count).  Each plane gets one
untimed warmup run first: the shm plane is *designed* to reuse warm
state across requests, so steady-state latency is the honest comparison
— the pickle plane has no such cache, and its warmup changes nothing.

Every timed run re-verifies the invariant that makes the comparison
meaningful: both planes produce results byte-identical to serial.

No option selects the plane: ``parallel_join`` uses shared memory
wherever it works.  The pickle rows therefore run with
``shm_available()`` reporting False, which is the code a host without
POSIX shared memory runs.

The gate (exit status) requires the shm plane to reach the first result
>= 1.5x faster than the pickle plane at 4 workers on the PBSM workload.

Usage::

    PYTHONPATH=src python benchmarks/bench_shm.py [--out PATH] [--n 4000]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import numpy as np

from repro.api import similarity_join
from repro.core.results import CollectSink
from repro.experiments.runner import scaled
from repro.parallel import JoinSpec, parallel_join
from repro.parallel import shm
from repro.parallel.shm import owned_segments, shm_available

WORKER_COUNTS = (1, 2, 4)


class FirstResultSink(CollectSink):
    """Collecting sink that timestamps the first stored result."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_result_at = None

    def _mark(self):
        if self.first_result_at is None:
            self.first_result_at = time.perf_counter()

    def _store_link(self, i, j):
        self._mark()
        super()._store_link(i, j)

    def write_links(self, ids_i, ids_j):
        self._mark()
        super().write_links(ids_i, ids_j)

    def _store_group(self, ids):
        self._mark()
        super()._store_group(ids)

    def _store_group_pair(self, ids_a, ids_b):
        self._mark()
        super()._store_group_pair(ids_a, ids_b)


def timed_run(pts, eps, algorithm, g, workers, plane):
    sink = FirstResultSink()
    probed = shm._SHM_AVAILABLE
    shm._SHM_AVAILABLE = plane == "shm"
    try:
        t0 = time.perf_counter()
        result = parallel_join(
            pts, eps, algorithm=algorithm, g=g, workers=workers, sink=sink,
        )
        wall = time.perf_counter() - t0
        first = (sink.first_result_at or time.perf_counter()) - t0
    finally:
        shm._SHM_AVAILABLE = probed
    return result, first, wall


def bench_config(name, pts, eps, algorithm, g=10, repeat=3):
    serial = similarity_join(pts, eps, algorithm=algorithm, g=g)
    serial_links = sorted(serial.expanded_links())
    ntasks = len(
        JoinSpec(points=pts, eps=eps, algorithm=algorithm, g=g)
        .build_state().tasks
    )

    row = {
        "dataset": name,
        "n": int(len(pts)),
        "eps": eps,
        "algorithm": serial.algorithm,
        "tasks": ntasks,
        "repeat": repeat,
        "first_result_s": {},   # plane -> workers -> median seconds
        "tasks_per_s": {},
        "byte_identical": {},
        "speedup_first_result": {},  # workers -> pickle / shm
    }

    for plane in ("pickle", "shm"):
        row["first_result_s"][plane] = {}
        row["tasks_per_s"][plane] = {}
        identical = True
        for workers in WORKER_COUNTS:
            timed_run(pts, eps, algorithm, g, workers, plane)  # warmup
            firsts, rates = [], []
            for _ in range(repeat):
                result, first, wall = timed_run(
                    pts, eps, algorithm, g, workers, plane
                )
                firsts.append(first)
                rates.append(ntasks / wall if wall > 0 else 0.0)
                identical = identical and (
                    sorted(result.expanded_links()) == serial_links
                )
            row["first_result_s"][plane][str(workers)] = round(
                statistics.median(firsts), 5
            )
            row["tasks_per_s"][plane][str(workers)] = round(
                statistics.median(rates), 1
            )
        row["byte_identical"][plane] = bool(identical)

    for workers in WORKER_COUNTS:
        shm_t = row["first_result_s"]["shm"][str(workers)]
        pkl_t = row["first_result_s"]["pickle"][str(workers)]
        row["speedup_first_result"][str(workers)] = round(
            pkl_t / shm_t if shm_t > 0 else float("inf"), 3
        )
    return row


def main() -> int:
    default_out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "BENCH_shm.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=default_out)
    parser.add_argument("--n", type=int, default=scaled(4000))
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if not shm_available():
        print("shared memory unavailable on this host; nothing to compare")
        return 1

    uniform = np.random.default_rng(3).random((args.n, 2))

    rows = [
        bench_config("synthetic-uniform2d", uniform, 0.03, "pbsm-csj",
                     repeat=args.repeat),
        bench_config("synthetic-uniform2d", uniform, 0.03, "csj",
                     repeat=args.repeat),
    ]

    report = {
        "benchmark": "data plane (shared-memory vs pickled dataset shipping)",
        "host_cpus": os.cpu_count(),
        "note": (
            "first_result_s is the spawn-to-first-result latency (call to "
            "first merged result) on THIS host, median of timed runs after "
            "one warmup per plane; the shm plane's warm-state reuse across "
            "requests is the feature under test, the pickle plane rebuilds "
            "everything per run by design. tasks_per_s is canonical tasks "
            "over total wall time."
        ),
        "results": rows,
        "leaked_segments": owned_segments(),
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(json.dumps(report, indent=2))
    ok = all(all(r["byte_identical"].values()) for r in rows)
    clean = not report["leaked_segments"]
    pbsm4 = next(r for r in rows if r["algorithm"].startswith("pbsm")
                 )["speedup_first_result"]["4"]
    print(f"\nbyte-identical everywhere        : {ok}")
    print(f"no leaked segments               : {clean}")
    print(f"pbsm first-result speedup @4     : {pbsm4:.2f}x (shm vs pickle)")
    return 0 if ok and clean and pbsm4 >= 1.5 else 1


if __name__ == "__main__":
    raise SystemExit(main())
