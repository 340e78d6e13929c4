#!/usr/bin/env python
"""Distance-kernel benchmark: the leaf kernels and the joins that run them.

Writes ``BENCH_kernels.json`` next to this file (or ``--out``).  Seven
cells, each a call the joins make, timed in a fresh interpreter:

* ``leaf_cross_delta`` — two 64-point blocks of the served input, next
  to each other in its fanout-64 tree's leaf order;
* ``leaf_window_delta`` — the first 22 units of the first run of 22 or
  more leaf units in the walk of the Fig 7 input (Sierpinski3D, 4,000
  points, seed 1, fanout 8, range :data:`FIG7_EPS`); only its events are
  digested, so checkouts whose executor returns other counters compare;
* ``condensed_self`` — the first of those blocks;
* ``join-csj(10)``, ``join-ncsj`` — ``similarity_join`` of the served
  input at range :data:`EPS` (fanout 64, STR), the two reads of
  perfbench's served-churn;
* ``join-fig7-ncsj`` — N-CSJ of the Fig 7 input (fanout 8, STR) at
  :data:`FIG7_EPS` into a ``TextSink`` file, perfbench's fig7-ncsj-f8
  join; its digest is the file's sha256;
* ``join-county-csj(10)`` — CSJ(10) of perfbench's county input (12,000
  points drawn with seed :data:`SEED` from the 27,000-point MG County
  map of seed 0; fanout 64, STR) at :data:`EPS` into a ``TextSink``
  file, perfbench's county-csj-f64 join, whose merge window is most of
  its time; its digest is the file's sha256.

The served input is perfbench's: ``--n`` points (4,000) drawn with seed
:data:`SEED` from the 36,000-point LB County map of seed 1.  A kernel run
times :data:`KERNEL_CALLS` calls in blocks of :data:`BLOCK` and reports
the median block's time per call; a join run reports the median of
:data:`JOIN_CALLS` joins.  Each run warms up first
and digests what the calls return.

Every run goes in a fresh subprocess whose ``PYTHONPATH`` is one side's
``src`` directory, over inputs drawn once by this checkout.  With
``--baseline SRC`` each cell runs ``--pairs`` (at least 10) alternating
pairs, the side that goes first alternating from pair to pair.  The JSON
records, per cell and side, the median, quartiles and runs and the pairs
that side won, plus each side's output sha256, the CPUs this process may
run on (``nproc``) and both commits.  Exit status 1 when a cell's output
differs between the two sides.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--baseline SRC]
        [--n N] [--pairs K] [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from functools import cache
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Seed of the served sample and of the Fig 7 input.
SEED = 1
#: Range of the served reads.
EPS = 0.01
#: Range of perfbench's Fig 7 workload.
FIG7_EPS = 0.125
WINDOW_UNITS = 22
KERNEL_CALLS = 2000
BLOCK = 100
JOIN_CALLS = 5
CELLS = (
    "leaf_cross_delta",
    "leaf_window_delta",
    "condensed_self",
    "join-csj(10)",
    "join-ncsj",
    "join-fig7-ncsj",
    "join-county-csj(10)",
)


def digest(value) -> str:
    """sha256 of a kernel's or a join's output, arrays as their lists."""

    def plain(x):
        if isinstance(x, np.ndarray):
            return x.tolist()
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if isinstance(x, np.generic):
            return x.item()
        return x

    return hashlib.sha256(json.dumps(plain(value)).encode()).hexdigest()


def prepare(inputs: str) -> dict:
    """The call each cell times, built from the saved inputs."""
    from repro import TextSink, csj, ncsj, similarity_join
    from repro.api import build_index
    from repro.core.csj import leaf_cross_delta, leaf_window_delta
    from repro.core.frontier import traverse
    from repro.geometry.metrics import get_metric
    from repro.index.packed import pack_index

    data = np.load(inputs)
    served, fig7, county = data["served"], data["fig7"], data["county"]
    metric = get_metric("euclidean")
    # Points in leaf order: blocks of 64 are neighbours, as a leaf's are.
    order = pack_index(build_index(served, "rstar", max_entries=64, bulk="str")).entries
    ids1, ids2 = order[:64], order[64:128]
    leaf = np.ascontiguousarray(served[ids1])
    index7 = build_index(fig7, "rstar", max_entries=8, bulk="str")
    tree7 = pack_index(index7)
    window: list = []
    for unit in traverse(tree7, FIG7_EPS, True):
        if len(window) == WINDOW_UNITS:
            break
        window = window + [unit] if unit[0] in ("self", "cross") else []
    out7 = Path(inputs).with_name(f"fig7-{os.getpid()}.txt")
    out_county = Path(inputs).with_name(f"county-{os.getpid()}.txt")

    def fig7_join() -> Path:
        with TextSink(str(out7), id_width=len(str(len(fig7) - 1))) as sink:
            ncsj(index7, FIG7_EPS, sink=sink)
        return out7

    @cache  # built by the untimed first call, and only in its own cell
    def county_index():
        return build_index(county, "rstar", max_entries=64, bulk="str")

    def county_join() -> Path:
        with TextSink(str(out_county), id_width=len(str(len(county) - 1))) as sink:
            csj(county_index(), EPS, g=10, sink=sink)
        return out_county

    return {
        "leaf_cross_delta": lambda: leaf_cross_delta(served, metric, EPS, ids1, ids2, 0),
        "leaf_window_delta": lambda: leaf_window_delta(
            fig7, metric, FIG7_EPS, tree7, window, 0
        )[0],
        "condensed_self": lambda: metric.condensed_self(leaf),
        "join-csj(10)": lambda: similarity_join(served, EPS, algorithm="csj", g=10),
        "join-ncsj": lambda: similarity_join(served, EPS, algorithm="ncsj"),
        "join-fig7-ncsj": fig7_join,
        "join-county-csj(10)": county_join,
    }


def run_cell(cell: str, inputs: str) -> None:
    """Worker body: time ``cell`` and print the JSON line."""
    call = prepare(inputs)[cell]
    out = call()
    if cell.startswith("join-"):
        times = []
        for _ in range(JOIN_CALLS):
            start = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - start)
        if isinstance(result, Path):
            out = hashlib.sha256(result.read_bytes()).hexdigest()
            result.unlink()
        else:
            out = (result.links, result.groups, result.algorithm)
        seconds = statistics.median(times)
    else:
        for _ in range(BLOCK):
            call()
        blocks = []
        for _ in range(KERNEL_CALLS // BLOCK):
            start = time.perf_counter()
            for _ in range(BLOCK):
                call()
            blocks.append((time.perf_counter() - start) / BLOCK)
        seconds = statistics.median(blocks)
    print(json.dumps({"seconds": seconds, "sha256": digest(out)}))


def spawn(src: str, cell: str, inputs: Path) -> dict:
    """One run of ``cell`` in a fresh interpreter over ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, __file__, "--worker", cell, str(inputs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list, wins: int) -> dict:
    micros = [v * 1e6 for v in values]
    if len(micros) > 1:
        q1, med, q3 = statistics.quantiles(micros, n=4, method="inclusive")
    else:
        q1 = med = q3 = micros[0]
    return {
        "median_us": round(med, 2), "q1_us": round(q1, 2), "q3_us": round(q3, 2),
        "iqr_us": round(q3 - q1, 2), "wins": wins,
        "runs_us": [round(v, 2) for v in micros],
    }


def bench(cell: str, sides: dict, pairs: int, inputs: Path) -> dict:
    names = list(sides)
    times: dict = {name: [] for name in names}
    digests: dict = {name: set() for name in names}
    for i in range(pairs):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            run = spawn(sides[name], cell, inputs)
            times[name].append(run["seconds"])
            digests[name].add(run["sha256"])
    wins = {name: 0 for name in names}
    if len(names) == 2:
        for pair in zip(*(times[name] for name in names)):
            wins[names[pair.index(min(pair))]] += 1
    row = {name: summary(times[name], wins[name]) for name in names}
    for name in names:
        row[name]["sha256"] = sorted(digests[name])
    row["identical"] = len(set().union(*digests.values())) == 1
    line = "  ".join(
        f"{name} {row[name]['median_us']:.1f}us (IQR {row[name]['iqr_us']:.1f}, "
        f"wins {row[name]['wins']})" for name in names
    )
    print(f"{cell:19s} {line}  identical {row['identical']}", flush=True)
    return row


def git_sha(where: Path) -> str:
    """The commit of the checkout holding ``where``, ``-dirty`` if changed."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=where, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        run_cell(*sys.argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="src directory of the checkout to compare with")
    parser.add_argument("--n", type=int, default=4000, help="points in the served input")
    parser.add_argument("--pairs", type=int, default=10, help="runs per cell and side")
    parser.add_argument("--out", default=str(Path(__file__).parent / "BENCH_kernels.json"))
    args = parser.parse_args()
    if args.baseline and args.pairs < 10:
        parser.error("--baseline needs at least 10 pairs")

    from repro.datasets import load_dataset

    sides = {"change": str(ROOT / "src")}
    if args.baseline:
        sides["baseline"] = str(Path(args.baseline).resolve())
    base = load_dataset("lb_county", 36_000, seed=1)
    pick = np.random.default_rng(SEED).choice(len(base), args.n, replace=False)
    county = load_dataset("mg_county", 27_000, seed=0)
    county_pick = np.random.default_rng(SEED).choice(len(county), 12_000, replace=False)
    with tempfile.TemporaryDirectory(prefix="bench_kernels_") as tmp:
        inputs = Path(tmp) / "inputs.npz"
        np.savez(
            inputs,
            served=np.ascontiguousarray(base[np.sort(pick)]),
            fig7=load_dataset("sierpinski3d", 4000, seed=SEED),
            county=np.ascontiguousarray(county[np.sort(county_pick)]),
        )
        rows = {cell: bench(cell, sides, args.pairs, inputs) for cell in CELLS}
    identical = all(row["identical"] for row in rows.values())
    report = {
        "benchmark": "kernels",
        "git_sha": git_sha(ROOT),
        "baseline_git_sha": git_sha(Path(sides["baseline"])) if args.baseline else None,
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": args.pairs,
        "input": {
            "served": {"dataset": "lb_county", "base_n": 36_000, "base_seed": 1,
                       "n": args.n, "seed": SEED, "eps": EPS, "fanout": 64, "bulk": "str"},
            "fig7": {"dataset": "sierpinski3d", "n": 4000, "seed": SEED,
                     "eps": FIG7_EPS, "fanout": 8, "bulk": "str",
                     "window_units": WINDOW_UNITS, "join_sink": "TextSink"},
            "county": {"dataset": "mg_county", "base_n": 27_000, "base_seed": 0,
                       "n": 12_000, "seed": SEED, "eps": EPS, "g": 10, "fanout": 64,
                       "bulk": "str", "join_sink": "TextSink"},
            "kernel_calls": KERNEL_CALLS, "block": BLOCK, "join_calls": JOIN_CALLS,
        },
        "cells": rows,
        "gate": {"identical": identical},
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    if not identical:
        print(f"FAIL: a cell's output differs between sides; report written to {args.out}")
        return 1
    print(f"PASS: report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
