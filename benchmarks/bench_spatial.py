#!/usr/bin/env python
"""Two-dataset join benchmark: the dual-tree and spatial hash joins.

Writes ``BENCH_spatial.json`` next to this file (or ``--out``).  Section
IV-D's spatial join runs as five cells, each joining MG County against
LB County (``--n`` points each, seed :data:`SEED`) at range :data:`EPS`:

* ``dual-ssj``, ``dual-ncsj``, ``dual-csj(10)`` — ``spatial_join`` and
  ``compact_spatial_join`` at g = 0 and g = 10 over two R*-trees
  bulk-loaded with STR at fanout :data:`FANOUT`;
* ``hash``, ``hash-csj(10)`` — ``spatial_hash_join``, plain and compact
  at g = 10, over the two arrays.

A run times one join call into a ``TextSink`` file, sink close included.
The trees are built before the clock starts.  Every run goes in a fresh
subprocess whose ``PYTHONPATH`` is one side's ``src`` directory, and it
reads the same point arrays, drawn once by this checkout.

With ``--baseline SRC`` (another checkout's ``src``) each cell runs
``--pairs`` (at least 10) alternating pairs of this checkout and SRC,
the side that goes first alternating from pair to pair.  The JSON
records, per cell and side, the median, quartiles and runs and the pairs
that side won, plus each cell's output sha256 and implied cross-link
count, the CPUs this process may run on (``nproc``) and both commits.
Without a baseline only this checkout runs.

Exit status 1 when a cell's output bytes differ between the two sides,
or when the five cells do not imply the same cross links.

Usage::

    PYTHONPATH=src python benchmarks/bench_spatial.py [--baseline SRC]
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
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Seed of both drawn datasets.
SEED = 1
EPS = 0.01
FANOUT = 64
#: cell name -> (join, g); ``g`` None is the plain join.
CELLS = {
    "dual-ssj": ("dual", None),
    "dual-ncsj": ("dual", 0),
    "dual-csj(10)": ("dual", 10),
    "hash": ("hash", None),
    "hash-csj(10)": ("hash", 10),
}


def run_cell(cell: str, inputs: str, output: str) -> None:
    """Worker body: time one join of ``cell`` and print the JSON line."""
    from repro.core.dual import compact_spatial_join, spatial_join
    from repro.core.partitioned import spatial_hash_join
    from repro.core.results import TextSink
    from repro.index.bulk import bulk_load
    from repro.io.writer import width_for

    data = np.load(inputs)
    a, b = data["a"], data["b"]
    join, g = CELLS[cell]
    if join == "dual":
        tree_a = bulk_load(a, method="str", max_entries=FANOUT)
        tree_b = bulk_load(b, method="str", max_entries=FANOUT)
    sink = TextSink(output, id_width=width_for(max(len(a), len(b))))
    start = time.perf_counter()
    if join == "hash":
        spatial_hash_join(a, b, EPS, compact=g is not None, g=g or 0, sink=sink)
    elif g is None:
        spatial_join(tree_a, tree_b, EPS, sink=sink)
    else:
        compact_spatial_join(tree_a, tree_b, EPS, g=g, sink=sink)
    sink.close()
    seconds = time.perf_counter() - start
    with open(output, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    print(json.dumps({"seconds": seconds, "sha256": digest}))


def spawn(src: str, cell: str, inputs: Path, output: Path) -> dict:
    """One run of ``cell`` in a fresh interpreter over ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, __file__, "--worker", cell, str(inputs), str(output)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def implied_links(path: Path) -> tuple[int, str]:
    """Count and sha256 of the sorted cross links an output file implies."""
    from repro.io.writer import read_output

    links, _, group_pairs = read_output(str(path))
    implied = set(links)
    for ids_a, ids_b in group_pairs:
        implied.update((i, j) for i in ids_a for j in ids_b)
    flat = np.array(sorted(implied), dtype=np.int64)
    return len(implied), hashlib.sha256(flat.tobytes()).hexdigest()


def summary(values: list, wins: int) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {
        "median_s": round(med, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
        "iqr_s": round(q3 - q1, 4), "wins": wins,
        "runs_s": [round(v, 4) for v in values],
    }


def bench(cell: str, sides: dict, pairs: int, inputs: Path, workdir: Path) -> dict:
    names = list(sides)
    times: dict = {name: [] for name in names}
    digests: dict = {name: set() for name in names}
    for i in range(pairs):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            run = spawn(sides[name], cell, inputs, workdir / f"{name}.txt")
            times[name].append(run["seconds"])
            digests[name].add(run["sha256"])
    wins = {name: 0 for name in names}
    if len(names) == 2:
        for pair in zip(*(times[name] for name in names)):
            wins[names[pair.index(min(pair))]] += 1
    count, links_sha = implied_links(workdir / "change.txt")
    row = {name: summary(times[name], wins[name]) for name in names}
    row["sha256"] = sorted(set().union(*digests.values()))
    row["identical"] = len(row["sha256"]) == 1
    row["implied_links"] = count
    row["implied_links_sha256"] = links_sha
    line = "  ".join(
        f"{name} {row[name]['median_s']:.4f}s (IQR {row[name]['iqr_s']:.4f}, "
        f"wins {row[name]['wins']})" for name in names
    )
    print(f"{cell:13s} {line}  identical {row['identical']}", flush=True)
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
    if len(sys.argv) == 5 and sys.argv[1] == "--worker":
        run_cell(*sys.argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="src directory of the checkout to compare with")
    parser.add_argument("--n", type=int, default=12_000, help="points per dataset")
    parser.add_argument("--pairs", type=int, default=10, help="runs per cell and side")
    parser.add_argument("--out", default=str(Path(__file__).parent / "BENCH_spatial.json"))
    args = parser.parse_args()
    if args.baseline and args.pairs < 10:
        parser.error("--baseline needs at least 10 pairs")

    from repro.datasets import lb_county, mg_county

    sides = {"change": str(ROOT / "src")}
    if args.baseline:
        sides["baseline"] = str(Path(args.baseline).resolve())
    with tempfile.TemporaryDirectory(prefix="bench_spatial_") as tmp:
        workdir = Path(tmp)
        inputs = workdir / "inputs.npz"
        np.savez(inputs, a=mg_county(args.n, seed=SEED), b=lb_county(args.n, seed=SEED))
        rows = {cell: bench(cell, sides, args.pairs, inputs, workdir) for cell in CELLS}
    identical = all(row["identical"] for row in rows.values())
    lossless = len({row["implied_links_sha256"] for row in rows.values()}) == 1
    report = {
        "benchmark": "spatial",
        "git_sha": git_sha(ROOT),
        "baseline_git_sha": git_sha(Path(sides["baseline"])) if args.baseline else None,
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": args.pairs,
        "input": {
            "a": "mg_county", "b": "lb_county", "n": args.n, "seed": SEED,
            "eps": EPS, "fanout": FANOUT, "bulk": "str",
        },
        "cells": rows,
        "gate": {"identical": identical, "same_implied_links": lossless},
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    if not (identical and lossless):
        print(f"FAIL: output bytes differ between sides, or the cells imply "
              f"different cross links; report written to {args.out}")
        return 1
    print(f"PASS: report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
