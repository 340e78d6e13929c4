#!/usr/bin/env python
"""Durable-path benchmark: a checkpointed join against the serial join.

Writes ``BENCH_durable.json`` next to this file (or ``--out``).  The
paper treats a join as one batch job writing one large text file; the
durable version of that job is :class:`~repro.resilience.CheckpointedJoin`,
which fsyncs the file and a journal record at batch boundaries.  This
script measures what durability costs on two of the benchmark's batch
inputs, read from ``perfbench/spec.json``:

* ``fig7-ncsj-f8`` — Sierpinski3D, N-CSJ at fanout 8: a deep tree and
  2.7 MB of mostly plain links, so the per-checkpoint cost shows;
* ``county-csj-f64`` — MG County, CSJ(10) at fanout 64: leaf kernels and
  the merge window dominate and the output is compact.

Each workload runs :data:`PAIRS` alternating pairs of

* *serial* — ``build_index`` plus the join into a ``TextSink`` file, and
* *durable* — ``CheckpointedJoin`` at its default settings, which builds
  the same tree itself,

so the tree build is in both columns.  The JSON records the median and
quartiles of each column, the per-pair durable/serial ratios, the
journal's record count, the output size, the CPUs this process may run
on (``nproc``) and the git commit.  Every durable file is compared with
the serial one.

The gate: exit status 1 when a durable file differs from the serial
file or fig7's journal holds more than :data:`MAX_FIG7_RECORDS` records
(both deterministic); otherwise exit status 3 when fig7's durable median
exceeds :data:`MAX_FIG7_RATIO` times its serial median.  The ratio prices
the host's fsync latency as well as the code, which is why it has a
status of its own.

Usage::

    PYTHONPATH=src python benchmarks/bench_durable.py [--out PATH]
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import build_index
from repro.core.csj import csj, ncsj
from repro.core.results import TextSink
from repro.datasets import load_dataset
from repro.io.writer import width_for
from repro.resilience.checkpoint import CheckpointedJoin, read_journal

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig7-ncsj-f8", "county-csj-f64")
#: Alternating serial/durable pairs per workload.
PAIRS = 10
#: Seed of the drawn inputs, as in the benchmark's own runs.
SEED = 1
#: Largest fig7 durable/serial median ratio the gate accepts.
MAX_FIG7_RATIO = 1.5
#: Most checkpoint records fig7's durable run may write.  Each record
#: costs two fsyncs, the cost the ratio prices: fig7 writes 50 at the
#: default settings, 965 when a record also fired every 256 output lines.
MAX_FIG7_RECORDS = 64


def make_points(cfg: dict, seed: int) -> np.ndarray:
    """The workload's points, drawn as ``perfbench/run.py`` draws them."""
    if "base_n" not in cfg:
        return load_dataset(cfg["dataset"], cfg["n"], seed=seed)
    base = load_dataset(cfg["dataset"], cfg["base_n"], seed=cfg["base_seed"])
    pick = np.random.default_rng(seed).choice(len(base), cfg["n"], replace=False)
    return np.ascontiguousarray(base[np.sort(pick)])


def serial_run(points, cfg, path) -> float:
    t0 = time.perf_counter()
    tree = build_index(points, "rstar", max_entries=cfg["fanout"], bulk="str")
    sink = TextSink(str(path), id_width=width_for(len(points)))
    if cfg["algorithm"] == "ncsj":
        ncsj(tree, cfg["eps"], sink=sink)
    else:
        csj(tree, cfg["eps"], g=cfg["g"], sink=sink)
    sink.close()
    return time.perf_counter() - t0


def durable_run(points, cfg, path) -> float:
    t0 = time.perf_counter()
    CheckpointedJoin(
        points, cfg["eps"], str(path), algorithm=cfg["algorithm"], g=cfg["g"],
        max_entries=cfg["fanout"],
    ).run()
    return time.perf_counter() - t0


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
        "iqr": round(q3 - q1, 4), "runs": [round(v, 4) for v in values],
    }


def bench(name: str, cfg: dict, workdir: Path) -> dict:
    points = make_points(cfg, SEED)
    serial_path, durable_path = workdir / "serial.txt", workdir / "durable.txt"
    serial_s, durable_s = [], []
    identical = True
    for i in range(PAIRS):
        # Alternate which side runs first, so drift charges both alike.
        if i % 2 == 0:
            serial_s.append(serial_run(points, cfg, serial_path))
            durable_s.append(durable_run(points, cfg, durable_path))
        else:
            durable_s.append(durable_run(points, cfg, durable_path))
            serial_s.append(serial_run(points, cfg, serial_path))
        identical &= filecmp.cmp(serial_path, durable_path, shallow=False)
    journal = str(durable_path) + ".journal"
    with open(journal, encoding="ascii") as handle:
        records = sum('"type":"ckpt"' in line for line in handle)
    _, last = read_journal(journal)
    row = {
        "input": {k: cfg[k] for k in ("dataset", "n", "eps", "fanout", "algorithm", "g")},
        "seed": SEED,
        "serial_s": summary(serial_s),
        "durable_s": summary(durable_s),
        "median_ratio": round(statistics.median(durable_s) / statistics.median(serial_s), 3),
        "pair_ratios": [round(d / s, 3) for d, s in zip(durable_s, serial_s)],
        "journal_records": records,
        "output_bytes": os.path.getsize(durable_path),
        "identical": identical and bool(last and last.get("done")),
    }
    print(f"{name:16s} serial {row['serial_s']['median']:.3f}s "
          f"(IQR {row['serial_s']['iqr']:.3f})  durable "
          f"{row['durable_s']['median']:.3f}s (IQR {row['durable_s']['iqr']:.3f})  "
          f"ratio {row['median_ratio']:.2f}  records {records}  "
          f"identical {row['identical']}")
    return row


def git_sha() -> str:
    """The checkout's commit, suffixed ``-dirty`` when the tree differs."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).parent / "BENCH_durable.json"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())["workloads"]
    with tempfile.TemporaryDirectory(prefix="bench_durable_") as tmp:
        rows = {
            name: bench(name, spec[name], Path(tmp))
            for name in WORKLOADS
        }
    fig7 = rows["fig7-ncsj-f8"]
    correct = (
        all(r["identical"] for r in rows.values())
        and fig7["journal_records"] <= MAX_FIG7_RECORDS
    )
    fast = fig7["median_ratio"] <= MAX_FIG7_RATIO
    report = {
        "benchmark": "durable",
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": PAIRS,
        "workloads": rows,
        "gate": {
            "fig7_max_journal_records": MAX_FIG7_RECORDS,
            "fig7_max_median_ratio": MAX_FIG7_RATIO,
            "correct": correct,
            "fast": fast,
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    if not correct:
        print(f"FAIL: a durable file differs, or fig7 wrote more than "
              f"{MAX_FIG7_RECORDS} records; report written to {args.out}")
        return 1
    if not fast:
        print(f"FAIL: fig7 durable/serial median ratio above {MAX_FIG7_RATIO}; "
              f"report written to {args.out}")
        return 3
    print(f"PASS: report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
