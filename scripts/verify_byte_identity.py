#!/usr/bin/env python
"""Byte-identity gate: this checkout's joins against another checkout's.

Runs one matrix of joins on each side, each side in a fresh interpreter
whose ``PYTHONPATH`` is that side's ``src`` directory, over inputs drawn
once by this checkout, and compares every cell: the sha256 of the
``TextSink`` output file, the result's label and ``g``, and every
integer ``JoinStats`` field.  The cells:

* ``self`` — the 54-cell self-join matrix: MG County and Sierpinski3D
  (2,000 points each) and uniform 3-D (1,500 points); ssj, ncsj,
  csj(10), egrid, egrid-csj g 0 and 10, pbsm, pbsm-csj g 0 and 10;
  ε 0.01 and 0.05; fanout 64 STR trees;
* ``fig7`` — perfbench's Fig 7 input (Sierpinski3D, 4,000 points,
  seed 1, ε 0.125) at fanout 8 and 16, ncsj and csj(10), whose leaf
  windows hold early-stopped groups;
* ``dual`` — two overlapping Gaussian-cluster sets (1,800 and 1,500
  points, shared centers) at ε 0.05 and 0.3: dual-tree ssj, ncsj and
  csj(10) over fanout-8 R*-trees (STR) and M-trees (inserted), whose
  windows hold early-stopped node pairs, and the spatial hash join,
  plain and csj(10);
* ``ties`` — 2-D and 3-D quarter-lattice inputs (1,200 and 1,000
  points drawn from half as many lattice rows, so most rows repeat) at
  a range equal to a realised lattice distance, so link distances and
  group diagonals tie with it exactly: csj(10), egrid-csj 10 and
  pbsm-csj 10 over fanout-8 STR trees, and, between the even and the
  odd rows, dual-tree csj(10) and the spatial hash join's csj(10);
* ``ckpt`` — ``CheckpointedJoin`` on the Fig 7 input at fanout 8, ncsj
  and csj(10): the run is cut after every journal record in turn (the
  journal keeps the records up to it, the output file keeps every byte)
  and resumed, and every resumed file and its counters must equal the
  uninterrupted run's (the cell's ``resumes_identical``; the number of
  records is reported, not compared).

``--scale`` multiplies every input size (CI runs 0.25).  Without
``--baseline`` the matrix runs once, on this checkout, and only the
checkpoint cells are checked.  Exit status 1 when a cell differs between
the sides or a resumed checkpoint run differs from its uninterrupted run.

Usage::

    PYTHONPATH=src python scripts/verify_byte_identity.py
        [--baseline OTHER_CHECKOUT/src] [--scale S] [--json PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SELF_ALGORITHMS = [
    ("ssj", 0), ("ncsj", 0), ("csj", 10), ("egrid", 0), ("egrid-csj", 0),
    ("egrid-csj", 10), ("pbsm", 0), ("pbsm-csj", 0), ("pbsm-csj", 10),
]
FIG7_EPS = 0.125
DUAL_EPS = (0.05, 0.3)
#: Tie inputs and their ranges: the distance of lattice offsets (1, 2)
#: and (1, 1, 2), a quarter apart.
TIES_EPS = {"ties2d": 0.3125 ** 0.5, "ties3d": 0.375 ** 0.5}


def make_inputs(scale: float, path: Path) -> None:
    """Draw every cell's points with this checkout's generators."""
    from repro.datasets import load_dataset
    from repro.datasets.synthetic import gaussian_clusters, uniform_points

    def size(n: int) -> int:
        return max(20, int(n * scale))

    def lattice(n: int, d: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 24 if d == 2 else 10, size=(n // 2, d)) * 0.25
        return rows[rng.integers(0, len(rows), size=n)]

    centers = np.random.default_rng(11).random((12, 2))
    np.savez(
        path,
        mg_county=load_dataset("mg_county", size(2000), seed=0),
        sierpinski3d=load_dataset("sierpinski3d", size(2000), seed=0),
        uniform3d=uniform_points(size(1500), seed=0, dim=3),
        fig7=load_dataset("sierpinski3d", size(4000), seed=1),
        clusters_a=gaussian_clusters(size(1800), seed=1, centers=centers),
        clusters_b=gaussian_clusters(size(1500), seed=2, centers=centers),
        ties2d=lattice(size(1200), 2, seed=3),
        ties3d=lattice(size(1000), 3, seed=4),
    )


def cells() -> list[dict]:
    """The matrix, as plain dicts a worker of either side can run."""
    out = []
    for data in ("mg_county", "sierpinski3d", "uniform3d"):
        for algorithm, g in SELF_ALGORITHMS:
            for eps in (0.01, 0.05):
                out.append(dict(kind="self", data=data, algorithm=algorithm, g=g,
                                eps=eps, fanout=64))
    for fanout in (8, 16):
        for algorithm, g in (("ncsj", 0), ("csj", 10)):
            out.append(dict(kind="self", data="fig7", algorithm=algorithm, g=g,
                            eps=FIG7_EPS, fanout=fanout))
    for eps in DUAL_EPS:
        for index, bulk in (("rstar", "str"), ("mtree", None)):
            for compact, g in ((False, 0), (True, 0), (True, 10)):
                out.append(dict(kind="dual", index=index, bulk=bulk, compact=compact,
                                g=g, eps=eps))
        for compact, g in ((False, 0), (True, 10)):
            out.append(dict(kind="hash", compact=compact, g=g, eps=eps))
    for data, eps in TIES_EPS.items():
        for algorithm in ("csj", "egrid-csj", "pbsm-csj"):
            out.append(dict(kind="ties", join="self", data=data, algorithm=algorithm,
                            g=10, eps=eps, fanout=8))
        out.append(dict(kind="ties", join="dual", data=data, index="rstar", bulk="str",
                        compact=True, g=10, eps=eps))
        out.append(dict(kind="ties", join="hash", data=data, compact=True, g=10,
                        eps=eps))
    for algorithm, g in (("ncsj", 0), ("csj", 10)):
        out.append(dict(kind="ckpt", algorithm=algorithm, g=g, eps=FIG7_EPS, fanout=8))
    return out


def name_of(cell: dict) -> str:
    return "/".join(f"{key}={value}" for key, value in cell.items())


# ---------------------------------------------------------------------------
# Worker side: runs under either checkout's src
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def int_stats(stats) -> dict:
    from dataclasses import fields

    values = {f.name: getattr(stats, f.name) for f in fields(stats)}
    return {name: v for name, v in values.items() if isinstance(v, int)}


def outcome(result, out: Path) -> dict:
    return {
        "sha256": sha256(out), "label": result.algorithm, "g": result.g,
        "stats": int_stats(result.stats),
    }


def run_checkpointed(cell: dict, pts: np.ndarray, out: Path) -> dict:
    """An uninterrupted run, then one resume after every journal record."""
    from repro import CheckpointedJoin

    def job() -> CheckpointedJoin:
        return CheckpointedJoin(
            pts, cell["eps"], str(out), algorithm=cell["algorithm"], g=cell["g"],
            max_entries=cell["fanout"],
        )

    first = job()
    row = outcome(first.run(), out)
    full = out.read_bytes()
    journal = Path(first.journal_path)
    lines = journal.read_bytes().splitlines(keepends=True)
    resumed = set()
    for kept in range(1, len(lines) + 1):
        journal.write_bytes(b"".join(lines[:kept]))
        out.write_bytes(full)
        again = outcome(job().run(resume=True), out)
        resumed.add(json.dumps(again, sort_keys=True))
    row["records"] = len(lines) - 1
    row["resumes_identical"] = resumed == {json.dumps(row_of(row), sort_keys=True)}
    return row


def row_of(row: dict) -> dict:
    """The compared part of a cell's outcome."""
    return {key: row[key] for key in ("sha256", "label", "g", "stats")}


def run_cell(cell: dict, data, out: Path) -> dict:
    from repro import (
        TextSink, similarity_join, spatial_hash_join, spatial_join_datasets,
    )
    from repro.io.writer import width_for

    kind = cell["kind"]
    if kind == "ckpt":
        return run_checkpointed(cell, data["fig7"], out)
    if kind == "ties":
        kind = cell["join"]
        pts = data[cell["data"]]
        a, b = pts[::2], pts[1::2]
    elif kind in ("dual", "hash"):
        a, b = data["clusters_a"], data["clusters_b"]
    else:
        pts = data[cell["data"]]
    if kind in ("dual", "hash"):
        width = width_for(max(len(a), len(b)))
    else:
        width = width_for(len(pts))
    with TextSink(str(out), id_width=width) as sink:
        if kind == "self":
            result = similarity_join(
                pts, cell["eps"], algorithm=cell["algorithm"], g=cell["g"],
                max_entries=cell["fanout"], sink=sink,
            )
        elif kind == "dual":
            result = spatial_join_datasets(
                a, b, cell["eps"], compact=cell["compact"], g=cell["g"],
                index=cell["index"], max_entries=8, bulk=cell["bulk"], sink=sink,
            )
        else:
            result = spatial_hash_join(
                a, b, cell["eps"], compact=cell["compact"], g=cell["g"], sink=sink,
            )
    return outcome(result, out)


def worker(inputs: str, cells_path: str) -> None:
    data = np.load(inputs)
    matrix = json.loads(Path(cells_path).read_text())
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        out = Path(tmp) / "out.txt"
        for cell in matrix:
            row = run_cell(cell, data, out)
            print(json.dumps({"cell": name_of(cell), **row}), flush=True)
            for leftover in Path(tmp).iterdir():
                leftover.unlink()


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def start(src: str, inputs: Path, cells_path: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen(
        [sys.executable, __file__, "--worker", str(inputs), str(cells_path)],
        env=env, stdout=subprocess.PIPE, text=True,
    )


def collect(proc: subprocess.Popen, side: str) -> dict:
    stdout, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"{side} worker failed with exit status {proc.returncode}")
    rows = (json.loads(line) for line in stdout.splitlines() if line.startswith("{"))
    return {row.pop("cell"): row for row in rows}


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker(*sys.argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="src directory of the checkout to compare with")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier of every input size")
    parser.add_argument("--json", help="write the per-cell report here")
    args = parser.parse_args()

    sides = {"change": str(ROOT / "src")}
    if args.baseline:
        sides["baseline"] = str(Path(args.baseline).resolve())
    matrix = cells()
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        inputs = Path(tmp) / "inputs.npz"
        cells_path = Path(tmp) / "cells.json"
        make_inputs(args.scale, inputs)
        cells_path.write_text(json.dumps(matrix))
        procs = {side: start(src, inputs, cells_path) for side, src in sides.items()}
        results = {side: collect(proc, side) for side, proc in procs.items()}

    failures = []
    for cell in matrix:
        name = name_of(cell)
        rows = {side: results[side].get(name) for side in sides}
        problems = [side for side, row in rows.items() if row is None]
        if not problems:
            if len({json.dumps(row_of(row), sort_keys=True) for row in rows.values()}) > 1:
                problems.append("sides differ")
            problems += [
                f"{side} resume differs" for side, row in rows.items()
                if row.get("resumes_identical") is False
            ]
        status = "FAIL " + ", ".join(problems) if problems else "ok"
        change = rows["change"]
        extra = f"  records {change['records']}" if change and "records" in change else ""
        print(f"  {status:4s} {name}{extra}")
        if problems:
            failures.append({"cell": name, "problems": problems, "rows": rows})
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"cells": len(matrix), "sides": sides, "scale": args.scale,
             "failures": failures, "results": results}, indent=2) + "\n")
    if failures:
        print(f"FAIL: {len(failures)} of {len(matrix)} cells differ")
        return 1
    print(f"PASS: {len(matrix)} cells identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
