#!/usr/bin/env python
"""CI gate for the observability layer.

Runs a small join through the real CLI entry point with every
observability flag enabled -- serial and with ``--workers 2`` -- then
fails loudly if any artifact is missing, empty, or unparseable:

* every stderr line must be a JSON object (``--log-json`` purity),
* exactly one ``run summary`` event per run,
* the trace file must parse and contain at least one span,
* the metrics snapshot must parse and its ``repro_join_*`` counters
  must equal the counters reported in the run summary,
* deterministic counters must agree between worker counts,
* stdout must stay empty.

Usage: ``PYTHONPATH=src python scripts/verify_observability.py [--n 400]``
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

CHECK_FIELDS = (
    "links_emitted",
    "groups_emitted",
    "bytes_written",
    "early_stops",
    "distance_computations",
    "nodes_visited",
    "node_pairs_visited",
    "mbr_checks",
)


def fail(message: str) -> None:
    print(f"verify_observability: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def make_dataset(path: str, n: int) -> None:
    import numpy as np

    np.savetxt(path, np.random.default_rng(42).random((n, 2)))


def run_join(pts: str, workdir: str, workers: int) -> dict:
    """Run one instrumented join; return its parsed artifacts."""
    tag = f"w{workers}"
    out = os.path.join(workdir, f"{tag}.out.txt")
    trace = os.path.join(workdir, f"{tag}.trace.jsonl")
    metrics = os.path.join(workdir, f"{tag}.metrics.json")
    argv = [
        sys.executable, "-m", "repro.cli", "join",
        "--input", pts, "--eps", "0.1", "--algorithm", "csj",
        "--output", out, "--log-json", "--trace", trace,
        "--metrics-out", metrics,
    ]
    if workers > 1:
        argv += ["--workers", str(workers)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{tag}: exit code {proc.returncode}\n{proc.stderr}")
    if proc.stdout:
        fail(f"{tag}: stdout not empty under --log-json: {proc.stdout!r}")

    log_records = []
    for lineno, line in enumerate(proc.stderr.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            fail(f"{tag}: stderr line {lineno} is not JSON: {line!r}")
        if not isinstance(record, dict):
            fail(f"{tag}: stderr line {lineno} is not an object")
        log_records.append(record)
    if not log_records:
        fail(f"{tag}: no log records on stderr")

    summaries = [r for r in log_records if r.get("event") == "run summary"]
    if len(summaries) != 1:
        fail(f"{tag}: expected 1 'run summary' event, got {len(summaries)}")

    if not os.path.exists(trace):
        fail(f"{tag}: trace file missing")
    trace_records = []
    with open(trace, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                span = json.loads(line)
            except json.JSONDecodeError:
                fail(f"{tag}: trace line {lineno} is not JSON")
            missing = {"name", "path", "ts", "dur", "depth"} - span.keys()
            if missing:
                fail(f"{tag}: trace line {lineno} missing keys {missing}")
            trace_records.append(span)
    if not trace_records:
        fail(f"{tag}: trace file is empty")

    try:
        with open(metrics, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{tag}: metrics snapshot unreadable: {exc}")
    if not snapshot:
        fail(f"{tag}: metrics snapshot is empty")

    summary = summaries[0]
    for field in CHECK_FIELDS:
        metric = snapshot.get(f"repro_join_{field}_total")
        reported = summary.get(field)
        if metric != reported:
            fail(
                f"{tag}: metric repro_join_{field}_total={metric} "
                f"!= run summary {field}={reported}"
            )

    return {
        "tag": tag,
        "output": open(out, "rb").read(),
        "summary": summary,
        "snapshot": snapshot,
        "trace": trace_records,
        "trace_path": trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=400,
                        help="dataset size (default 400)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        pts = os.path.join(workdir, "pts.txt")
        make_dataset(pts, args.n)

        serial = run_join(pts, workdir, workers=1)
        parallel = run_join(pts, workdir, workers=2)

        if serial["output"] != parallel["output"]:
            fail("output bytes differ between --workers 1 and 2")
        for field in CHECK_FIELDS:
            a = serial["snapshot"][f"repro_join_{field}_total"]
            b = parallel["snapshot"][f"repro_join_{field}_total"]
            if a != b:
                fail(f"counter {field} differs: serial={a} parallel={b}")
        if parallel["snapshot"].get("repro_pool_spawns_total", 0) < 2:
            fail("parallel run did not report pool spawns")
        if not any(r["name"] == "descend" for r in serial["trace"]):
            fail("serial trace has no 'descend' span")

        # The trace summariser must accept both artifacts.
        for run in (serial, parallel):
            proc = subprocess.run(
                [sys.executable,
                 os.path.join(os.path.dirname(__file__), "trace_report.py"),
                 run["trace_path"]],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                fail(f"trace_report failed on {run['tag']}: {proc.stderr}")

    links = serial["summary"]["links_emitted"]
    groups = serial["summary"]["groups_emitted"]
    print(
        "verify_observability: OK "
        f"(links={links} groups={groups}, serial == --workers 2, "
        "all artifacts parseable)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
