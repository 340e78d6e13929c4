#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the repository root::

    python3 perfbench/smoke.py

Runs every workload untraced and traced at the ``tiny`` sizes of
spec.json and checks that each metric named in BENCHMARK.json is
reported with its unit, that the run-report metrics (join, read and
update latencies, failed_ratio) carry samples, that every layer metric
has samples on the workloads the layer map lists for it, and that every
correctness check passes.  Finally one served read goes out with
``deadline_seconds=1e-9``: it must come back degraded and be counted in
``failed_ratio``.  Exits non-zero on any problem.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def check_run(name: str, trace: bool, res: dict, problems: list) -> None:
    where = f"{name} trace={int(trace)}"
    if not res["correct"]:
        problems.append(f"{where}: correctness checks failed: {res['checks']}")
    if res["failed"]:
        problems.append(f"{where}: {res['failed']} failed operations: {res['errors']}")
    metrics = res["metrics"]
    wanted = bench.BENCH["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} in {got['unit']}, expected {m['unit']}")
        elif not trace and got["samples"] < 1:
            problems.append(f"{where}: {m['name']} has no samples")
    kind = bench.SPEC["workloads"][name]["kind"]
    for key in bench.SPEC["report_metrics"][kind]:
        if key not in metrics or metrics[key]["samples"] < 1:
            problems.append(f"{where}: report metric {key} missing or without samples")
    if trace:
        for layer in bench.SPEC["layers"]:
            if name not in layer["workloads"]:
                continue
            for key in layer["metrics"]:
                if metrics[key]["samples"] < 1:
                    problems.append(f"{where}: {key} ({layer['layer']}) has no samples")


def main() -> int:
    repro = bench.import_program()
    problems: list[str] = []
    try:
        for name in bench.SPEC["workloads"]:
            for trace in (False, True):
                res = bench.run_workload(repro, name, seed=7, seconds=0.5,
                                         trace=trace, tiny=True)
                check_run(name, trace, res, problems)
                print(f"smoke: {name} trace={int(trace)}: {res['attempted']} ops")
        served = next(n for n, c in bench.SPEC["workloads"].items() if c["kind"] == "served")
        res = bench.run_workload(repro, served, seed=7, seconds=0.5, trace=False,
                                 tiny=True, probe_degraded=True)
        failed_ratio = res["metrics"]["failed_ratio"]["value"]
        if res["failed"] != 1 or abs(failed_ratio - 1 / res["attempted"]) > 1e-12:
            problems.append(
                f"degraded probe: failed={res['failed']} failed_ratio={failed_ratio} "
                f"attempted={res['attempted']}; expected exactly the probe counted")
    finally:
        bench.stop_resource_tracker()
    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: PASS" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
