#!/usr/bin/env python3
"""Steadiness check of the benchmark: per-seed spread of every metric.

Run from the repository root::

    python3 perfbench/steady.py --seeds 10                 # every workload
    python3 perfbench/steady.py --seeds 5 --workloads served-churn
    python3 perfbench/steady.py --seeds 10 --sets 2        # and compare medians

Each run is ``run.py --trace 0`` with its own seed.  For every end-to-end
metric of BENCHMARK.json this prints the median of the per-seed values
and their spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, host-normalised and raw, next to
the metric's bound.  The aim is a normalised spread under a third of the
bound (set-up time excepted).  With ``--sets 2`` the second set runs on
other seeds and the change of each median is shown; it must not be worse
by more than the bound.  Seeds form the outer loop, so host drift spreads
over every workload.  The table is also written to
``perfbench/.runs/steady.json``.  Exit status 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"


def spread(values: list) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    report = json.loads((RUNS / f"{workload}-seed{seed}-trace0.json").read_text())
    return report["metrics"]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    names = [m["name"] for m in bench["end_to_end"]]

    sets = []
    for s in range(args.sets):
        values = {w: {n: {"norm": [], "raw": []} for n in names} for w in workloads}
        for i in range(args.seeds):
            seed = args.first_seed + 100 * s + i
            for w in workloads:
                metrics = run_once(w, seed, args.seconds)
                for n in names:
                    m = metrics[n]
                    values[w][n]["norm"].append(m["value"])
                    values[w][n]["raw"].append(m["value"] if m["raw"] is None else m["raw"])
                print(f"steady: set {s + 1} seed {seed} {w} done", file=sys.stderr)
        sets.append(values)

    ok = True
    rows = []
    print(f"{'workload':16s} {'metric':12s} {'bound':>5s} set {'median':>12s} "
          f"{'spread':>7s} {'raw med':>12s} {'raw spr':>7s} change")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, values in enumerate(sets):
                med, spr = spread(values[w][name]["norm"])
                raw_med, raw_spr = spread(values[w][name]["raw"])
                passed = name == "setup_s" or spr <= bound / 3
                change = None
                if first_median is None:
                    first_median = med
                else:
                    change = (med - first_median) / first_median
                    worse = -change if m["better"] == "higher" else change
                    passed = passed and worse <= bound
                ok = ok and passed
                rows.append({"workload": w, "metric": name, "set": s + 1, "median": med,
                             "spread": spr, "raw_median": raw_med, "raw_spread": raw_spr,
                             "change": change, "bound": bound, "passed": passed})
                shown = "" if change is None else f"{change:+.1%}"
                print(f"{w:16s} {name:12s} {bound:5.2f} {s + 1:3d} {med:12.6g} {spr:7.1%} "
                      f"{raw_med:12.6g} {raw_spr:7.1%} {shown}"
                      f"{'' if passed else '  <-- over'}")
    RUNS.mkdir(parents=True, exist_ok=True)
    (RUNS / "steady.json").write_text(
        json.dumps({"args": vars(args), "rows": rows, "values": sets}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
