#!/usr/bin/env python
"""Crash-consistency gate: explore every post-crash disk state, verify recovery.

For each cell of a (algorithm × sink-protocol) matrix this script runs a
small join under the interposing filesystem
(:class:`~repro.resilience.vfs.TraceFS`), records the complete durable
write-op trace, reconstructs every legal post-crash disk state the trace
admits (op prefixes × {full, durable, torn} — see
:mod:`repro.resilience.crashsim`), and runs the component's recovery
path on each state:

* ``checkpoint`` — :class:`CheckpointedJoin` resume must reproduce the
  uninterrupted run's output byte-for-byte from every state (falling
  back to a typed-and-detected fresh restart when the crash predates a
  resumable journal);
* ``atomic`` — :class:`AtomicTextSink`'s destination must hold the old
  content or the complete new output in every state, never a torn
  hybrid.

An index-persistence workload (atomic :func:`save_index` /
:func:`load_index` round trip) rides along.  The run fails — exit 1 —
if any state recovers wrongly, if fewer than ``--min-states`` distinct
disk states were explored in total, or if any atomic-sink cell explored
fewer than :data:`MIN_ATOMIC_STATES` (a regression in trace coverage is
also a bug: an output written in one or two writes leaves atomic
publication nearly unexercised).

Usage::

    PYTHONPATH=src python scripts/verify_crash_consistency.py
        [--n 1000] [--eps 0.15] [--max-states-per-cell 80]
        [--min-states 200] [--json report.json]
"""

import argparse
import json
import sys

import numpy as np

from repro.resilience.crashsim import (
    verify_atomic_sink,
    verify_checkpointed_join,
    verify_index_save,
)

ALGORITHMS = ("ssj", "csj", "egrid")
#: Fewest distinct states each atomic-sink cell must explore.
MIN_ATOMIC_STATES = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000, help="points per run")
    parser.add_argument("--eps", type=float, default=0.15, help="query range")
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument("--cadence", type=int, default=2,
                        help="checkpoint cadence (small = many barriers)")
    parser.add_argument("--max-states-per-cell", type=int, default=80,
                        help="cap on states verified per matrix cell")
    parser.add_argument("--min-states", type=int, default=200,
                        help="fail if fewer distinct states explored in total")
    parser.add_argument("--json", default=None,
                        help="write the report as JSON to this path")
    args = parser.parse_args()

    pts = np.random.default_rng(args.seed).random((args.n, 2))
    reports = []

    import tempfile

    thin_cells = []

    def run(label, fn, **kwargs):
        with tempfile.TemporaryDirectory(prefix="crashgate_") as workdir:
            report = fn(workdir=workdir, max_states=args.max_states_per_cell,
                        **kwargs)
        reports.append(report)
        if fn is verify_atomic_sink and report.states_verified < MIN_ATOMIC_STATES:
            thin_cells.append(f"{label} ({report.states_verified})")
        status = "ok" if report.ok else "FAIL"
        print(f"{label:<28s} ops={report.ops:<5d} "
              f"states={report.states_verified:<4d} "
              f"resume={report.recovered_resume:<4d} "
              f"restart={report.recovered_restart:<3d} {status}")
        for failure in report.failures:
            print(f"    {failure}")

    print(f"dataset: {args.n} uniform points (seed {args.seed}), "
          f"eps={args.eps:g}\n")
    for algorithm in ALGORITHMS:
        run(f"checkpoint/{algorithm}", verify_checkpointed_join,
            points=pts, eps=args.eps, algorithm=algorithm,
            cadence=args.cadence)
        run(f"atomic-sink/{algorithm}", verify_atomic_sink,
            points=pts, eps=args.eps, algorithm=algorithm)
    run("index-save/rstar", verify_index_save, points=pts)

    total_states = sum(r.states_verified for r in reports)
    total_failures = sum(len(r.failures) for r in reports)
    verdict = "PASS" if (
        total_failures == 0 and total_states >= args.min_states and not thin_cells
    ) else "FAIL"
    print(f"\ntotal: {total_states} distinct post-crash disk states across "
          f"{len(reports)} workloads, {total_failures} recovery failure(s)")
    if total_states < args.min_states:
        print(f"coverage regression: explored {total_states} states, "
              f"gate requires >= {args.min_states}")
    if thin_cells:
        print(f"coverage regression: atomic-sink cells below "
              f"{MIN_ATOMIC_STATES} states: {', '.join(thin_cells)}")
    print(verdict)

    if args.json:
        payload = {
            "n": args.n,
            "eps": args.eps,
            "seed": args.seed,
            "min_states": args.min_states,
            "min_atomic_states": MIN_ATOMIC_STATES,
            "total_states": total_states,
            "total_failures": total_failures,
            "verdict": verdict,
            "workloads": [r.as_dict() for r in reports],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")

    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
