#!/usr/bin/env python
"""Overload gate: storm the serving layer, audit every promise it makes.

Drives :class:`~repro.service.JoinService` with a seeded request storm
sized at a multiple of its admission capacity (queue bound × executors),
with deterministic chaos injection (slow dependencies browning the
service out, plus injected pool failures tripping the circuit breaker),
and verifies the serving contract:

* **exactly one typed outcome per request** — the outcome partition
  (admitted / degraded / shed / breaker_open / failed) sums to the
  request count, nothing lands in ``failed``, and every
  ``repro_service_*_total`` counter matches the audit trail;
* **admitted answers are byte-identical** — every request the service
  answered exactly is rerun offline (the storm is seed-reproducible)
  and must produce the same links, group pairs and byte count;
* **degraded answers are marked** — ``degraded=True`` and
  ``estimated=True``, with the estimator's predicted counters;
* **bounded queue** — the waiting queue's high-water mark never
  exceeds the configured bound;
* **bounded memory** — RSS growth across consecutive storm waves stays
  under a threshold (an unbounded queue or leaked per-request state
  shows up here);
* **breaker round trip** — injected pool failures open the circuit,
  requests then fail fast (typed, counted), and a post-cooldown probe
  closes it again.

Exit 0 when every check passes, 1 otherwise.  ``--json`` writes the
full report for CI artifact upload.

Usage::

    PYTHONPATH=src python scripts/verify_overload.py
        [--n 600] [--eps 0.05] [--seed 0] [--workers 1]
        [--queue-depth 3] [--storm-factor 4] [--waves 3]
        [--json report.json]
"""

import argparse
import json
import resource
import sys
import time

import numpy as np

from repro.api import similarity_join
from repro.errors import CircuitOpenError
from repro.obs.metrics import get_registry, reset_registry
from repro.resilience.chaos import OverloadInjector
from repro.service import OUTCOMES, JoinRequest, JoinService, ServiceConfig


def check(report, name, ok, detail=""):
    report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
    print(f"  {'ok  ' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail else ""))
    return bool(ok)


def run_storm_wave(args, wave, report):
    """One storm at ``storm-factor`` × capacity; returns True if clean."""
    reset_registry()
    pts = np.random.default_rng(args.seed + wave).random((args.n, 2))
    chaos = OverloadInjector(
        seed=args.seed + wave, slow_every=3, slow_seconds=args.slow_ms / 1000.0
    )
    config = ServiceConfig(
        queue_depth=args.queue_depth,
        executors=args.executors,
        workers=args.workers,
        default_deadline=args.deadline_ms / 1000.0,
        seed=args.seed,
    )
    capacity = config.queue_depth + config.executors
    n_requests = capacity * args.storm_factor
    service = JoinService(config, chaos=chaos)
    try:
        requests = chaos.storm(
            pts, args.eps, requests=n_requests,
            deadline_seconds=args.deadline_ms / 1000.0,
        )
        outcomes = service.serve(requests)
        peak = service.peak_queue
        counts = service.counts()
    finally:
        service.close()

    ok = True
    wave_label = f"wave {wave}"
    print(f"{wave_label}: {n_requests} requests at {args.storm_factor}x capacity "
          f"-> {counts}")
    report["waves"].append({"wave": wave, "requests": n_requests,
                            "counts": counts, "peak_queue": peak})

    # One typed outcome per request, in order, none of them "failed".
    ok &= check(report, f"{wave_label}: one outcome per request",
                len(outcomes) == n_requests
                and [o.request_id for o in outcomes]
                == [r.request_id for r in requests])
    ok &= check(report, f"{wave_label}: all outcomes typed",
                all(o.status in OUTCOMES for o in outcomes))
    ok &= check(report, f"{wave_label}: nothing failed",
                counts["failed"] == 0, f"failed={counts['failed']}")
    ok &= check(report, f"{wave_label}: partition sums",
                sum(counts.values()) == n_requests)

    # Counters match the audit trail exactly.
    snap = get_registry().snapshot()
    counter_ok = all(
        snap.get(f"repro_service_{status}_total", 0) == n
        for status, n in counts.items()
    )
    ok &= check(report, f"{wave_label}: metrics match audit trail", counter_ok)

    # The waiting queue respected its bound.
    ok &= check(report, f"{wave_label}: queue bounded",
                peak <= config.queue_depth,
                f"peak={peak} bound={config.queue_depth}")

    # Storm pressure actually exercised the ladder.
    ok &= check(report, f"{wave_label}: storm shed something",
                counts["shed"] > 0, f"shed={counts['shed']}")
    ok &= check(report, f"{wave_label}: storm admitted something",
                counts["admitted"] + counts["degraded"] > 0)

    # Admitted answers byte-identical to offline reruns of the same
    # seeded requests; degraded answers carry their quality mark.
    by_id = {r.request_id: r for r in requests}
    mismatches = 0
    admitted_checked = 0
    for outcome in outcomes:
        if outcome.status == "admitted":
            request = by_id[outcome.request_id]
            offline = similarity_join(
                request.points, request.eps,
                algorithm=request.algorithm, g=request.g,
            )
            admitted_checked += 1
            if (outcome.result.links != offline.links
                    or outcome.result.group_pairs != offline.group_pairs
                    or outcome.result.stats.bytes_written
                    != offline.stats.bytes_written):
                mismatches += 1
        elif outcome.status == "degraded":
            if not (outcome.result is not None
                    and outcome.result.degraded
                    and outcome.result.estimated):
                mismatches += 1
    ok &= check(report, f"{wave_label}: admitted byte-identical offline",
                mismatches == 0,
                f"checked={admitted_checked} mismatches={mismatches}")
    return ok


def run_degrade_wave(args, report):
    """Tight deadlines under stalls: requests must degrade, not fail."""
    reset_registry()
    pts = np.random.default_rng(args.seed + 99).random((args.n, 2))
    chaos = OverloadInjector(
        seed=args.seed + 99, slow_every=2, slow_seconds=0.05
    )
    config = ServiceConfig(
        queue_depth=args.queue_depth,
        executors=1,
        workers=args.workers,
        default_deadline=0.04,  # thinner than the injected stall
        seed=args.seed,
    )
    service = JoinService(config, chaos=chaos)
    try:
        requests = chaos.storm(
            pts, args.eps, requests=args.queue_depth + 1,
            deadline_seconds=0.04,
        )
        outcomes = service.serve(requests)
        counts = service.counts()
    finally:
        service.close()
    ok = True
    print(f"degrade wave -> {counts}")
    report["waves"].append({"wave": "degrade", "counts": counts})
    ok &= check(report, "degrade wave: nothing failed", counts["failed"] == 0)
    ok &= check(report, "degrade wave: deadline pressure degraded requests",
                counts["degraded"] > 0, f"degraded={counts['degraded']}")
    marks_ok = all(
        o.result is not None and o.result.degraded and o.result.estimated
        and o.result.stats.links_emitted >= 0
        for o in outcomes if o.status == "degraded"
    )
    ok &= check(report, "degrade wave: degraded answers marked", marks_ok)
    return ok


def run_breaker_round_trip(args, report):
    """Injected pool failures must open, shed typed, then heal."""
    reset_registry()
    pts = np.random.default_rng(args.seed).random((args.n, 2))
    chaos = OverloadInjector(seed=args.seed, fail_at=(0, 1))
    config = ServiceConfig(
        queue_depth=args.queue_depth,
        executors=1,
        workers=args.workers,
        breaker_threshold=2,
        breaker_cooldown_base=0.02,
        breaker_cooldown_max=0.1,
        seed=args.seed,
    )
    service = JoinService(config, chaos=chaos)
    ok = True
    try:
        requests = chaos.storm(pts, args.eps, requests=2)
        outcomes = service.serve(requests)
        ok &= check(report, "breaker: failing dependency degrades requests",
                    all(o.status == "degraded" for o in outcomes))
        ok &= check(report, "breaker: circuit opened at threshold",
                    service.pool_breaker.state == "open")
        fast_failed = False
        try:
            service.submit(JoinRequest(points=pts, eps=args.eps,
                                       request_id="while-open"))
        except CircuitOpenError as exc:
            fast_failed = exc.exit_code == 10
        ok &= check(report, "breaker: open circuit fails fast, typed",
                    fast_failed)
        ok &= check(report, "breaker: breaker_open counted",
                    service.counts()["breaker_open"] == 1)
        time.sleep(0.4)  # past the jittered cooldown
        probe = service.submit(
            JoinRequest(points=pts, eps=args.eps, request_id="probe")
        ).wait(60.0)
        ok &= check(report, "breaker: post-cooldown probe admitted",
                    probe.status == "admitted")
        ok &= check(report, "breaker: circuit closed by probe",
                    service.pool_breaker.state == "closed")
    finally:
        service.close()
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=600, help="points per dataset")
    parser.add_argument("--eps", type=float, default=0.05, help="query range")
    parser.add_argument("--seed", type=int, default=0, help="storm seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per request (1 = serial)")
    parser.add_argument("--executors", type=int, default=1,
                        help="executor threads draining the queue")
    parser.add_argument("--queue-depth", type=int, default=3,
                        help="admission queue bound")
    parser.add_argument("--storm-factor", type=int, default=4,
                        help="storm size as a multiple of capacity")
    parser.add_argument("--waves", type=int, default=3,
                        help="consecutive storm waves (RSS must stay flat)")
    parser.add_argument("--deadline-ms", type=float, default=10_000.0,
                        help="per-request deadline")
    parser.add_argument("--slow-ms", type=float, default=30.0,
                        help="injected dependency stall")
    parser.add_argument("--rss-limit-mb", type=float, default=200.0,
                        help="max allowed RSS growth across waves")
    parser.add_argument("--json", default=None,
                        help="write the report as JSON to this path")
    args = parser.parse_args()

    report = {"config": vars(args).copy(), "checks": [], "waves": []}
    ok = True

    # Warm-up wave absorbs allocator/import noise, then measure growth.
    rss_before = None
    for wave in range(args.waves):
        ok &= run_storm_wave(args, wave, report)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if wave == 0:
            rss_before = rss_mb
    rss_growth = rss_mb - rss_before
    report["rss_growth_mb"] = rss_growth
    ok &= check(report, "rss bounded across waves",
                rss_growth <= args.rss_limit_mb,
                f"growth={rss_growth:.1f}MB limit={args.rss_limit_mb:.0f}MB")

    ok &= run_degrade_wave(args, report)
    ok &= run_breaker_round_trip(args, report)

    report["ok"] = bool(ok)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    print("overload gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
