#!/usr/bin/env python
"""Fault-injection demos: crash a join, recover it, verify exactness.

Five scenarios, selected with ``--scenario``:

``sink`` (default)
    The original demo: a checkpointed serial join whose sink fails on a
    seeded schedule — every crash is survived by resuming from the
    journal.

``worker``
    A parallel join whose worker processes are SIGKILLed on chosen
    tasks; the supervisor respawns them and retries, and the output is
    still byte-identical to the serial run.

``kill``
    A checkpointed join's process group is SIGKILLed as soon as its
    journal holds a first checkpoint record — no cleanup, no flush —
    then resumed from the journal, and the recovered file is
    byte-identical to the uninterrupted reference.

``disk``
    The disk fills mid-join (an injected ``ENOSPC`` at the sink).  The
    retry wrapper classifies the errno and fails *fast* with
    :class:`~repro.errors.DiskFullError` (exit code 8) instead of
    burning its retry budget on an unfixable error — leaving the
    checkpoint journal resumable.  "Space is freed", the run resumes,
    and the output is byte-identical.

``overload``
    A different failure axis: a seeded request storm at 4x the serving
    layer's capacity.  The bounded queue sheds typed
    (:class:`~repro.errors.AdmissionRejectedError`, exit code 9),
    pressure degrades requests to estimator answers marked
    ``degraded=True``, an injected pool failure trips the circuit
    breaker (:class:`~repro.errors.CircuitOpenError`, exit code 10),
    and a post-cooldown probe heals it.

Every recovery scenario ends with the same verification pass:
byte-identical output and an expanded link set equal to the brute-force
join (Theorems 1 and 2 across a crash).  The overload scenario instead
verifies the serving contract: one typed outcome per request, bounded
queue, healed breaker.

Usage::

    PYTHONPATH=src python scripts/chaos_demo.py
        [--scenario sink|worker|kill|disk|overload] [--seed 7] [--n 2000]
"""

import argparse
import filecmp
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.api import similarity_join
from repro.core.results import TextSink
from repro.core.verify import brute_force_links
from repro.io.writer import width_for
from repro.resilience.chaos import FailurePlan, FlakySink, FlakyWorker
from repro.resilience.checkpoint import CheckpointedJoin


def _reference_run(pts, eps, path):
    sink = TextSink(path, id_width=width_for(len(pts)))
    similarity_join(pts, eps, algorithm="csj", g=10, sink=sink)
    sink.close()
    print(f"reference run  : {os.path.getsize(path)} bytes -> {path}")


def _verify(pts, eps, reference, recovered, result):
    identical = filecmp.cmp(reference, recovered, shallow=False)
    exact = brute_force_links(pts, eps)
    lossless = result.expanded_links() == exact
    print(f"byte-identical : {identical}")
    print(f"links lossless : {lossless} ({len(exact)} pairs vs brute force)")
    if identical and lossless:
        print("PASS: recovery is exact")
        return 0
    print("FAIL: recovered output diverges")
    return 1


def _scenario_sink(args, pts, reference, recovered):
    """Seeded sink failures in a serial checkpointed run."""
    crashes = 0
    while True:
        plan = FailurePlan(seed=args.seed + crashes, rate=args.rate)
        job = CheckpointedJoin(
            pts, args.eps, recovered, algorithm="csj", g=10, cadence=64,
            sink_wrapper=lambda inner: FlakySink(inner, plan),
        )
        try:
            result = job.run(resume=crashes > 0)
            break
        except OSError as exc:
            crashes += 1
            print(f"  crash #{crashes:<2d}     : {exc} -- resuming")
            if crashes >= 200:
                print("chaos run      : FAILED (no forward progress)")
                return 1
    print(f"chaos run      : survived {crashes} injected crash(es)")
    return _verify(pts, args.eps, reference, recovered, result)


def _scenario_worker(args, pts, reference, recovered):
    """SIGKILL individual workers mid-task; the supervisor recovers."""
    from repro.parallel import parallel_join

    fault = FlakyWorker(kill_at=(1, 3), seed=args.seed, max_failures=2)
    sink = TextSink(recovered, id_width=width_for(len(pts)))
    result = parallel_join(
        pts, args.eps, algorithm="csj", g=10, workers=2, sink=sink,
        fault=fault,
    )
    sink.close()
    print("chaos run      : workers SIGKILLed on tasks 1 and 3; "
          "pool respawned and retried")
    return _verify(pts, args.eps, reference, recovered, result)


def _scenario_kill(args, pts, reference, recovered):
    """SIGKILL a checkpointed run mid-join; resume it from the journal."""
    journal = recovered + ".journal"
    code = (
        "import numpy as np\n"
        "from repro.resilience.checkpoint import CheckpointedJoin\n"
        f"pts = np.random.default_rng({args.seed}).random(({args.n}, 2))\n"
        f"CheckpointedJoin(pts, {args.eps}, {recovered!r}, algorithm='csj',"
        " g=10, cadence=4).run()\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        env=dict(os.environ),
        preexec_fn=os.setsid,  # own process group: one SIGKILL nukes all
    )
    # Wait for the first durable checkpoint record, then kill everything.
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        if os.path.exists(journal):
            with open(journal) as f:
                if sum(1 for _ in f) >= 2:  # header + at least one ckpt
                    break
        time.sleep(0.002)
    if proc.poll() is None:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        proc.wait()
        print("chaos run      : checkpointed join SIGKILLed mid-join")
    else:
        print("chaos run      : join finished before the kill landed "
              "(resume below is a no-op)")
    result = CheckpointedJoin(
        pts, args.eps, recovered, algorithm="csj", g=10, cadence=4,
    ).run(resume=True)
    print("resume         : journal replayed, run finished")
    return _verify(pts, args.eps, reference, recovered, result)


def _scenario_disk(args, pts, reference, recovered):
    """ENOSPC mid-join: fail fast with exit code 8, resume after 'cleanup'."""
    import errno

    from repro.errors import DiskFullError
    from repro.resilience.sinks import RetryingSink

    plan = FailurePlan(
        seed=args.seed, fail_at=(40,), errno=errno.ENOSPC, max_failures=1
    )

    def wrapper(inner):
        return RetryingSink(
            FlakySink(inner, plan), max_retries=4, sleep=lambda _s: None
        )

    job_kwargs = dict(algorithm="csj", g=10, cadence=16, sink_wrapper=wrapper)
    try:
        CheckpointedJoin(pts, args.eps, recovered, **job_kwargs).run()
        print("chaos run      : FAILED (the injected ENOSPC never fired)")
        return 1
    except DiskFullError as exc:
        print(f"disk full      : {exc}")
        print(f"exit code      : {exc.exit_code} (typed; errno="
              f"{errno.errorcode.get(exc.errno, exc.errno)}; "
              "0 retries burned)")
    print("cleanup        : space freed; resuming from the journal")
    result = CheckpointedJoin(pts, args.eps, recovered, **job_kwargs).run(
        resume=True
    )
    return _verify(pts, args.eps, reference, recovered, result)


def _scenario_overload(args, pts, reference, recovered):
    """Request storm at 4x capacity: shed typed (exit code 9), degrade
    marked, breaker opens on injected failures (exit code 10), heals."""
    from repro.errors import AdmissionRejectedError, CircuitOpenError
    from repro.resilience.chaos import OverloadInjector
    from repro.service import JoinRequest, JoinService, ServiceConfig

    chaos = OverloadInjector(args.seed, slow_every=3, slow_seconds=0.03,
                             fail_at=(0,), failure="pool")
    config = ServiceConfig(queue_depth=3, default_deadline=5.0,
                           breaker_threshold=1, breaker_cooldown_base=0.02,
                           breaker_cooldown_max=0.1, seed=args.seed)
    base = pts[:600]
    service = JoinService(config, chaos=chaos)
    total = 0
    try:
        # Phase 1: a storm at 4x capacity -- bounded queue sheds, typed.
        # Request 0 carries the chaos pool-failure mark; it is held back
        # for phase 3 so the breaker trip is isolated from the storm.
        full = chaos.storm(base, args.eps * 2, requests=16,
                           deadline_seconds=5.0)
        storm = full[1:]
        outcomes = service.serve(storm)
        total += len(storm)
        print(f"storm          : {len(storm)} requests vs queue bound "
              f"{config.queue_depth} + 1 executor (4x capacity)")
        for outcome in outcomes:
            extra = ""
            if outcome.status == "shed":
                extra = (f" (AdmissionRejectedError, exit code "
                         f"{AdmissionRejectedError.exit_code}, "
                         f"Retry-After {outcome.retry_after:.2f}s)")
            elif outcome.status == "degraded":
                extra = " (estimator answer, degraded=True)"
            print(f"  {outcome.request_id:<12s}: {outcome.status}{extra}")
        print(f"peak queue     : {service.peak_queue}/{config.queue_depth}")

        # Phase 2: an impossible deadline -- degrade, never fail.
        hopeless = service.submit(
            JoinRequest(points=base, eps=args.eps * 2, deadline_seconds=1e-6,
                        request_id="hopeless")
        ).wait(60.0)
        total += 1
        print(f"tight deadline : {hopeless.request_id} -> {hopeless.status} "
              f"(estimator answer, degraded=True, "
              f"~{hopeless.result.stats.links_emitted} links predicted)")

        # Phase 3: the chaos-marked request fails the pool -- the
        # breaker opens, the next request fails fast, a probe heals it.
        tripped = service.submit(full[0]).wait(60.0)
        total += 1
        print(f"pool failure   : {tripped.request_id} -> {tripped.status} "
              f"(dependency down; circuit {service.pool_breaker.state})")
        fast = None
        try:
            service.submit(JoinRequest(points=base, eps=args.eps * 2,
                                       request_id="while-open"))
        except CircuitOpenError as exc:
            fast = exc
            total += 1
        print(f"while open     : while-open -> breaker_open "
              f"(CircuitOpenError, exit code {CircuitOpenError.exit_code}, "
              f"Retry-After {fast.retry_after:.2f}s)" if fast else
              "while open     : MISSING fast failure")
        time.sleep(0.3)  # let the cooldown expire
        probe = service.submit(
            JoinRequest(points=base, eps=args.eps * 2, request_id="probe")
        ).wait(60.0)
        total += 1
        print(f"breaker probe  : {probe.status} "
              f"(circuit {service.pool_breaker.state})")
        counts = service.counts()
    finally:
        service.close()
    print(f"outcomes       : {counts}")
    one_each = sum(counts.values()) == total
    bounded = service.peak_queue <= config.queue_depth
    ladder_ok = (counts["shed"] > 0 and counts["degraded"] >= 2
                 and counts["breaker_open"] == 1 and counts["failed"] == 0)
    healed = probe.status == "admitted" and fast is not None
    if one_each and bounded and ladder_ok and healed:
        print("PASS: bounded queue, typed outcomes, breaker healed")
        return 0
    print("FAIL: overload contract violated")
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="sink",
                        choices=["sink", "worker", "kill", "disk", "overload"],
                        help="which failure mode to inject")
    parser.add_argument("--seed", type=int, default=7, help="chaos seed")
    parser.add_argument("--n", type=int, default=2000, help="points")
    parser.add_argument("--eps", type=float, default=0.03, help="query range")
    parser.add_argument("--rate", type=float, default=0.003,
                        help="per-write failure probability (sink scenario)")
    args = parser.parse_args()

    pts = np.random.default_rng(args.seed).random((args.n, 2))
    workdir = tempfile.mkdtemp(prefix="chaos_demo_")
    reference = os.path.join(workdir, "reference.txt")
    recovered = os.path.join(workdir, "recovered.txt")

    print(f"scenario       : {args.scenario}")
    print(f"dataset        : {args.n} uniform points, eps={args.eps:g}")
    if args.scenario != "overload":
        # The overload scenario verifies serving outcomes, not recovery
        # of one long run; it needs no offline reference file.
        _reference_run(pts, args.eps, reference)

    runner = {
        "sink": _scenario_sink,
        "worker": _scenario_worker,
        "kill": _scenario_kill,
        "disk": _scenario_disk,
        "overload": _scenario_overload,
    }[args.scenario]
    return runner(args, pts, reference, recovered)


if __name__ == "__main__":
    sys.exit(main())
