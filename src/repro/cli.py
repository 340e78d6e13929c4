"""Command-line interface: ``python -m repro`` or the ``csj`` script.

Subcommands
-----------

``join``
    Run a similarity join over a generated dataset or a whitespace-
    separated coordinate file and write the compact output.

``experiment``
    Reproduce one of the paper's figures (``fig5``, ``fig6``, ``fig7``,
    ``fig8``, ``exp4``) or an ablation (``bulk``, ``capacity``,
    ``egrid``); prints a plain-text table of rows.

``serve``
    Drive a seeded request storm through the overload-resilient
    :class:`~repro.service.JoinService` (bounded admission queue,
    per-request deadlines, circuit breakers, brownout ladder) and print
    one outcome per request.

``update``
    Materialize a compact join and maintain it *incrementally* under a
    seeded insert/delete churn workload (no recomputation), optionally
    verifying expansion-equivalence against brute force.

``demo``
    The Figure 1 walk-through: seven points, eight links, three groups.

Examples::

    csj join --dataset mg_county -n 5000 --eps 0.05 --algorithm csj -g 10
    csj serve --dataset uniform -n 2000 --eps 0.04 --requests 32 \
        --queue-depth 8 --deadline-ms 500 --cache --repeats 2
    csj update --dataset uniform -n 2000 --eps 0.05 --updates 500 --verify
    csj experiment fig6
    csj demo
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    from repro.parallel.tasks import FAMILIES

    parser = argparse.ArgumentParser(
        prog="csj",
        description="Compact Similarity Joins (ICDE 2008) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    join = sub.add_parser("join", help="run a similarity join")
    source = join.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="generated dataset name")
    source.add_argument("--input", help="coordinate text file (one point per line)")
    join.add_argument("-n", type=int, default=10_000, help="points to generate")
    join.add_argument("--seed", type=int, default=0)
    join.add_argument("--eps", type=float, required=True, help="query range")
    join.add_argument(
        "--algorithm",
        default="csj",
        choices=list(FAMILIES),
    )
    join.add_argument("-g", type=int, default=10, help="CSJ merge window")
    join.add_argument("--index", default="rstar", choices=["rtree", "rstar", "mtree"])
    join.add_argument("--metric", default="euclidean")
    join.add_argument("--output", help="write the result file here")
    join.add_argument(
        "--verify", action="store_true", help="check losslessness vs brute force"
    )
    join.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="journal progress to PATH for crash-safe, resumable "
        "execution (requires --output)",
    )
    join.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted checkpointed run instead of starting over",
    )
    join.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="abort cleanly once this much wall-clock time has elapsed",
    )
    join.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        help="abort cleanly once the output exceeds N bytes "
        "(SSJ falls back to the analytic estimate instead)",
    )
    join.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON-lines logs on stderr (one object per "
        "line: timestamp, level, event, run context)",
    )
    join.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        metavar="LEVEL",
        help="enable plain (or, with --log-json, structured) logging at "
        "LEVEL: debug, info, warning or error",
    )
    join.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="record phase-level trace spans as JSON lines to PATH "
        "(default: OUTPUT.trace.jsonl next to --output, else "
        "csj.trace.jsonl); summarise with scripts/trace_report.py",
    )
    join.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="export the run's metrics snapshot to PATH on completion "
        "(Prometheus text if PATH ends in .prom/.txt, JSON otherwise)",
    )
    join.add_argument(
        "--progress",
        type=float,
        default=None,
        metavar="SECONDS",
        help="log a progress heartbeat (links/groups/bytes so far) every "
        "SECONDS while the join runs",
    )

    serve = sub.add_parser(
        "serve",
        help="serve a seeded request storm through the overload-resilient "
        "JoinService (admission control, deadlines, breakers, brownout)",
    )
    serve_source = serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument("--dataset", help="generated dataset name")
    serve_source.add_argument(
        "--input", help="coordinate text file (one point per line)"
    )
    serve.add_argument("-n", type=int, default=2000, help="points to generate")
    serve.add_argument(
        "--seed", type=int, default=0,
        help="seed for the dataset AND the request storm",
    )
    serve.add_argument("--eps", type=float, required=True, help="query range")
    serve.add_argument(
        "--algorithm",
        default="csj",
        choices=list(FAMILIES),
    )
    serve.add_argument("-g", type=int, default=10, help="CSJ merge window")
    serve.add_argument(
        "--requests", type=int, default=32,
        help="storm size (requests submitted back to back)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=8,
        help="admission queue bound; beyond it requests are shed with a "
        "Retry-After hint (typed AdmissionRejectedError, exit 9)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline in milliseconds, measured from "
        "submission (queue wait spends it) and propagated end-to-end; "
        "over-budget requests degrade to the analytic estimator answer",
    )
    serve.add_argument(
        "--executors", type=int, default=1,
        help="concurrent executor threads draining the queue",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="0 or 1 runs each cache miss in its executor thread; any "
        "value above 1 runs each miss whole in its own forked worker "
        "(at most --executors at once)",
    )
    serve.add_argument(
        "--cache", action="store_true",
        help="enable the ε-keyed result cache: repeat requests over the "
        "same dataset/parameters are served from memory (byte-identical, "
        "no tree descent), and under brownout a slightly-stale cached "
        "result is served before degrading to the estimator",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=64 * 1024 * 1024, metavar="B",
        help="result-cache byte budget (LRU eviction past it); only "
        "meaningful together with --cache",
    )
    serve.add_argument(
        "--repeats", type=int, default=1, metavar="R",
        help="serve the storm sequence R times in a row; every storm "
        "request is unique, so repeats are what exercise --cache hits",
    )
    serve.add_argument(
        "--slow-every", type=int, default=0, metavar="K",
        help="chaos: stall every K-th storm request before execution "
        "(deterministic slow-dependency brownout)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=50.0, metavar="MS",
        help="chaos: stall duration for --slow-every",
    )
    serve.add_argument(
        "--fail-at", type=int, nargs="*", default=(), metavar="I",
        help="chaos: inject a worker-pool failure on these storm request "
        "indices (feeds the pool circuit breaker)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print outcomes as JSON lines on stdout (summary object last)",
    )
    serve.add_argument(
        "--strict", action="store_true",
        help="exit with the typed code of the worst non-admitted outcome: "
        "10 if any request failed on an open circuit, else 9 if any was "
        "shed, else 0",
    )
    serve.add_argument(
        "--preload", action="store_true",
        help="register the dataset before the storm: build and pack its "
        "tree once and run every tree-join request over it, serial or "
        "pooled",
    )

    update = sub.add_parser(
        "update",
        help="materialize a compact join and maintain it incrementally "
        "under a seeded insert/delete churn workload (repro.dynamic)",
    )
    update_source = update.add_mutually_exclusive_group(required=True)
    update_source.add_argument("--dataset", help="generated dataset name")
    update_source.add_argument(
        "--input", help="coordinate text file (one point per line)"
    )
    update.add_argument("-n", type=int, default=2000, help="points to generate")
    update.add_argument(
        "--seed", type=int, default=0,
        help="seed for the dataset AND the churn workload",
    )
    update.add_argument("--eps", type=float, required=True, help="query range")
    update.add_argument("-g", type=int, default=10, help="CSJ merge window")
    update.add_argument(
        "--index", default="rstar", choices=["rtree", "rstar", "mtree"]
    )
    update.add_argument("--metric", default="euclidean")
    update.add_argument(
        "--updates", type=int, default=200, metavar="K",
        help="churn length: K interleaved point inserts/deletes",
    )
    update.add_argument(
        "--delete-fraction", type=float, default=0.5, metavar="F",
        help="probability in [0, 1] that a churn step deletes (vs inserts)",
    )
    update.add_argument(
        "--verify", action="store_true",
        help="after the churn, check expansion-equivalence of the "
        "maintained result against a brute-force join over the live "
        "points (nonzero exit on mismatch)",
    )
    update.add_argument(
        "--json", action="store_true",
        help="print the summary as one JSON object on stdout",
    )

    experiment = sub.add_parser("experiment", help="reproduce a paper artifact")
    experiment.add_argument(
        "name",
        choices=[
            "fig5", "fig6", "fig7", "fig8", "exp4",
            "bulk", "capacity", "egrid", "fractal", "postprocess",
        ],
    )
    experiment.add_argument(
        "--dataset", help="restrict fig5 to one dataset", default=None
    )
    experiment.add_argument("-n", type=int, default=None, help="override dataset size")
    experiment.add_argument("--iterations", type=int, default=1)

    cluster = sub.add_parser(
        "cluster",
        help="density-connectivity clusters from a compact join "
        "(Section IV-D downstream processing)",
    )
    cluster.add_argument("--dataset", required=True, help="generated dataset name")
    cluster.add_argument("-n", type=int, default=10_000)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--eps", type=float, required=True)
    cluster.add_argument("-g", type=int, default=10)
    cluster.add_argument(
        "--top", type=int, default=10, help="largest clusters to print"
    )

    sub.add_parser("demo", help="the paper's Figure 1 walk-through")
    return parser


def _load_points(args: argparse.Namespace) -> np.ndarray:
    if args.input:
        return np.loadtxt(args.input, dtype=float, ndmin=2)
    from repro.datasets import load_dataset

    return load_dataset(args.dataset, args.n, seed=args.seed)


def _write_metrics(path: str, registry) -> None:
    """Export the registry: Prometheus text by extension, else JSON."""
    if path.endswith((".prom", ".txt")):
        text = registry.to_prometheus()
    else:
        text = registry.to_json(indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _cmd_join(args: argparse.Namespace) -> int:
    import uuid

    from repro.api import similarity_join
    from repro.core.results import CollectSink, TextSink
    from repro.core.verify import check_equivalence
    from repro.errors import ReproError
    from repro.io.writer import width_for
    from repro.obs.logging import (
        configure_logging,
        get_logger,
        log_mode,
        reset_logging,
        run_context,
    )
    from repro.obs.metrics import get_registry, reset_registry
    from repro.obs.progress import ProgressHeartbeat
    from repro.obs.tracing import configure_tracing, disable_tracing
    from repro.resilience.budget import Budget
    from repro.stats.counters import JoinStats

    if args.resume and not args.checkpoint:
        raise SystemExit("csj join: --resume requires --checkpoint")
    if args.checkpoint and not args.output:
        raise SystemExit("csj join: --checkpoint requires --output")

    # Observability wiring.  Logging goes to stderr so stdout stays clean
    # for piped consumers; --progress implies a visible logger.
    configured_logging = False
    if args.log_json or args.log_level is not None:
        configure_logging(level=args.log_level or "info", json_lines=args.log_json)
        configured_logging = True
    elif args.progress is not None:
        configure_logging(level="info", json_lines=False)
        configured_logging = True
    logger = get_logger("cli")

    trace_path = None
    if args.trace is not None:
        trace_path = args.trace or (
            f"{args.output}.trace.jsonl" if args.output else "csj.trace.jsonl"
        )
        configure_tracing(trace_path)
    if args.metrics_out:
        reset_registry()  # this run's counters only, not leftover state

    budget = None
    if args.deadline is not None or args.max_bytes is not None:
        budget = Budget(
            deadline_seconds=args.deadline, max_output_bytes=args.max_bytes
        )

    points = _load_points(args)
    run_id = uuid.uuid4().hex[:12]
    heartbeat = None
    try:
        with run_context(run=run_id, algorithm=args.algorithm, eps=args.eps):
            logger.info(
                "join starting",
                extra={
                    "points": len(points),
                    "dim": int(points.shape[1]),
                    "index": args.index,
                    "g": args.g,
                },
            )
            if args.checkpoint:
                from repro.resilience.checkpoint import CheckpointedJoin

                live_stats = JoinStats()
                job = CheckpointedJoin(
                    points,
                    args.eps,
                    args.output,
                    algorithm=args.algorithm,
                    g=args.g,
                    index=args.index,
                    metric=args.metric,
                    journal_path=args.checkpoint,
                    budget=budget,
                    stats=live_stats,
                )
                if args.progress is not None:
                    heartbeat = ProgressHeartbeat(
                        live_stats, interval=args.progress
                    ).start()
                result = job.run(resume=args.resume)
            else:
                if args.output:
                    sink = TextSink(args.output, id_width=width_for(len(points)))
                else:
                    sink = CollectSink(id_width=width_for(len(points)))
                if args.progress is not None:
                    heartbeat = ProgressHeartbeat(
                        sink.stats, interval=args.progress
                    ).start()
                result = similarity_join(
                    points,
                    args.eps,
                    algorithm=args.algorithm,
                    g=args.g,
                    index=args.index,
                    metric=args.metric,
                    sink=sink,
                    budget=budget,
                )
                if args.output:
                    sink.close()
            if heartbeat is not None:
                heartbeat.stop()
                heartbeat = None

            stats = result.stats
            if args.metrics_out:
                registry = get_registry()
                registry.record_join_stats(stats)
                if budget is not None:
                    registry.record_budget(budget)
                _write_metrics(args.metrics_out, registry)

            summary = {
                "algorithm": result.algorithm,
                "points": len(points),
                "dim": int(points.shape[1]),
                "links_emitted": stats.links_emitted,
                "groups_emitted": stats.groups_emitted,
                "bytes_written": stats.bytes_written,
                "early_stops": stats.early_stops,
                "distance_computations": stats.distance_computations,
                "nodes_visited": stats.nodes_visited,
                "node_pairs_visited": stats.node_pairs_visited,
                "mbr_checks": stats.mbr_checks,
                "total_time_seconds": round(stats.total_time, 6),
                "compute_seconds": round(stats.compute_time, 6),
                "write_seconds": round(stats.write_time, 6),
                "estimated": bool(getattr(result, "estimated", False)),
            }
            if args.output:
                summary["output_file"] = args.output
            if args.checkpoint:
                summary["checkpoint"] = args.checkpoint
            if trace_path:
                summary["trace_file"] = trace_path
            if args.metrics_out:
                summary["metrics_file"] = args.metrics_out
            if log_mode() == "json":
                # JSON-lines mode: the summary is one structured event so
                # every stderr line stays machine-parseable.
                logger.info("run summary", extra=summary)
            else:
                err = sys.stderr
                print(f"algorithm      : {result.algorithm}", file=err)
                print(f"points         : {len(points)} x {points.shape[1]}", file=err)
                print(f"query range    : {args.eps:g}", file=err)
                print(f"links emitted  : {stats.links_emitted}", file=err)
                print(f"groups emitted : {stats.groups_emitted}", file=err)
                print(f"output bytes   : {stats.bytes_written}", file=err)
                print(f"early stops    : {stats.early_stops}", file=err)
                print(f"distance comps : {stats.distance_computations}", file=err)
                print(
                    f"total time     : {stats.total_time:.3f}s "
                    f"(compute {stats.compute_time:.3f}s "
                    f"+ write {stats.write_time:.3f}s)",
                    file=err,
                )
                if summary["estimated"]:
                    print(
                        "NOTE: output exceeded the byte budget; figures above "
                        "are the paper's analytic estimate, no exact output "
                        "was written",
                        file=err,
                    )
                if args.output:
                    print(f"output file    : {args.output}", file=err)
                if args.checkpoint:
                    print(f"checkpoint     : {args.checkpoint}", file=err)
                if trace_path:
                    print(f"trace file     : {trace_path}", file=err)
                if args.metrics_out:
                    print(f"metrics file   : {args.metrics_out}", file=err)
            if args.verify:
                report = check_equivalence(
                    points, args.eps, result, metric=args.metric
                )
                if log_mode() == "json":
                    logger.info(
                        "verification", extra={"ok": report.ok, "report": repr(report)}
                    )
                else:
                    print(f"verification   : {report!r}", file=sys.stderr)
                if not report.ok:
                    return 1
            return 0
    except ReproError as exc:
        # In JSON mode the error must be a parseable record too; mark the
        # exception so main() does not add a second, plain-text line.
        if log_mode() == "json":
            logger.error(
                f"csj: error: {exc}", extra={"exit_code": exc.exit_code}
            )
            exc.cli_logged = True
        raise
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        disable_tracing()
        if configured_logging:
            reset_logging()  # never leak our handler into in-process callers


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.api import open_service
    from repro.obs.metrics import get_registry, reset_registry
    from repro.resilience.chaos import OverloadInjector

    reset_registry()
    points = _load_points(args)
    chaos = OverloadInjector(
        seed=args.seed,
        slow_every=args.slow_every,
        slow_seconds=args.slow_ms / 1000.0,
        fail_at=args.fail_at,
    )
    service = open_service(
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        executors=args.executors,
        workers=args.workers,
        seed=args.seed,
        cache_bytes=args.cache_bytes if args.cache else 0,
    )
    service.chaos = chaos
    if args.preload:
        # One packed tree for the whole storm; requests match the
        # registered array by identity.
        points = service.register_dataset(points).points
    if args.repeats < 1:
        from repro.errors import ValidationError

        raise ValidationError(f"--repeats must be >= 1, got {args.repeats}")
    base = chaos.storm(
        points,
        args.eps,
        requests=args.requests,
        algorithm=args.algorithm,
        g=args.g,
    )
    # Each repeat is its own wave: the point of a repeat is a cache hit,
    # not extra admission pressure, so waves are served back to back
    # rather than flooding the bounded queue with one giant batch.
    waves = [base] + [
        [
            dataclasses.replace(req, request_id=f"{req.request_id}-r{rep}")
            for req in base
        ]
        for rep in range(1, args.repeats)
    ]
    try:
        outcomes = []
        for wave in waves:
            outcomes.extend(service.serve(wave))
    finally:
        service.close()

    counts = service.counts()
    for outcome in outcomes:
        stats = outcome.result.stats if outcome.result is not None else None
        record = {
            "request": outcome.request_id,
            "status": outcome.status,
            "degraded": outcome.degraded,
            "links": stats.links_emitted if stats else None,
            "bytes": stats.bytes_written if stats else None,
            "retry_after": outcome.retry_after,
        }
        if args.json:
            print(_json.dumps(record))
        else:
            extra = ""
            if outcome.retry_after is not None:
                extra = f" retry_after={outcome.retry_after:.3f}s"
            print(
                f"{record['request']:<14} {record['status']:<12} "
                f"links={record['links']}{extra}"
            )
    snapshot = get_registry().snapshot()
    summary = {
        "requests": len(outcomes),
        "counts": counts,
        "peak_queue": service.peak_queue,
        "queue_depth": args.queue_depth,
        "metrics": {
            k: v
            for k, v in snapshot.items()
            if k.startswith(("repro_service", "repro_cache"))
        },
    }
    if args.json:
        print(_json.dumps(summary))
    else:
        print(
            f"served {summary['requests']} requests: {counts['admitted']} exact, "
            f"{counts['degraded']} degraded, {counts['shed']} shed, "
            f"{counts['breaker_open']} breaker-open, {counts['failed']} failed "
            f"(peak queue {service.peak_queue}/{args.queue_depth})",
            file=sys.stderr,
        )
    if args.strict:
        if counts["breaker_open"]:
            return 10
        if counts["shed"]:
            return 9
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    import json as _json

    from repro.api import maintained_join
    from repro.core.bruteforce import brute_force_links
    from repro.errors import ValidationError

    if not 0.0 <= args.delete_fraction <= 1.0:
        raise ValidationError(
            f"--delete-fraction must be in [0, 1], got {args.delete_fraction}"
        )
    points = _load_points(args)
    maintained = maintained_join(
        points, args.eps, g=args.g, index=args.index, metric=args.metric
    )
    rng = np.random.default_rng(args.seed + 1)
    lo, hi = points.min(axis=0), points.max(axis=0)
    for _ in range(args.updates):
        if rng.random() < args.delete_fraction and maintained.size > 2:
            live = maintained.live_ids()
            maintained.delete(int(live[rng.integers(len(live))]))
        else:
            maintained.insert(lo + rng.random(points.shape[1]) * (hi - lo))
    compacted = None
    verified = None
    if args.verify:
        # Before compaction so maintained ids still match the point rows.
        live = maintained.live_ids()
        sub = maintained.tree.points[np.asarray(live, dtype=np.intp)]
        expected = {
            (live[i], live[j])
            for i, j in brute_force_links(sub, args.eps, metric=args.metric)
        }
        verified = maintained.expanded_links() == expected
    if maintained.need_compact():
        compacted = len(maintained.compact())
    result = maintained.result()
    summary = {
        "points": maintained.size,
        "updates": dict(maintained.counts),
        "groups": result.stats.groups_emitted,
        "links": result.stats.links_emitted,
        "output_bytes": result.stats.bytes_written,
        "implied_links": result.implied_link_count(),
        "compacted_to": compacted,
        "verified": verified,
    }
    if args.json:
        print(_json.dumps(summary))
    else:
        counts = maintained.counts
        print(
            f"maintained join over {summary['points']} live points after "
            f"{counts['inserts']} inserts ({counts['absorbed']} absorbed, "
            f"{counts['residual']} residual links) and "
            f"{counts['deletes']} deletes: {summary['groups']} groups, "
            f"{summary['links']} links, {summary['output_bytes']} bytes "
            f"({summary['implied_links']} implied pairs)"
        )
        if verified is not None:
            print(f"expansion-equivalence vs brute force: "
                  f"{'OK' if verified else 'MISMATCH'}")
    if verified is False:
        print("csj: error: maintained result diverged from brute force",
              file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig, ablations, tables
    from repro.experiments import exp4, fig5, fig6, fig7, fig8

    config = ExperimentConfig(iterations=args.iterations)
    if args.name == "fig5":
        names = [args.dataset] if args.dataset else None
        rows = fig5.run(datasets=names, config=config)
    elif args.name == "fig6":
        rows = fig6.run(n=args.n, config=config)
    elif args.name == "fig7":
        rows = fig7.run(config=config)
    elif args.name == "fig8":
        rows = fig8.run(n=args.n, config=config)
    elif args.name == "exp4":
        rows = exp4.run(n=args.n, config=config)
    elif args.name == "bulk":
        rows = ablations.run_bulk(n=args.n, config=config)
    elif args.name == "capacity":
        rows = ablations.run_capacity(n=args.n, config=config)
    elif args.name == "fractal":
        rows = ablations.run_fractal(n=args.n, config=config)
    elif args.name == "postprocess":
        rows = ablations.run_postprocess(n=args.n, config=config)
    else:
        rows = ablations.run_egrid(n=args.n, config=config)
    print(tables.format_table(rows, title=f"Experiment {args.name}"))
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.api import similarity_join

    # Seven points shaped like the paper's Figure 1: a four-point dense
    # cluster, a nearby pair-bridging point, and an isolated pair.
    points = np.array(
        [
            [0.10, 0.12],  # 1
            [0.13, 0.10],  # 2
            [0.11, 0.15],  # 3
            [0.14, 0.14],  # 4
            [0.18, 0.16],  # 5
            [0.60, 0.60],  # 6
            [0.63, 0.62],  # 7
        ]
    )
    eps = 0.07
    standard = similarity_join(points, eps, algorithm="ssj", max_entries=4)
    compact = similarity_join(points, eps, algorithm="csj", g=10, max_entries=4)
    print("Figure 1 walk-through (7 points, query range", eps, ")")
    print(f"standard join : {sorted(standard.links)}")
    print(f"  -> {standard.stats.links_emitted} links, "
          f"{standard.output_bytes} bytes")
    print(f"compact join  : groups={compact.groups} links={sorted(compact.links)}")
    print(f"  -> {compact.stats.groups_emitted} groups + "
          f"{compact.stats.links_emitted} links, {compact.output_bytes} bytes")
    saved = 1 - compact.output_bytes / standard.output_bytes
    print(f"space savings : {saved:.0%}, losslessly "
          f"(expansions equal: {compact.expanded_links() == standard.expanded_links()})")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.api import similarity_join
    from repro.core.clusters import component_sizes, connected_components
    from repro.datasets import load_dataset

    points = load_dataset(args.dataset, args.n, seed=args.seed)
    result = similarity_join(points, args.eps, algorithm="csj", g=args.g)
    labels = connected_components(result, len(points))
    sizes = component_sizes(labels)
    nontrivial = sizes[sizes > 1]
    print(f"points          : {len(points)}")
    print(f"compact output  : {result.stats.groups_emitted} groups + "
          f"{result.stats.links_emitted} links ({result.output_bytes} bytes)")
    print(f"clusters        : {len(nontrivial)} with >= 2 members, "
          f"{int((sizes == 1).sum())} singletons")
    print(f"largest clusters: "
          f"{sorted(nontrivial.tolist(), reverse=True)[: args.top]}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Failures map to distinct nonzero exit codes (the registry in
    :mod:`repro.errors` is the source of truth): invalid input 2, budget
    exceeded 3, sink I/O 4, corrupt checkpoint/index file 5, poison
    request 6, worker pool failure 7, disk full / read-only storage 8,
    admission rejected / request shed 9, circuit breaker open 10, any
    other error 1 — with a one-line message on stderr instead of a
    traceback.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "join":
            return _cmd_join(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "update":
            return _cmd_update(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        return _cmd_demo(args)
    except ReproError as exc:
        if not getattr(exc, "cli_logged", False):
            print(f"csj: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        from repro.errors import DiskFullError, is_disk_full

        print(f"csj: error: {exc}", file=sys.stderr)
        # A raw ENOSPC/EROFS that reached the CLI uncaught still maps to
        # the typed disk-full exit code, not the generic 1.
        return DiskFullError.exit_code if is_disk_full(exc) else 1


if __name__ == "__main__":
    sys.exit(main())
