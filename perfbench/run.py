#!/usr/bin/env python3
"""Repository benchmark: compact similarity joins, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-ncsj-f8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Workloads are closed loops from one client process.  Sizes, the nominal
host_ref speed and the layer -> metric -> workload map are in
``spec.json``:

* ``fig7-ncsj-f8`` -- Sierpinski3D (the paper's Fig 7 data), N-CSJ over an
  STR-loaded R*-tree at fanout 8, streamed to a TextSink file;
* ``county-csj-f64`` -- MG County, CSJ(10) at fanout 64 to a TextSink file;
* ``served-churn`` -- LB County served by JoinService (result cache on,
  one executor, two pool workers, two requests outstanding) while a
  MaintainedJoin takes inserts and deletes between rounds of reads.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
instrumentation installed.  ``--trace 1`` is the separate traced run: it
alternates untraced and traced operations (``tracer.py``) and reports the
per-layer metrics, including the tracing overhead.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every metric, with its unit, sample count and
raw value, is printed to stderr, and a run report (host facts, raw
timings, every host_ref sample, the first traced operation's spans) is
written under ``perfbench/.runs/``.

Every timing is divided by the host_ref loop (``hostref.py``) run next to
it and reported at the nominal host_ref speed.  Inputs derive from
``--seed`` alone.  GC stays enabled inside timed operations and
``gc.collect()`` runs between them, untimed.  Correctness checks run
outside the timed region.  Exit status: 0 ok, 1 a correctness check
failed, 2 the program sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict, deque
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
SPEC = json.loads((HERE / "spec.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NOMINAL_REF_S = SPEC["nominal_ref_s"]

sys.path.insert(0, str(HERE))
from hostref import host_ref  # noqa: E402
from tracer import Tracer  # noqa: E402


def import_program():
    """Import ``repro`` from this checkout's sources, or exit with status 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: program sources src/repro not found", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    return repro


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------

def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def metric(value, unit: str, samples: int, raw=None) -> dict:
    return {
        "value": float(value),
        "unit": unit,
        "samples": int(samples),
        "raw": None if raw is None else float(raw),
    }


#: Bracketing host_refs further apart than this factor mean the host
#: changed speed during the operation (shared 2-vCPU hosts were seen to
#: flip between speeds about 2x apart every few seconds).  Such operations
#: are left out of the normalised percentiles; the raw percentiles and the
#: report keep them.
MAX_REF_DRIFT = 1.15


class Timings:
    """Raw seconds of one kind of operation, each between two host_refs."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.before: list[float] = []
        self.after: list[float] = []

    def __len__(self) -> int:
        return len(self.raw)

    def add(self, seconds: float, before: float, after: float) -> None:
        self.raw.append(seconds)
        self.before.append(before)
        self.after.append(after)

    def norm(self) -> list[float]:
        """Normalised seconds of the operations whose two refs agree.

        Every operation counts when fewer than half of them qualify.
        """
        rows = list(zip(self.raw, self.before, self.after))
        steady = [r for r in rows if max(r[1], r[2]) <= MAX_REF_DRIFT * min(r[1], r[2])]
        if 2 * len(steady) < len(rows):
            steady = rows
        return [s * 2 * NOMINAL_REF_S / (b + a) for s, b, a in steady]

    def mean(self) -> float:
        """Mean normalised seconds over every operation, normalised the
        way :meth:`LayerTotals.add` normalises span times."""
        rows = zip(self.raw, self.before, self.after)
        return ratio(sum(s * 2 * NOMINAL_REF_S / (b + a) for s, b, a in rows), len(self))

    def metric(self, q: float, unit: str) -> dict:
        """Percentile ``q`` in ``unit`` (s or ms), normalised, plus raw."""
        scale = 1e3 if unit == "ms" else 1.0
        norm = self.norm()
        return metric(pct(norm, q) * scale, unit, len(norm), pct(self.raw, q) * scale)

    def dump(self) -> dict:
        return {"raw_s": self.raw, "host_ref_before_s": self.before,
                "host_ref_after_s": self.after}


class LayerTotals:
    """Span times and boundary counts summed over the traced operations."""

    def __init__(self) -> None:
        self.ops = 0
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.first_spans = None

    def add(self, tracer: Tracer, ref: float) -> None:
        scale = NOMINAL_REF_S / ref
        for name, (calls, total, own) in tracer.log.summary().items():
            self.calls[name] += calls
            self.total_s[name] += total * scale
            self.self_s[name] += own * scale
        for key, value in tracer.counts.items():
            self.counts[key] += value
        if self.first_spans is None:
            self.first_spans = tracer.log.snapshot()
        self.ops += 1

    def per_op(self, name: str) -> dict:
        """Mean self seconds of span ``name`` per traced operation."""
        return metric(ratio(self.self_s[name], self.ops), "s", self.ops)

    def per_call(self, name: str, unit: str) -> dict:
        """Mean duration of one ``name`` span, in s or ms."""
        scale = 1e3 if unit == "ms" else 1.0
        return metric(ratio(self.total_s[name], self.calls[name]) * scale,
                      unit, self.calls[name])


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# Inputs and correctness checks
# ---------------------------------------------------------------------------

def make_points(cfg: dict, seed: int) -> np.ndarray:
    """The workload's points for ``seed``.

    A county is one fixed map: it is generated at the paper's size with a
    fixed seed, and ``seed`` draws the sample.  A new map per seed would
    move town layout, and with it the output size, from run to run.
    """
    from repro.datasets import load_dataset

    if "base_n" not in cfg:
        return load_dataset(cfg["dataset"], cfg["n"], seed=seed)
    base = load_dataset(cfg["dataset"], cfg["base_n"], seed=cfg["base_seed"])
    pick = np.random.default_rng(seed).choice(len(base), cfg["n"], replace=False)
    return np.ascontiguousarray(base[np.sort(pick)])


def pair_keys(i, j, n: int) -> np.ndarray:
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return np.minimum(i, j) * n + np.maximum(i, j)


def implied_keys(links, groups, n: int) -> np.ndarray:
    """Sorted unique keys of every pair implied by ``links`` and ``groups``."""
    parts = [np.empty(0, dtype=np.int64)]
    if len(links):
        arr = np.asarray(links, dtype=np.int64).reshape(-1, 2)
        parts.append(pair_keys(arr[:, 0], arr[:, 1], n))
    for ids in groups:
        ids = np.asarray(ids, dtype=np.int64)
        a, b = np.triu_indices(len(ids), 1)
        parts.append(pair_keys(ids[a], ids[b], n))
    return np.unique(np.concatenate(parts))


def read_text_output(path: Path) -> tuple[list, list]:
    """Links and groups of a file in the paper's fixed-width format."""
    links, groups = [], []
    with open(path, encoding="ascii") as handle:
        for line in handle:
            ids = line.split()
            if len(ids) == 2:
                links.append((int(ids[0]), int(ids[1])))
            elif ids:
                groups.append([int(t) for t in ids])
    return links, groups


def theorem_check(points: np.ndarray, eps: float, keys: np.ndarray) -> dict:
    """Implied pairs against a brute-force join (Theorems 1 and 2).

    A pair within a relative 1e-9 of ``eps`` may go either way, since
    distance formulas differ in their last bits.
    """
    from scipy.spatial import cKDTree

    n = len(points)
    tol = eps * 1e-9
    cand = cKDTree(points).query_pairs(eps + tol, output_type="ndarray")
    diff = points[cand[:, 0]] - points[cand[:, 1]]
    dist = np.sqrt((diff * diff).sum(axis=1))
    cand_keys = pair_keys(cand[:, 0], cand[:, 1], n)
    required = cand_keys[dist < eps - tol]
    return {
        "expected": int(len(required)),
        "implied": int(len(keys)),
        "missing": int(len(np.setdiff1d(required, keys))),
        "extra": int(len(np.setdiff1d(keys, cand_keys))),
    }


def theorems_hold(check) -> bool:
    return check is not None and check["missing"] == 0 and check["extra"] == 0


def same_output(a, b) -> bool:
    """Byte identity of two served results (same payload, same size)."""
    return (
        a.links == b.links
        and a.groups == b.groups
        and a.stats.bytes_written == b.stats.bytes_written
    )


# ---------------------------------------------------------------------------
# Batch workloads: one join after another into a TextSink file
# ---------------------------------------------------------------------------

#: Layer -> the span whose self time it owns ("join" is the remainder).
LAYER_SPANS = {
    "frontier": "join",
    "kernels": "kernels",
    "leaf": "leaf",
    "groups": "groups",
    "sink": "sink",
}


def close_sink(sink, log) -> None:
    if log is None:
        sink.close()
        return
    idx = log.begin("sink")
    try:
        sink.close()
    finally:
        log.end(idx)


def run_batch(repro, cfg: dict, seed: int, seconds: float, trace: bool,
              workdir: Path) -> dict:
    from repro.index import pack_index

    points = make_points(cfg, seed)
    n, eps = len(points), cfg["eps"]
    width = len(str(n - 1))
    if cfg["algorithm"] == "ncsj":
        def join(tree, sink):
            return repro.ncsj(tree, eps, sink=sink)
    else:
        def join(tree, sink):
            return repro.csj(tree, eps, g=cfg["g"], sink=sink)

    # Set-up is build_index plus pack_index, cold, several times.
    setup, build, pack = Timings(), Timings(), Timings()
    tree = packed = None
    ref = host_ref()
    for _ in range(cfg["setup_repeats"]):
        tree = packed = None
        gc.collect()
        t0 = perf_counter()
        tree = repro.build_index(points, "rstar", max_entries=cfg["fanout"], bulk="str")
        t1 = perf_counter()
        packed = pack_index(tree)
        t2 = perf_counter()
        after = host_ref()
        setup.add(t2 - t0, ref, after)
        build.add(t1 - t0, ref, after)
        pack.add(t2 - t1, ref, after)
        ref = after

    out, first = workdir / "join.txt", workdir / "first.txt"
    tracer = Tracer() if trace else None
    plain, traced = Timings(), Timings()
    layers = LayerTotals()
    attempted = failed = size_mismatches = 0
    errors: list[str] = []
    stats = None
    deadline = perf_counter() + seconds
    while attempted < cfg["min_ops"] or perf_counter() < deadline:
        on = tracer is not None and attempted % 2 == 1
        attempted += 1
        gc.collect()
        if on:
            tracer.reset()
            tracer.install()
            root = tracer.log.begin("join")
        result = None
        t0 = perf_counter()
        try:
            sink = repro.TextSink(str(out), id_width=width)
            try:
                result = join(tree, sink)
            finally:
                close_sink(sink, tracer.log if on else None)
            elapsed = perf_counter() - t0
        except Exception:  # counted and reported; the loop keeps measuring
            failed += 1
            errors.append(traceback.format_exc())
        finally:
            if on:
                tracer.log.end(root)
                tracer.remove()
        before, ref = ref, host_ref()
        if result is None:
            continue
        (traced if on else plain).add(elapsed, before, ref)
        stats = result.stats
        if os.path.getsize(out) != stats.bytes_written:
            size_mismatches += 1
        if not first.exists():
            os.replace(out, first)
        if on:
            layers.add(tracer, (before + ref) / 2)

    rss = peak_rss_mb()
    checks: dict = {"size_mismatches": size_mismatches}
    if first.exists():
        links, groups = read_text_output(first)
        checks["theorems"] = theorem_check(points, eps, implied_keys(links, groups, n))
    res = {
        "correct": size_mismatches == 0 and theorems_hold(checks.get("theorems")),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "errors": errors,
        "timings": {"setup": setup.dump(), "op": plain.dump(), "traced_op": traced.dump()},
    }
    ops = len(plain) + len(traced)
    res["metrics"] = {
        "setup_s": setup.metric(50, "s"),
        "op_p50_ms": plain.metric(50, "ms"),
        "op_p95_ms": plain.metric(95, "ms"),
        "output_bytes": metric(stats.bytes_written if stats else 0, "bytes", ops),
        "peak_rss_mb": metric(rss, "MB", 1),
        "join_p50_ms": plain.metric(50, "ms"),
        "failed_ratio": metric(ratio(failed, attempted), "ratio", attempted),
    }
    if trace and stats is not None:
        res["metrics"].update(batch_layers(layers, build, pack, packed, tree, stats,
                                           checks, plain, traced))
        res["layer_split"] = layer_split(layers, traced, cfg["predicted_major"])
        res["spans"] = layers.first_spans
    return res


def batch_layers(layers, build, pack, packed, tree, stats, checks, plain, traced) -> dict:
    c = layers.counts
    ops = max(layers.ops, 1)
    bound_checks = c["kernels.candidates"] + c["kernels.bounds"]
    implied = checks.get("theorems", {}).get("implied", 0)
    return {
        "index.build_s": build.metric(50, "s"),
        "index.pack_s": pack.metric(50, "s"),
        "index.nodes": metric(packed.n_nodes, "count", 1),
        "index.height": metric(tree.height, "count", 1),
        "frontier.self_s": layers.per_op("join"),
        "frontier.node_pairs": metric(stats.node_pairs_visited, "count", 1),
        "frontier.nodes": metric(stats.nodes_visited, "count", 1),
        "frontier.early_stops": metric(stats.early_stops, "count", 1),
        "kernels.prune_s": layers.per_op("kernels"),
        "kernels.prune_calls": metric(c["kernels.calls"] / ops, "count", layers.ops),
        "kernels.mbr_checks": metric(bound_checks / ops, "count", layers.ops),
        "kernels.pairs_per_call": metric(
            ratio(bound_checks, c["kernels.calls"]), "count", layers.ops),
        "kernels.survivor_ratio": metric(
            ratio(c["kernels.survivors"], c["kernels.candidates"]), "ratio", layers.ops),
        "leaf.self_s": layers.per_op("leaf"),
        "leaf.calls": metric(c["leaf.calls"] / ops, "count", layers.ops),
        "leaf.distance_computations": metric(stats.distance_computations, "count", 1),
        "leaf.hit_ratio": metric(
            ratio(c["leaf.hits"], c["leaf.distance_computations"]), "ratio", layers.ops),
        "groups.self_s": layers.per_op("groups"),
        "groups.merge_attempts": metric(stats.merge_attempts, "count", 1),
        "groups.merge_success_ratio": metric(
            ratio(stats.merge_successes, stats.merge_attempts), "ratio", 1),
        "sink.write_s": layers.per_op("sink"),
        "sink.bytes": metric(stats.bytes_written, "bytes", 1),
        "sink.links": metric(stats.links_emitted, "count", 1),
        "sink.groups": metric(stats.groups_emitted, "count", 1),
        "sink.bytes_per_implied_link": metric(
            ratio(stats.bytes_written, implied), "bytes", 1),
        "trace.overhead_ratio": metric(
            ratio(pct(traced.norm(), 50), pct(plain.norm(), 50)), "ratio", len(traced)),
    }


def layer_split(layers: LayerTotals, traced: Timings, predicted: list) -> dict:
    """Each layer's share of a traced join, against the predicted majority."""
    op_s = traced.mean()
    shares = {
        layer: ratio(ratio(layers.self_s[name], layers.ops), op_s)
        for layer, name in LAYER_SPANS.items()
    }
    major = sum(shares[layer] for layer in predicted)
    return {
        "shares": shares,
        "predicted_major": predicted,
        "predicted_share": major,
        "agrees": major >= 0.5,
    }


# ---------------------------------------------------------------------------
# Served workload: reads through JoinService beside MaintainedJoin updates
# ---------------------------------------------------------------------------

REGISTRY_KEYS = {
    "hits": "repro_cache_hits_total",
    "misses": "repro_cache_misses_total",
    "spawns": "repro_pool_spawns_total",
    "spec_bytes": "repro_spec_bytes_total",
    "warm": "repro_taskstate_warm_hits_total",
    "rebuilds": "repro_taskstate_rebuilds_total",
}


def submit_closed_loop(repro, service, requests, outstanding: int,
                       timeout: float) -> list:
    """Send ``requests`` keeping ``outstanding`` in flight.

    Each read is timed from ``submit`` until its outcome is collected.
    Returns ``(parameter index, outcome or None, seconds or None)`` in
    submission order; ``None`` marks a typed rejection or a read that
    never finished.
    """
    pending: deque = deque()
    outcomes: list = []

    def collect() -> None:
        p, t0, ticket = pending.popleft()
        try:
            outcome = ticket.wait(timeout=timeout)
        except TimeoutError:
            outcome = None
        outcomes.append((p, outcome, perf_counter() - t0))

    for p, request in requests:
        while len(pending) >= outstanding:
            collect()
        t0 = perf_counter()
        try:
            ticket = service.submit(request)
        except repro.ReproError:  # shed or breaker-open: a counted outcome
            outcomes.append((p, None, None))
            continue
        pending.append((p, t0, ticket))
    while pending:
        collect()
    return outcomes


def run_served(repro, cfg: dict, seed: int, seconds: float, trace: bool,
               probe_degraded: bool = False) -> dict:
    from repro.index import pack_index

    points = make_points(cfg, seed)
    rng = np.random.default_rng([seed, 1])
    eps, g = cfg["eps"], cfg["g"]
    params = [tuple(p) for p in cfg["reads"]]

    # Set-up: the insertion-built tree maintained_join would build, its
    # packing, the materialised join, and an open service -- cold, repeated.
    setup, build, pack, mat = Timings(), Timings(), Timings(), Timings()
    service = None
    try:
        ref = host_ref()
        for _ in range(cfg["setup_repeats"]):
            if service is not None:
                service.close()
            service = mj = tree = packed = None
            gc.collect()
            t0 = perf_counter()
            tree = repro.build_index(points, "rstar", max_entries=cfg["fanout"])
            t1 = perf_counter()
            packed = pack_index(tree)
            t2 = perf_counter()
            mj = repro.maintained_join(points, eps, g=g, index=tree)
            t3 = perf_counter()
            service = repro.open_service(
                queue_depth=cfg["queue_depth"],
                executors=cfg["executors"],
                workers=cfg["workers"],
                cache_bytes=cfg["cache_bytes"],
                cache_entries=cfg["cache_entries"],
            )
            t4 = perf_counter()
            after = host_ref()
            setup.add(t4 - t0, ref, after)
            build.add(t1 - t0, ref, after)
            pack.add(t2 - t1, ref, after)
            mat.add(t3 - t2, ref, after)
            ref = after
        shape = (packed.n_nodes, tree.height)

        tracer = Tracer() if trace else None
        layers = LayerTotals()
        plain, traced, updates = Timings(), Timings(), Timings()
        live = list(range(len(points)))
        attempted = failed = reads = rounds = hit_mismatches = 0
        bytes_out: list[int] = []
        miss_stats: list = []
        errors: list[str] = []
        last = rss = None
        registry = repro.get_registry()
        counters0 = registry.snapshot()
        deadline = perf_counter() + seconds
        while reads < cfg["min_reads"] or perf_counter() < deadline:
            on = tracer is not None and rounds % 2 == 1
            rounds += 1
            update_s: list[float] = []
            gc.collect()
            if on:
                tracer.reset()
                tracer.install()
            try:
                for u in range(cfg["updates_per_round"]):
                    attempted += 1
                    try:
                        if u % 2 == 0:  # insert near a live point
                            anchor = mj.tree.points[live[int(rng.integers(len(live)))]]
                            coords = anchor + rng.normal(scale=eps / 2, size=anchor.shape)
                            t0 = perf_counter()
                            pid = mj.insert(coords)
                            elapsed = perf_counter() - t0
                            live.append(pid)
                        else:  # delete a random live point
                            k = int(rng.integers(len(live)))
                            t0 = perf_counter()
                            if not mj.delete(live[k]):
                                raise RuntimeError(f"live id {live[k]} was not deleted")
                            elapsed = perf_counter() - t0
                            live[k] = live[-1]
                            live.pop()
                    except Exception:  # counted and reported, like a failed read
                        failed += 1
                        errors.append(traceback.format_exc())
                        continue
                    update_s.append(elapsed)
                ids = np.array(sorted(live), dtype=np.intp)
                arr = np.ascontiguousarray(mj.tree.points[ids])
                requests = []
                for k in range(cfg["reads_per_round"]):
                    p = k % len(params)
                    algorithm, read_g = params[p]
                    requests.append(
                        (p, repro.JoinRequest(arr, eps, algorithm=algorithm, g=read_g)))
                outcomes = submit_closed_loop(
                    repro, service, requests, cfg["outstanding"], cfg["read_timeout_s"])
            finally:
                if on:
                    tracer.remove()
            before, ref = ref, host_ref()
            if on:
                layers.add(tracer, (before + ref) / 2)
            else:
                for elapsed in update_s:
                    updates.add(elapsed, before, ref)
            # The first admitted read per parameter set of a round is the
            # cache miss; every later one must be its byte-identical hit.
            first: dict = {}
            for p, outcome, elapsed in outcomes:
                reads += 1
                attempted += 1
                if elapsed is not None:
                    (traced if on else plain).add(elapsed, before, ref)
                if outcome is None or outcome.status != "admitted":
                    failed += 1
                    continue
                result = outcome.result
                bytes_out.append(result.stats.bytes_written)
                if p not in first:
                    first[p] = result
                    miss_stats.append(result.stats)
                elif not same_output(result, first[p]):
                    hit_mismatches += 1
            last = (ids, arr, first)
            if rss is None and reads >= cfg["min_reads"]:
                # Memory grows with rounds served, so it is read after a
                # fixed amount of work, not after a throughput-dependent one.
                rss = peak_rss_mb()

        if probe_degraded and last is not None:
            algorithm, read_g = params[0]
            probe = repro.JoinRequest(last[1], eps * 1.5, algorithm=algorithm,
                                      g=read_g, deadline_seconds=1e-9)
            outcome = service.submit(probe).wait(timeout=cfg["read_timeout_s"])
            attempted += 1
            reads += 1
            if outcome.status != "admitted":
                failed += 1

        if rss is None:
            rss = peak_rss_mb()
        counters1 = registry.snapshot()
        reg = {k: counters1.get(name, 0) - counters0.get(name, 0)
               for k, name in REGISTRY_KEYS.items()}
        checks = served_checks(mj, last, eps, hit_mismatches)
    finally:
        if service is not None:
            service.close()

    final = checks["final"]
    res = {
        "correct": hit_mismatches == 0
        and len(final) == len(params)
        and all(f["equivalent"] and theorems_hold(f) for f in final.values()),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "errors": errors,
        "timings": {
            "setup": setup.dump(),
            "read": plain.dump(),
            "traced_read": traced.dump(),
            "update": updates.dump(),
        },
    }
    res["metrics"] = {
        "setup_s": setup.metric(50, "s"),
        "op_p50_ms": plain.metric(50, "ms"),
        "op_p95_ms": plain.metric(95, "ms"),
        "output_bytes": metric(ratio(sum(bytes_out), len(bytes_out)), "bytes", len(bytes_out)),
        "peak_rss_mb": metric(rss, "MB", 1),
        "read_p50_ms": plain.metric(50, "ms"),
        "read_p95_ms": plain.metric(95, "ms"),
        "update_p50_ms": updates.metric(50, "ms"),
        "update_p95_ms": updates.metric(95, "ms"),
        "failed_ratio": metric(ratio(failed, attempted), "ratio", attempted),
    }
    if trace:
        res["metrics"].update(served_layers(
            layers, build, pack, mat, shape, miss_stats, reg, mj, plain, traced, final))
        res["spans"] = layers.first_spans
    return res


def served_checks(mj, last, eps: float, hit_mismatches: int) -> dict:
    """The final round's answers against MaintainedJoin and brute force."""
    checks: dict = {"hit_mismatches": hit_mismatches, "final": {}}
    if last is None:
        return checks
    ids, arr, first = last
    space = len(mj.tree.points)
    links = np.array(list(mj.expanded_links()), dtype=np.int64).reshape(-1, 2)
    maintained = np.unique(pair_keys(links[:, 0], links[:, 1], space))
    m = len(arr)
    for p, result in first.items():
        keys = implied_keys(result.links, result.groups, m)
        mapped = np.unique(pair_keys(ids[keys // m], ids[keys % m], space))
        checks["final"][str(p)] = {
            "equivalent": bool(np.array_equal(mapped, maintained)),
            "bytes": int(result.stats.bytes_written),
            **theorem_check(arr, eps, keys),
        }
    return checks


def served_layers(layers, build, pack, mat, shape, miss_stats, reg, mj,
                  plain, traced, final) -> dict:
    c = layers.counts
    joins = layers.calls["parallel.join"]
    exec_ms = ratio(layers.total_s["parallel.join"], len(traced)) * 1e3
    read_ms = traced.mean() * 1e3
    misses = len(miss_stats)

    def mean(field: str) -> float:
        return ratio(sum(getattr(s, field) for s in miss_stats), misses)

    checked = next(iter(final.values()), {})
    lookups = reg["hits"] + reg["misses"]
    states = reg["warm"] + reg["rebuilds"]
    return {
        "index.build_s": build.metric(50, "s"),
        "index.pack_s": pack.metric(50, "s"),
        "index.nodes": metric(shape[0], "count", 1),
        "index.height": metric(shape[1], "count", 1),
        "dynamic.materialize_s": mat.metric(50, "s"),
        "frontier.early_stops": metric(mean("early_stops"), "count", misses),
        "leaf.distance_computations": metric(mean("distance_computations"), "count", misses),
        "groups.self_s": metric(ratio(layers.self_s["groups"], joins), "s", joins),
        "groups.merge_attempts": metric(mean("merge_attempts"), "count", misses),
        "groups.merge_success_ratio": metric(
            ratio(mean("merge_successes"), mean("merge_attempts")), "ratio", misses),
        "sink.write_s": metric(ratio(layers.self_s["sink"], joins), "s", joins),
        "sink.bytes": metric(mean("bytes_written"), "bytes", misses),
        "sink.links": metric(mean("links_emitted"), "count", misses),
        "sink.groups": metric(mean("groups_emitted"), "count", misses),
        "sink.bytes_per_implied_link": metric(
            ratio(checked.get("bytes", 0), checked.get("implied", 0)), "bytes", 1),
        "cache.key_ms": layers.per_call("cache.key", "ms"),
        "cache.hits": metric(reg["hits"], "count", 1),
        "cache.misses": metric(reg["misses"], "count", 1),
        "cache.hit_ratio": metric(ratio(reg["hits"], lookups), "ratio", lookups),
        "service.exec_ms": metric(exec_ms, "ms", len(traced)),
        "service.queue_ms": metric(read_ms - exec_ms, "ms", len(traced)),
        "parallel.join_s": layers.per_call("parallel.join", "s"),
        "parallel.spawns": metric(ratio(reg["spawns"], reg["misses"]), "count", reg["misses"]),
        "parallel.tasks": metric(
            ratio(c["parallel.tasks"], c["parallel.states"]), "count", c["parallel.states"]),
        "parallel.spec_bytes": metric(
            ratio(reg["spec_bytes"], reg["misses"]), "bytes", reg["misses"]),
        "parallel.warm_ratio": metric(ratio(reg["warm"], states), "ratio", states),
        "dynamic.insert_ms": layers.per_call("dynamic.insert", "ms"),
        "dynamic.delete_ms": layers.per_call("dynamic.delete", "ms"),
        "dynamic.absorbed_ratio": metric(
            ratio(mj.counts["absorbed"], mj.counts["inserts"]), "ratio", mj.counts["inserts"]),
        "trace.overhead_ratio": metric(
            ratio(pct(traced.norm(), 50), pct(plain.norm(), 50)), "ratio", len(traced)),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_workload(repro, name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, probe_degraded: bool = False) -> dict:
    """Run one workload; ``tiny`` uses the smoke-test sizes of spec.json."""
    cfg = dict(SPEC["workloads"][name])
    if tiny:
        cfg.update(cfg["tiny"])
    if cfg["kind"] == "batch":
        workdir = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            res = run_batch(repro, cfg, seed, seconds, trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        res = run_served(repro, cfg, seed, seconds, trace, probe_degraded)
    if trace:
        # Layers a workload does not exercise report zero, with no samples.
        for m in BENCH["per_layer"]:
            res["metrics"].setdefault(m["name"], metric(0.0, m["unit"], 0))
    return res


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if the pool started it, and
    wait for it to exit, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def write_report(args, res: dict) -> None:
    RUNS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(args.seed),
        "nominal_ref_s": NOMINAL_REF_S,
    }
    for key in ("correct", "attempted", "failed", "metrics", "layer_split",
                "checks", "errors", "timings"):
        if key in res:
            report[key] = res[key]
    (RUNS / f"{stem}.json").write_text(json.dumps(report, indent=1, default=float))
    if res.get("spans"):
        (RUNS / f"{stem}-spans.json").write_text(json.dumps(res["spans"]))


def print_table(name: str, res: dict) -> None:
    err = sys.stderr
    print(f"# {name}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']}", file=err)
    for key, m in res["metrics"].items():
        raw = "" if m["raw"] is None else f"  raw {m['raw']:.6g}"
        print(f"  {key:30s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}{raw}",
              file=err)
    split = res.get("layer_split")
    if split:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in split["shares"].items())
        print(f"  layer split: {shares}; predicted major {split['predicted_major']} "
              f"= {split['predicted_share']:.1%}", file=err)


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined: dict = {}
    attempted = failed = 0
    correct = True
    for name in SPEC["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"perfbench: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for key, value in res["metrics"].items():
            combined[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(BENCH["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    repro = import_program()
    if args.workload == "all":
        return run_all(args)
    try:
        res = run_workload(repro, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()
    write_report(args, res)
    print_table(args.workload, res)
    wanted = BENCH["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {
            m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
