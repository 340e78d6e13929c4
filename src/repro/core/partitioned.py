"""Partition-based joins: PBSM and Spatial Hash Join (Section II-A).

The paper's related work lists two more index-free join families besides
the epsilon grid order:

* **Partition Based Spatial-Merge join** (Patel & DeWitt [14]): tile the
  space into a uniform grid of partitions; *replicate* each point into
  every partition within the query range of it; join each partition
  independently; de-duplicate with the reference-point method (a pair is
  reported only by the partition containing the midpoint of the pair).
* **Spatial Hash Join** (Lo & Ravishankar [13]): a two-dataset join where
  the *build* side defines the buckets and each *probe* point is hashed
  into every bucket it could match (here: grid buckets with an
  eps-dilated probe assignment).

Both enumerate all links individually, so both suffer the output
explosion; like Section VII's grid-order extension, each accepts the
compact treatment here (``compact=True``): cells whose point MBR diagonal
is below the range become groups, and residual links flow through the
CSJ(g) merge window.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.csj import run_batches, serial_join, unit_batches
from repro.core.groups import GroupBuffer, link_events
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.geometry.metrics import get_metric
from repro.io.writer import width_for
from repro.obs.tracing import span as trace_span

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = ["pbsm_join", "spatial_hash_join", "pbsm_plan", "partition_delta"]


def _partition_grid(pts: np.ndarray, cell: float) -> np.ndarray:
    return np.floor(pts / cell).astype(np.int64)


def pbsm_plan(
    pts: np.ndarray, eps: float, partitions_per_axis: Optional[int] = None
) -> tuple[list[tuple], np.ndarray]:
    """Deterministic PBSM partitioning: the partition units plus home map.

    Returns ``(tasks, home_of)``.  Each unit is ``("part", key, ids)``, a
    partition key and its replicated member ids, in sorted key order —
    the canonical task order, independent of who executes the
    partitions.  Requires at least one point.
    """
    n, dim = pts.shape
    if partitions_per_axis is None:
        # Aim for ~sqrt(n) partitions, but keep cells >= 2 eps wide so
        # replication stays bounded.
        target = max(1, int(round(n ** (1.0 / (2 * dim)))))
        span = float(pts.max() - pts.min()) or 1.0
        partitions_per_axis = max(1, min(target, int(span / (2 * eps)) or 1))
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    span[span == 0.0] = 1.0
    cell = span / partitions_per_axis

    # Replicate: a point joins every partition its eps-ball touches.
    members: dict[tuple[int, ...], list[int]] = {}
    low_idx = np.floor((pts - lo - eps) / cell).astype(np.int64)
    high_idx = np.floor((pts + eps - lo) / cell).astype(np.int64)
    np.clip(low_idx, 0, partitions_per_axis - 1, out=low_idx)
    np.clip(high_idx, 0, partitions_per_axis - 1, out=high_idx)
    for pid in range(n):
        ranges = [range(low_idx[pid, d], high_idx[pid, d] + 1) for d in range(dim)]
        for key in itertools.product(*ranges):
            members.setdefault(key, []).append(pid)

    home_of = np.floor((pts - lo) / cell).astype(np.int64)
    np.clip(home_of, 0, partitions_per_axis - 1, out=home_of)
    tasks = [
        ("part", np.asarray(key), np.asarray(members[key], dtype=np.intp))
        for key in sorted(members)
    ]
    return tasks, home_of


def partition_delta(
    pts: np.ndarray, metric, eps: float, compact: bool, home_of: np.ndarray,
    task: tuple,
) -> tuple[list, tuple[int, int, int]]:
    """Run one unit of :func:`pbsm_plan`: ``(events, (dc, 0, 0))``.

    Applies the reference-point de-duplication before emitting, so the
    partitions' events can be replayed in any canonical order without
    double-reporting replicated pairs.
    """
    _, key, ids = task
    k = len(ids)
    if k < 2:
        return [], (0, 0, 0)
    part_pts = pts[ids]
    t_rows, t_cols, dists = metric.condensed_self(part_pts)
    dc = k * (k - 1) // 2
    hit = np.flatnonzero(dists < eps)
    if not len(hit):
        return [], (dc, 0, 0)
    rows, cols = t_rows[hit], t_cols[hit]
    # Reference-point de-duplication: the pair belongs to this partition
    # iff the partition of the *smaller id's home cell*... PBSM uses the
    # pair's reference point; we use the home cell of the pair's first
    # point by id, which is equivalent (each pair claimed exactly once).
    first = np.minimum(ids[rows], ids[cols])
    owned = (home_of[first] == key).all(axis=1)
    rows, cols = rows[owned], cols[owned]
    return link_events(ids, ids, part_pts, part_pts, rows, cols, compact), (dc, 0, 0)


def pbsm_join(
    points: np.ndarray,
    eps: float,
    partitions_per_axis: Optional[int] = None,
    compact: bool = False,
    g: int = 10,
    sink: Optional[JoinSink] = None,
    metric: object = None,
    budget: Optional["Budget"] = None,
) -> JoinResult:
    """PBSM similarity self-join with replication and reference-point
    de-duplication.

    ``partitions_per_axis`` defaults to a grid whose cells are several
    query ranges wide (the PBSM regime: few, large partitions — unlike
    the epsilon grid order's eps-sized cells).
    """
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    m = get_metric(metric)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = pts.shape if pts.size else (0, 2)
    if sink is None:
        sink = CollectSink(id_width=width_for(n))
    buffer = GroupBuffer(
        g if compact else 0, eps, sink, metric=m, stats=sink.stats, dim=dim
    )
    label = (f"pbsm-csj({g})" if g else "pbsm-ncsj") if compact else "pbsm"

    def body():
        if n < 2:
            return
        with trace_span("plan", algorithm="pbsm", points=n):
            tasks, home_of = pbsm_plan(pts, eps, partitions_per_axis)
        batches, execute = unit_batches(
            tasks, partial(partition_delta, pts, m, eps, compact, home_of)
        )
        with trace_span("descend", algorithm="pbsm", partitions=len(tasks)):
            run_batches(batches, execute, sink, buffer, sink.stats, budget)

    return serial_join(
        body, sink, buffer, budget,
        dict(eps=eps, algorithm=label, g=g if compact else None, index_name="pbsm"),
        "pbsm",
    )


def spatial_hash_join(
    points_build: np.ndarray,
    points_probe: np.ndarray,
    eps: float,
    compact: bool = False,
    g: int = 10,
    sink: Optional[JoinSink] = None,
    metric: object = None,
) -> JoinResult:
    """Spatial hash join of two datasets; returns cross links.

    The build side is hashed into eps-sized grid buckets; every probe
    point is tested against the buckets its eps-ball touches, so each
    qualifying cross pair is found exactly once (probe-major order, no
    replication de-dup needed).  ``compact=True`` produces group pairs
    via the CSJ(g) window, like the dual-tree compact spatial join.
    """
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    m = get_metric(metric)
    build = np.atleast_2d(np.asarray(points_build, dtype=float))
    probe = np.atleast_2d(np.asarray(points_probe, dtype=float))
    if sink is None:
        sink = CollectSink(id_width=width_for(max(len(build), len(probe))))
    stats = sink.stats

    mark = stats.clock()
    buckets: dict[tuple[int, ...], np.ndarray] = {}
    if len(build):
        coords = np.floor(build / eps).astype(np.int64)
        order = np.lexsort(coords.T[::-1])
        start = 0
        sorted_coords = coords[order]
        for i in range(1, len(order) + 1):
            if i == len(order) or not np.array_equal(
                sorted_coords[i], sorted_coords[start]
            ):
                key = tuple(int(c) for c in sorted_coords[start])
                buckets[key] = order[start:i]
                start = i

    window: list = []  # (ids_build set, ids_probe set, lo, hi)
    norm_seq = m.norm_seq

    def emit(i_build: int, j_probe: int, p_build, p_probe) -> None:
        if compact and g > 0:
            pair_lo = [a if a < b else b for a, b in zip(p_build, p_probe)]
            pair_hi = [b if a < b else a for a, b in zip(p_build, p_probe)]
            for group in reversed(window):
                stats.merge_attempts += 1
                lo = [x if x < y else y for x, y in zip(group[2], pair_lo)]
                hi = [x if x > y else y for x, y in zip(group[3], pair_hi)]
                stats.mbr_checks += 1
                if norm_seq([h - l for l, h in zip(lo, hi)]) < eps:
                    group[0].add(i_build)
                    group[1].add(j_probe)
                    group[2], group[3] = lo, hi
                    stats.merge_successes += 1
                    return
            window.append([{i_build}, {j_probe}, pair_lo, pair_hi])
            if len(window) > g:
                _write_pair_group(window.pop(0), sink)
            return
        sink.write_link_raw(i_build, j_probe)

    if len(build) and len(probe):
        dim = probe.shape[1]
        probe_cells_lo = np.floor((probe - eps) / eps).astype(np.int64)
        probe_cells_hi = np.floor((probe + eps) / eps).astype(np.int64)
        for j in range(len(probe)):
            p = probe[j]
            p_list = p.tolist()
            ranges = [
                range(probe_cells_lo[j, d], probe_cells_hi[j, d] + 1)
                for d in range(dim)
            ]
            for key in itertools.product(*ranges):
                ids = buckets.get(key)
                if ids is None:
                    continue
                dists = m.point_to_points(p, build[ids])
                stats.distance_computations += len(ids)
                hits = ids[dists < eps]
                for i in hits.tolist():
                    emit(int(i), j, build[i].tolist(), p_list)
    while window:
        _write_pair_group(window.pop(0), sink)
    stats.charge_compute(mark)
    label = (f"hash-csj({g})" if g else "hash-ncsj") if compact else "hash"
    return JoinResult.from_sink(
        sink, eps=eps, algorithm=label, g=g if compact else None, index_name="hash"
    )


def _write_pair_group(group, sink: JoinSink) -> None:
    ids_build, ids_probe = group[0], group[1]
    if len(ids_build) == 1 and len(ids_probe) == 1:
        (i,), (j,) = ids_build, ids_probe
        sink.write_link_raw(i, j)
        return
    sink.write_group_pair(sorted(ids_build), sorted(ids_probe))
