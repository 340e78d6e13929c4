"""The epsilon-grid-order join and its compact extension (Section VII).

Boehm, Braunmueller, Krebs and Kriegel's epsilon-grid-order [2] is the
paper's reference technique for the index-free setting: lay a virtual grid
of cell width ``eps`` over the data; two points can only qualify when
their cells differ by at most one in every coordinate, so each cell is
joined with itself and with its lexicographically larger neighbours.

Section VII notes that the compact idea carries over: "one need only
modify the JoinBuffer function ... to add the early termination-as-a-group
case".  That is what :func:`egrid_join` does when ``compact=True``:

* a cell (or a cell pair) whose *actual point* MBR has a diagonal below
  the range is emitted as one group instead of being pair-enumerated, and
* residual links flow through the same ``g``-recent-group merge window as
  CSJ(g).

The join is one flat sequence of work units, :func:`grid_tasks`: each
non-empty cell in epsilon grid order, then its pairs with its
lexicographically larger neighbours.  :func:`grid_task_delta` runs one
unit; :func:`egrid_join` runs the sequence through the serial join loop
(:func:`repro.core.csj.run_batches`), and checkpointed and pool runs
(:class:`~repro.parallel.tasks.TaskState`) address the same units by
position.

Substitution note: the original operates out-of-core over a sorted stream;
our in-memory hash-grid performs the identical cell-pair joins in the same
grid order (same candidate set, same output), which is the behaviour
relevant to output compaction.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.csj import run_batches, serial_join, unit_batches
from repro.core.groups import GroupBuffer, link_events
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.geometry.metrics import Metric, get_metric
from repro.io.writer import width_for
from repro.obs.tracing import span as trace_span

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = ["egrid_join", "grid_cells", "grid_tasks", "grid_task_delta"]


def grid_cells(points: np.ndarray, eps: float) -> dict[tuple[int, ...], np.ndarray]:
    """Bucket point ids into grid cells of side ``eps``.

    Returns a mapping from integer cell coordinates to id arrays, ordered
    lexicographically by cell coordinate (the "epsilon grid order").
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coords = np.floor(pts / eps).astype(np.int64)
    order = np.lexsort(coords.T[::-1])
    cells: dict[tuple[int, ...], np.ndarray] = {}
    start = 0
    sorted_coords = coords[order]
    for i in range(1, len(order) + 1):
        if i == len(order) or not np.array_equal(sorted_coords[i], sorted_coords[start]):
            key = tuple(int(c) for c in sorted_coords[start])
            cells[key] = order[start:i]
            start = i
    return cells


def _positive_neighbour_offsets(dim: int) -> list[tuple[int, ...]]:
    """Offsets in {-1, 0, 1}^d that are lexicographically positive.

    Joining each cell only with its lexicographically larger neighbours
    visits every neighbouring cell pair exactly once.
    """
    offsets = []
    for offset in itertools.product((-1, 0, 1), repeat=dim):
        for component in offset:
            if component > 0:
                offsets.append(offset)
                break
            if component < 0:
                break
    return offsets


def grid_tasks(points: np.ndarray, eps: float) -> list[tuple]:
    """The grid join's work units, in canonical order.

    Each non-empty cell, in epsilon grid order, yields ``("self", ids)``
    followed by ``("cross", ids, other)`` for each non-empty
    lexicographically larger neighbour cell.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cells = grid_cells(pts, eps)
    offsets = _positive_neighbour_offsets(pts.shape[1])
    tasks: list[tuple] = []
    for key, ids in cells.items():
        tasks.append(("self", ids))
        for offset in offsets:
            other = cells.get(tuple(k + o for k, o in zip(key, offset)))
            if other is not None:
                tasks.append(("cross", ids, other))
    return tasks


def grid_task_delta(
    pts: np.ndarray, metric, eps: float, compact: bool, task: tuple
) -> tuple[list, tuple[int, int, int]]:
    """Run one grid work unit: ``(events, (dc, mbr_checks, early_stops))``.

    ``task`` is a unit of :func:`grid_tasks`; the events are the
    vocabulary of :func:`repro.core.groups.apply_events`.  In compact
    mode a cell (or cell pair) whose point MBR has a diagonal below the
    range is one group — early termination as a group — and residual
    links are a ``linkseq`` (the JoinBuffer extension routes them through
    the merge window even at ``g = 0``, where a two-point group
    degenerates to a plain link).
    """
    ids_a = task[1]
    pair = task[0] == "cross"
    if not pair and len(ids_a) < 2:
        return [], (0, 0, 0)
    pts_a = pts[ids_a]
    ids_b = task[2] if pair else ids_a
    pts_b = pts[ids_b] if pair else pts_a
    checks = 0
    if compact:
        both = np.vstack([pts_a, pts_b]) if pair else pts_a
        lo = both.min(axis=0)
        hi = both.max(axis=0)
        if metric.norm(hi - lo) < eps:
            ids = np.concatenate([ids_a, ids_b]) if pair else ids_a
            return [("group", ids.tolist(), lo.tolist(), hi.tolist())], (0, 1, 1)
        checks = 1
    if pair:
        rows, cols = np.nonzero(metric.pairwise(pts_a, pts_b) < eps)
        dc = len(ids_a) * len(ids_b)
    else:
        t_rows, t_cols, dists = metric.condensed_self(pts_a)
        hit = np.flatnonzero(dists < eps)
        rows, cols = t_rows[hit], t_cols[hit]
        dc = len(ids_a) * (len(ids_a) - 1) // 2
    events = link_events(ids_a, ids_b, pts_a, pts_b, rows, cols, compact)
    return events, (dc, checks, 0)


def egrid_join(
    points: np.ndarray,
    eps: float,
    compact: bool = False,
    g: int = 10,
    sink: Optional[JoinSink] = None,
    metric: Optional[Metric] = None,
    budget: Optional["Budget"] = None,
) -> JoinResult:
    """Similarity self-join via the epsilon grid order.

    With ``compact=False`` this is the standard index-free join: all
    qualifying pairs individually.  With ``compact=True`` the JoinBuffer
    early-termination-as-a-group extension is active (``g`` as in CSJ).

    The metric must not exceed the grid reach: any Minkowski metric is
    safe because ``distance < eps`` implies every coordinate difference is
    below ``eps``, hence neighbouring cells.
    """
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    m = get_metric(metric)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if sink is None:
        sink = CollectSink(id_width=width_for(len(pts)))
    buffer = GroupBuffer(
        g if compact else 0, eps, sink, metric=m, stats=sink.stats, dim=pts.shape[1]
    )
    label = (f"egrid-csj({g})" if g else "egrid-ncsj") if compact else "egrid"

    def body():
        with trace_span("grid", algorithm="egrid", points=len(pts)):
            tasks = grid_tasks(pts, eps)
        batches, execute = unit_batches(
            tasks, partial(grid_task_delta, pts, m, eps, compact)
        )
        with trace_span("descend", algorithm="egrid", tasks=len(tasks)):
            run_batches(batches, execute, sink, buffer, sink.stats, budget)

    return serial_join(
        body, sink, buffer, budget,
        dict(eps=eps, algorithm=label, g=g if compact else None, index_name="egrid"),
        "egrid",
    )
