"""N-CSJ and CSJ(g) — the compact similarity joins (Sections IV-B, IV-C).

Both algorithms follow the SSJ recursion but add the *early stopping*
clauses of Figure 3 (shown in italics in the paper):

* entering a single node whose bounding-shape diameter is below the query
  range emits the whole subtree as one group (line 2-3);
* entering a node pair whose combined bounding shape has diameter below
  the range emits both subtrees as one group (line 20-21).

They differ at the leaves: N-CSJ writes each remaining qualifying pair
individually (exactly like SSJ), whereas CSJ(g) offers each pair to the
``g`` most recently created groups via ``mergeIntoPrevGroup``
(:class:`~repro.core.groups.GroupBuffer`), creating a fresh two-point group
when no recent group can absorb it.  N-CSJ is implemented as CSJ with an
empty merge window (``g = 0``), which reproduces its behaviour exactly: a
two-point group is written as a plain link in the paper's output format.

All three serial tree joins (SSJ too) are one function, :func:`tree_join`:
it walks the work units of :func:`repro.core.frontier.traverse`, cuts
the sequence into *leaf windows* (:func:`leaf_windows`), which hold
units of every kind up to a load of :data:`LEAF_WINDOW`, and runs each
window of two or more units through :func:`leaf_window_delta`, whose
leaf units share one padded gather, a lone unit through
:func:`tree_task_delta`.  Over an M-tree of arbitrary objects
(:class:`~repro.core.metricspace.ObjectMetric`) early-stopped groups are
balls, :func:`make_window` picks the ball merge window, and every unit
runs on its own; the walk is the same.  The loop is :func:`run_batches`,
which :meth:`~repro.parallel.tasks.TaskState.run` (serial grid and PBSM
joins, pool workers),
:class:`~repro.resilience.checkpoint.CheckpointedJoin` (checkpointing
from its after-batch hook) and both two-dataset joins run too; the
dual-tree join (:mod:`repro.core.dual`) hands the executors below its
second tree as ``other``, whose leaves' links are cross links.

Theorem 1 (completeness — every qualifying pair is implied by the output)
and Theorem 2 (correctness — no non-qualifying pair is implied) hold by
construction; the test suite re-verifies both against a brute-force join
for randomised inputs.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

import numpy as np

from repro.core.frontier import traverse
from repro.core.groups import GroupBuffer, apply_events, link_events
from repro.core.metricspace import BallGroupBuffer, ObjectMetric
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import BudgetExceededError, InvalidInputError, validate_eps
from repro.index.base import SpatialIndex
from repro.index.packed import pack_index
from repro.io.pagesim import NodePager
from repro.io.writer import width_for
from repro.obs.logging import get_logger
from repro.obs.tracing import span as trace_span

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = [
    "csj",
    "ncsj",
    "tree_join",
    "tree_task_delta",
    "make_window",
    "packed_node_group_delta",
    "packed_pair_group_delta",
    "leaf_self_delta",
    "leaf_cross_delta",
    "leaf_window_delta",
    "leaf_windows",
    "LEAF_WINDOW",
    "tree_plan",
    "unit_batches",
    "run_batches",
    "serial_join",
]

logger = get_logger("core.csj")

#: Largest load of one leaf window (:func:`leaf_windows`): padded
#: candidate pairs plus half of each group unit's ids.  It equals one
#: 64 x 64 leaf pair, so a window never needs more scratch memory than a
#: fanout-64 unit evaluated on its own, and an N-CSJ window writes at
#: most the bytes of 4,096 links.
LEAF_WINDOW = 4096


# ---------------------------------------------------------------------------
# Pure per-task executors
#
# Each returns a description of the task's output (the event vocabulary
# of :func:`repro.core.groups.apply_events`) instead of writing anywhere,
# so one loop, :func:`run_batches`, replays it for the serial joins, the
# checkpointed driver and pool workers alike.
# ---------------------------------------------------------------------------

def packed_node_group_delta(points: np.ndarray, packed, nid: int) -> list:
    """Events for one early-stopped subtree (Figure 3, lines 2-3).

    R-tree nodes already carry an MBR ("these shapes can be used
    directly", Section V-A); ball-shaped nodes over vectors fall back to
    the exact point MBR, which costs one pass over points we are about to
    write out anyway.  Over an :class:`ObjectMetric` the group is the
    node's covering ball, ``("group", ids, center_row, radius)``.
    """
    ids = packed.subtree_entry_ids(nid)
    if len(ids) < 2:
        return []  # a singleton implies no links; nothing to report
    if packed.kind == "rect":
        lo = packed.lo[nid].tolist()
        hi = packed.hi[nid].tolist()
    elif isinstance(packed.metric, ObjectMetric):
        center = packed.centers[nid].tolist()
        return [("group", ids.tolist(), center, float(packed.radii[nid]))]
    else:
        pts = points[ids]
        lo = pts.min(axis=0).tolist()
        hi = pts.max(axis=0).tolist()
    return [("group", ids.tolist(), lo, hi)]


def packed_pair_group_delta(
    points: np.ndarray, packed, nid1: int, nid2: int, other=None
) -> list:
    """Events for one early-stopped node pair (Figure 3, lines 20-21).

    The rect bounds are the union of the two packed MBR rows.  Over an
    :class:`ObjectMetric` the group is the ball around the first node's
    center that covers both: radius ``max(r1, d(c1, c2) + r2)``.  That
    center distance is not charged: the traversal's union-diameter test
    evaluated it and charged an mbr check.  Given ``other``, ``nid2`` is
    its node: a group pair of two datasets, side b's ids tagged ``~j``,
    bounded by its points unless both nodes are rectangles and dropped
    when a side is empty.
    """
    q = packed if other is None else other
    ids_a, ids_b = packed.subtree_entry_ids(nid1), q.subtree_entry_ids(nid2)
    ids = np.concatenate([ids_a, ids_b if other is None else ~ids_b])
    if len(ids) < 2 or other is not None and not (len(ids_a) and len(ids_b)):
        return []
    if packed.kind == "rect":
        lo = np.minimum(packed.lo[nid1], q.lo[nid2]).tolist()
        hi = np.maximum(packed.hi[nid1], q.hi[nid2]).tolist()
    elif other is None and isinstance(packed.metric, ObjectMetric):
        c1 = packed.centers[nid1]
        d = packed.metric.distance(c1, packed.centers[nid2])
        radius = max(float(packed.radii[nid1]), d + float(packed.radii[nid2]))
        return [("group", ids.tolist(), c1.tolist(), radius)]
    else:
        pts_b = (points if other is None else q.points)[ids_b]
        pts = np.vstack([points[ids_a], pts_b])
        lo = pts.min(axis=0).tolist()
        hi = pts.max(axis=0).tolist()
    return [("group", ids.tolist(), lo, hi)]


def leaf_self_delta(
    points: np.ndarray, metric, eps: float, ids, g: int
) -> tuple[list, int]:
    """Pure leaf self-join task: ``(events, distance_computations)``.

    With ``g == 0`` residual links go out individually (SSJ / N-CSJ);
    with ``g > 0`` they are described as a ``linkseq`` to be routed
    through the merge window by whoever applies the events.
    """
    id_arr = np.asarray(ids, dtype=np.intp)
    k = len(id_arr)
    if k < 2:
        return [], 0
    pts = points[id_arr]
    # Condensed upper-triangle distances: same values and pair order as
    # the full k x k matrix masked with triu, at ~half the peak memory.
    t_rows, t_cols, dists = metric.condensed_self(pts)
    hit = np.flatnonzero(dists < eps)
    events = link_events(id_arr, id_arr, pts, pts, t_rows[hit], t_cols[hit], g > 0)
    return events, k * (k - 1) // 2


def leaf_cross_delta(
    points: np.ndarray, metric, eps: float, ids1, ids2, g: int, points2=None
) -> tuple[list, int]:
    """Pure leaf cross-join twin of :func:`leaf_self_delta`; ``ids2``
    index ``points2`` when given, and the links are cross links."""
    arr1 = np.asarray(ids1, dtype=np.intp)
    arr2 = np.asarray(ids2, dtype=np.intp)
    if not len(arr1) or not len(arr2):
        return [], 0
    pts1 = points[arr1]
    pts2 = (points if points2 is None else points2)[arr2]
    # Row-major hits, as a 2-D nonzero gives them, at half its cost.
    rows, cols = np.divmod(np.flatnonzero(metric.pairwise(pts1, pts2) < eps), len(arr2))
    events = link_events(
        arr1, arr2, pts1, pts2, rows, cols, g > 0, points2 is not None
    )
    return events, len(arr1) * len(arr2)


def leaf_window_delta(
    points: np.ndarray, metric, eps: float, packed, units: list, g: int,
    other=None,
) -> tuple[list, tuple[int, int, int]]:
    """Run one window of work units: ``(events, (dc, mbr_checks, early_stops))``.

    The ``self`` / ``cross`` units are evaluated together: their leaves'
    rows of :meth:`~repro.index.packed.PackedIndex.leaf_blocks`, cut or
    padded to ``M`` columns, ``M`` the window's largest leaf, form one
    ``(K, M, d)`` array per side, and one batched
    :meth:`Metric.pairwise` call gives ``(K, M, M)`` distances whose
    values are those of a unit's own ``pairwise`` or ``condensed_self``.
    A padded slot's point is NaN, so its distances fail ``< eps`` and
    need no mask; one mask drops ``r >= c`` in self units, if there are
    any.  The hits, in row-major order of the ``(K * M, M)`` hit matrix,
    come unit by unit: the order of :func:`leaf_self_delta` /
    :func:`leaf_cross_delta` run one after another.  The ``group`` /
    ``pgroup`` units run through :func:`tree_task_delta`, and the hit
    list is split at each one's position, so the events are those of the
    units run one by one, in order, with consecutive link events merged,
    and the counters are their sums.  A window with fewer than two leaf
    units runs every unit through :func:`tree_task_delta`.  Given
    ``other``, each unit's second node is ``other``'s.
    """
    run_unit = partial(tree_task_delta, points, metric, eps, g, packed, other=other)
    a: list = []
    b: list = []
    cuts: list = []  # (leaf units before it, group unit)
    selfs = 0
    for unit in units:
        kind = unit[0]
        if kind == "cross":
            a.append(unit[1])
            b.append(unit[2])
        elif kind == "self":
            a.append(unit[1])
            b.append(unit[1])
            selfs += 1
        else:
            cuts.append((len(a), unit))
    if len(a) < 2:
        events, dc, stops = [], 0, 0
        for unit in units:
            unit_events, (unit_dc, _, unit_stops) = run_unit(unit)
            events += unit_events
            dc += unit_dc
            stops += unit_stops
        return events, (dc, 0, stops)
    q = packed if other is None else other
    a = np.array(a, dtype=np.intp)
    b = np.array(b, dtype=np.intp)
    len_a, len_b = packed.counts.take(a), q.counts.take(b)
    m = int(max(len_a.max(), len_b.max()))
    ids_a, pts_a = _window_block(packed, a, m)
    ids_b, pts_b = _window_block(q, b, m)
    hit = metric.pairwise(pts_a, pts_b) < eps
    dc = int(np.dot(len_a, len_b))
    if selfs:
        is_self = a == b  # a cross unit joins two distinct leaves
        slot = np.arange(m)
        hit &= (slot[:, None] < slot) | ~is_self[:, None, None]
        own = len_a[is_self]
        dc -= int(np.dot(own, own + 1)) // 2
    # Hit (k, r, c) pairs gathered row k * M + r of side a with row
    # k * M + c of side b.
    rows, cols = np.divmod(np.flatnonzero(hit), m)
    first = rows % m
    np.subtract(rows, first, out=first)
    cols += first
    del first
    events = link_events(
        ids_a.ravel(), ids_b.ravel(),
        pts_a.reshape(-1, pts_a.shape[-1]), pts_b.reshape(-1, pts_b.shape[-1]),
        rows, cols, g > 0, other is not None,
    )
    if not cuts:
        return events, (dc, 0, 0)
    # Rows are unit-major: the hits of the units before a group are the
    # rows below its first leaf unit's block.
    ends = np.searchsorted(rows, [k * m for k, _ in cuts]).tolist()
    merged: list = []
    start = 0
    for end, (_, unit) in zip(ends + [len(rows)], cuts + [(0, None)]):
        if end > start:
            kind, *fields = events[0]
            merged.append((kind, *(field[start:end] for field in fields)))
            start = end
        if unit is not None:
            merged += run_unit(unit)[0]
    return merged, (dc, 0, len(cuts))


def _window_block(packed, leaves: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(K, m)`` ids and ``(K, m, d)`` points of ``leaves``' padded rows."""
    ids, pts = packed.leaf_blocks()
    ids, pts = ids.take(leaves, axis=0), pts.take(leaves, axis=0)
    width = ids.shape[1]
    if width > m:
        return ids[:, :m], pts[:, :m]
    if width < m:  # every leaf of this tree is narrower than the window
        pad = m - width
        ids = np.pad(ids, ((0, 0), (0, pad)), mode="edge")
        pts = np.pad(pts, ((0, 0), (0, pad), (0, 0)), constant_values=np.nan)
    return ids, pts


def tree_task_delta(
    points: np.ndarray, metric, eps: float, g: int, packed, task: tuple,
    other=None,
) -> tuple[list, tuple[int, int, int]]:
    """Run one tree work unit: ``(events, (dc, mbr_checks, early_stops))``.

    ``task`` is a unit of :func:`repro.core.frontier.traverse` (given
    ``other``, of its walk from the two roots).  The leaf executors are
    looked up in this module's globals on every call.
    """
    kind = task[0]
    if kind == "group":
        return packed_node_group_delta(points, packed, task[1]), (0, 0, 1)
    if kind == "pgroup":
        events = packed_pair_group_delta(points, packed, task[1], task[2], other)
        return events, (0, 0, 1)
    if kind == "self":
        events, dc = leaf_self_delta(
            points, metric, eps, packed.leaf_entry_ids(task[1]), g
        )
        return events, (dc, 0, 0)
    q = packed if other is None else other
    events, dc = leaf_cross_delta(
        points, metric, eps, packed.leaf_entry_ids(task[1]),
        q.leaf_entry_ids(task[2]), g, None if other is None else q.points,
    )
    return events, (dc, 0, 0)


def leaf_windows(units: Iterator[tuple], packed, other=None) -> Iterator[list]:
    """Cut a unit sequence into the batches :func:`tree_join` executes.

    A *leaf window* holds units of every kind.  It closes at the end of
    the sequence and before a unit that would lift its *load* past
    :data:`LEAF_WINDOW`: its padded leaf candidates, ``leaf units * M**2``
    with ``M`` its largest leaf, plus half of each group unit's ids,
    rounded up.  A group line of ``k`` ids takes the bytes of ``k / 2``
    links, so an N-CSJ window writes at most ``LEAF_WINDOW`` links' worth
    of bytes.  Concatenated, the batches are ``units``.  Given ``other``,
    a unit's second node is ``other``'s.
    """
    counts = packed.counts.tolist()
    counts2 = counts if other is None else other.counts.tolist()
    window: list = []
    leaves = width = extra = 0
    for unit in units:
        kind = unit[0]
        if kind == "cross" or kind == "self":
            own = max(counts[unit[1]], counts2[unit[-1]])
            grown = own if own > width else width
            if window and (leaves + 1) * grown * grown + extra > LEAF_WINDOW:
                yield window
                window, leaves, extra, grown = [], 0, 0, own
            leaves += 1
            width = grown
        else:
            ids = counts[unit[1]] + (counts2[unit[2]] if kind == "pgroup" else 0)
            half = (ids + 1) // 2
            if window and leaves * width * width + extra + half > LEAF_WINDOW:
                yield window
                window, leaves, extra, width = [], 0, 0, 0
            extra += half
        window.append(unit)
    if window:
        yield window


def make_window(g: int, eps: float, sink: JoinSink, metric, stats=None, dim=None):
    """The CSJ(g) merge window for ``metric``.

    An :class:`ObjectMetric` has no coordinates, so its groups are balls
    (:class:`~repro.core.metricspace.BallGroupBuffer`); every vector
    metric gets MBR groups (:class:`~repro.core.groups.GroupBuffer`).
    Both take the events of :func:`tree_task_delta` through the same
    ``create_group`` / ``add_links`` calls.
    """
    if isinstance(metric, ObjectMetric):
        return BallGroupBuffer(g, eps, sink, metric, stats=stats)
    return GroupBuffer(g, eps, sink, metric=metric, stats=stats, dim=dim)


def tree_plan(
    units: Iterable[tuple], points: np.ndarray, metric, eps: float, g: int, packed,
    other=None,
) -> tuple[Iterator[list], Callable]:
    """Tree work units as ``(batches, execute)`` for :func:`run_batches`.

    This is the one place that decides how tree units are batched: over a
    vector metric, in :func:`leaf_windows`, a window of two or more units
    run by :func:`leaf_window_delta` and a lone unit by
    :func:`tree_task_delta`; over an :class:`ObjectMetric`, which has no
    ``norm_rows`` to batch, every unit alone.  A batch's events and counter sums are those
    of running its units one by one, also for the two-dataset walk from
    the roots of ``packed`` and ``other``.
    """
    run_unit = partial(tree_task_delta, points, metric, eps, g, packed, other=other)
    if isinstance(packed.metric, ObjectMetric):
        return unit_batches(units, run_unit)

    def execute(batch: list) -> tuple[list, tuple[int, int, int]]:
        if len(batch) == 1:
            return run_unit(batch[0])
        return leaf_window_delta(points, metric, eps, packed, batch, g, other)

    return leaf_windows(units, packed, other), execute


# ---------------------------------------------------------------------------
# The serial join loop
# ---------------------------------------------------------------------------

def unit_batches(units: Iterable, execute: Callable) -> tuple[Iterator[list], Callable]:
    """Listed ``units`` as one-unit batches for :func:`run_batches`.

    Returns ``(batches, run)``, where ``run`` calls ``execute`` on the
    batch's one unit.  Grid cells and partitions run this way.
    """
    return ([unit] for unit in units), lambda batch: execute(batch[0])


def run_batches(
    batches: Iterable[list],
    execute: Callable[[list], tuple[list, tuple[int, int, int]]],
    sink: JoinSink,
    buffer,
    stats,
    budget: Optional["Budget"] = None,
    after_batch: Optional[Callable[[int], None]] = None,
) -> None:
    """The serial join loop, shared by every serial and checkpointed run.

    For each batch of work units ``execute(batch)`` returns ``(events,
    (dc, mbr_checks, early_stops))``.  The counters are charged to
    ``stats``, the events replayed into ``sink`` and the merge window
    ``buffer`` by :func:`repro.core.groups.apply_events`, and then
    ``after_batch(len(batch))`` is called: the checkpoint hook.
    ``budget`` is checked before each batch (the tree walk checks its
    own, node by node, and passes none), so a breach drops a pending
    batch whole, never half applied.  ``apply_events`` is looked up in
    this module's globals on every call.
    """
    for batch in batches:
        if budget is not None:
            budget.check(stats)
        events, (dc, mbr, stops) = execute(batch)
        stats.distance_computations += dc
        stats.mbr_checks += mbr
        stats.early_stops += stops
        apply_events(events, sink, buffer)
        if after_batch is not None:
            after_batch(len(batch))


def serial_join(
    body: Callable[[], None],
    sink: JoinSink,
    buffer,
    budget: Optional["Budget"],
    result: dict,
    span_algorithm: str,
) -> JoinResult:
    """Run one in-memory join: ``body()`` inside the join's clock.

    ``body`` lists the work and runs it through :func:`run_batches` in the
    join's own spans; the merge window ``buffer`` is flushed after it.
    ``result`` holds the keywords of
    :meth:`~repro.core.results.JoinResult.from_sink`.  A breached
    ``budget`` flushes the window first, so the sink holds a valid prefix
    of the output, which is attached to the raised
    :class:`~repro.errors.BudgetExceededError` as ``exc.partial``.
    """
    stats = sink.stats
    if budget is not None:
        budget.start()
    mark = stats.clock()
    try:
        body()
        if buffer is not None:
            with trace_span("emit", algorithm=span_algorithm):
                buffer.flush()
    except BudgetExceededError as exc:
        if buffer is not None:
            buffer.flush()
        stats.charge_compute(mark)
        logger.warning(
            "serial join budget breach",
            extra={
                "algorithm": result["algorithm"], "kind": exc.kind, "limit": exc.limit,
            },
        )
        exc.partial = JoinResult.from_sink(sink, **result)
        raise
    stats.charge_compute(mark)
    return JoinResult.from_sink(sink, **result)


def tree_join(
    tree: SpatialIndex,
    eps: float,
    g: int,
    compact: bool,
    sink: JoinSink,
    pager: Optional[NodePager],
    budget: Optional["Budget"],
    label: str,
) -> JoinResult:
    """Run SSJ (``compact=False``), N-CSJ or CSJ(g) serially on ``tree``.

    The lazy walk of :func:`repro.core.frontier.traverse` runs through
    :func:`run_batches`, inside :func:`serial_join`, as :func:`tree_plan`
    batches it: one leaf window at a time, group units included.  The
    sink and the merge window receive the calls of running every unit
    through :func:`tree_task_delta`, and the counters end as per-unit
    runs leave them, a window's ``distance_computations`` and
    ``early_stops`` charged at once.

    The walk checks the ``budget`` up to one leaf window ahead of the
    sink, so a byte or group breach is seen up to one window (a load of
    at most :data:`LEAF_WINDOW`: 4,096 links' worth of N-CSJ bytes)
    later than unit by unit.  The pending units of a window are dropped
    at a breach, never half applied, and a breach first reached by the
    final window is not raised, as one reached by the final unit never
    was.
    """
    radius = float(eps)
    stats = sink.stats
    buffer = None
    attrs = {}
    if compact:
        dim = tree.points.shape[1] if tree.points.ndim == 2 else None
        buffer = make_window(g, radius, sink, tree.metric, stats=stats, dim=dim)
        attrs["g"] = g

    def body():
        with trace_span("descend", algorithm=label, eps=eps, **attrs):
            if tree.root is not None and tree.size > 1:
                packed = pack_index(tree)
                units = traverse(packed, radius, compact, stats, budget, pager)
                batches, execute = tree_plan(
                    units, tree.points, tree.metric, radius, g, packed
                )
                run_batches(batches, execute, sink, buffer, stats)

    result = serial_join(
        body, sink, buffer, budget,
        dict(eps=eps, algorithm=label, g=attrs.get("g"), index_name=type(tree).name),
        label,
    )
    if pager is not None:
        stats.page_reads += pager.cache.misses
        stats.cache_hits += pager.cache.hits
    logger.debug(
        "tree join finished",
        extra={
            "algorithm": label,
            "links_emitted": stats.links_emitted,
            "groups_emitted": stats.groups_emitted,
            "bytes_written": stats.bytes_written,
            "distance_computations": stats.distance_computations,
            "early_stops": stats.early_stops,
            "merge_successes": stats.merge_successes,
        },
    )
    return result


def csj(
    tree: SpatialIndex,
    eps: float,
    g: int = 10,
    sink: Optional[JoinSink] = None,
    pager: Optional[NodePager] = None,
    budget: Optional["Budget"] = None,
) -> JoinResult:
    """Run the compact similarity join CSJ(g) on ``tree``.

    ``g`` is the merge-window length; the paper recommends ``g ~ 10``
    (Figure 6).  ``g = 0`` degenerates to N-CSJ.  Returns a
    :class:`~repro.core.results.JoinResult` whose groups and links together
    imply exactly the SSJ output (Theorems 1 and 2).

    A breached ``budget`` stops the run cleanly: the in-flight group
    window is flushed first, so the sink holds a valid prefix of the
    output (every emitted link and group individually correct), which is
    attached to the raised :class:`~repro.errors.BudgetExceededError` as
    ``exc.partial``.  Byte and group limits are seen up to one leaf
    window late (see :func:`tree_join`).
    """
    eps = validate_eps(eps)
    if g < 0:
        raise InvalidInputError(f"window size g must be >= 0, got {g}")
    if sink is None:
        sink = CollectSink(id_width=width_for(tree.size))
    label = f"csj({g})" if g else "ncsj"
    return tree_join(tree, eps, int(g), True, sink, pager, budget, label)


def ncsj(
    tree: SpatialIndex,
    eps: float,
    sink: Optional[JoinSink] = None,
    pager: Optional[NodePager] = None,
    budget: Optional["Budget"] = None,
) -> JoinResult:
    """Run the naive compact similarity join N-CSJ on ``tree``.

    Early stopping on tree nodes only; links that cross nodes are written
    individually, exactly like SSJ (Section IV-B).
    """
    return csj(tree, eps, g=0, sink=sink, pager=pager, budget=budget)
