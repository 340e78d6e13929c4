"""Dual-tree spatial joins between two datasets (Section IV-D).

The self-join algorithms adapt directly to spatial joins: only the
two-node subroutine is invoked, starting from the two roots.  Output
semantics change, though — a spatial join reports only *cross* pairs, one
point from each dataset, so the compact output consists of **group
pairs** ``(A, B)`` standing for all links in ``A x B``.  The invariant is
the same as for self-join groups: the combined MBR of ``A ∪ B`` has a
diagonal strictly below the query range, which guarantees every cross pair
qualifies.

As the paper observes, when the two datasets populate the same dense
regions their indexes place similarly small nodes there, so the dual-node
early stop still fires where an output explosion threatens; with disjoint
distributions the inclusion check rarely succeeds, but then there is no
explosion to control either.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.core.frontier import traverse
from repro.core.metricspace import ObjectMetric
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import InvalidInputError
from repro.index.base import SpatialIndex
from repro.index.packed import pack_index
from repro.io.writer import width_for

__all__ = ["spatial_join", "compact_spatial_join", "PairWindow"]


def spatial_join(
    tree_a: SpatialIndex,
    tree_b: SpatialIndex,
    eps: float,
    sink: Optional[JoinSink] = None,
) -> JoinResult:
    """Standard dual-tree spatial join: every cross link individually.

    Link ids are positional: ``(i, j)`` means row ``i`` of ``tree_a``'s
    points and row ``j`` of ``tree_b``'s.  Links are therefore *not*
    normalised to ``i < j`` — the two sides are different relations.
    """
    return _dual_join(tree_a, tree_b, eps, sink, g=None, label="ssj-spatial")


def compact_spatial_join(
    tree_a: SpatialIndex,
    tree_b: SpatialIndex,
    eps: float,
    g: int = 10,
    sink: Optional[JoinSink] = None,
) -> JoinResult:
    """Compact dual-tree spatial join: group pairs plus residual links.

    ``g = 0`` gives the naive variant (early stop only, no link merging),
    mirroring N-CSJ.  The pair-group window bounds groups by rectangles,
    so over an :class:`~repro.core.metricspace.ObjectMetric` only
    ``g = 0`` runs; ``g > 0`` raises
    :class:`~repro.errors.InvalidInputError` before any work.
    """
    if g < 0:
        raise ValueError(f"window size g must be >= 0, got {g}")
    if g > 0 and isinstance(tree_a.metric, ObjectMetric):
        raise InvalidInputError(
            f"object metric {tree_a.metric.name!r} has no coordinates for the "
            "spatial join's rectangle merge window; run it with g=0"
        )
    label = f"csj({g})-spatial" if g else "ncsj-spatial"
    return _dual_join(tree_a, tree_b, eps, sink, g=g, label=label)


def _dual_join(tree_a, tree_b, eps, sink, g, label) -> JoinResult:
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    if tree_a.metric != tree_b.metric:
        raise ValueError(
            f"metric mismatch: {tree_a.metric.name} vs {tree_b.metric.name}"
        )
    packed_a = pack_index(tree_a)
    packed_b = pack_index(tree_b)
    if (
        packed_a is not None
        and packed_b is not None
        and packed_a.kind != packed_b.kind
    ):
        raise InvalidInputError(
            f"spatial join needs two indexes of one family: {type(tree_a).name} "
            f"has {packed_a.kind} nodes, {type(tree_b).name} has {packed_b.kind} nodes"
        )
    if sink is None:
        sink = CollectSink(id_width=width_for(max(tree_a.size, tree_b.size)))
    runner = _DualRunner(tree_a, tree_b, eps, g, sink)
    mark = sink.stats.clock()
    if packed_a is not None and packed_b is not None:
        runner.run(packed_a, packed_b)
    runner.window.flush()
    sink.stats.charge_compute(mark)
    return JoinResult.from_sink(
        sink, eps=eps, algorithm=label, g=g, index_name=type(tree_a).name
    )


class _PairGroup:
    """An in-flight spatial-join group: one id set per side, joint bounds."""

    __slots__ = ("ids_a", "ids_b", "lo", "hi")

    def __init__(self, ids_a: set[int], ids_b: set[int], lo: list, hi: list):
        self.ids_a = ids_a
        self.ids_b = ids_b
        self.lo = lo
        self.hi = hi


class PairWindow:
    """The pair-group merge window of the compact spatial joins.

    mergeIntoPrevGroup for cross links: :meth:`add_link` merges a link
    into the most recent of the last ``g`` pair groups whose joint bounds
    stay below the range with it, or opens a new group.  A group pushed
    out of the window, or left in it at :meth:`flush`, is written as one
    group pair, or as a plain link when it holds one point per side.
    The dual-tree join and the spatial hash join both write through it.
    """

    def __init__(self, g: int, eps: float, sink: JoinSink, metric):
        self.g = int(g)
        self.eps = float(eps)
        self.sink = sink
        self.stats = sink.stats
        self.norm_seq = metric.norm_seq
        self._window: deque[_PairGroup] = deque()

    def add_link(self, i: int, j: int, p_i, p_j) -> None:
        """Offer the cross link ``(i, j)`` (``p_*`` are plain lists)."""
        pair_lo = [a if a < b else b for a, b in zip(p_i, p_j)]
        pair_hi = [b if a < b else a for a, b in zip(p_i, p_j)]
        for group in reversed(self._window):
            self.stats.merge_attempts += 1
            self.stats.mbr_checks += 1
            lo = [g if g < p else p for g, p in zip(group.lo, pair_lo)]
            hi = [g if g > p else p for g, p in zip(group.hi, pair_hi)]
            if self.norm_seq([h - l for l, h in zip(lo, hi)]) < self.eps:
                group.lo = lo
                group.hi = hi
                group.ids_a.add(i)
                group.ids_b.add(j)
                self.stats.merge_successes += 1
                return
        self.push(_PairGroup({i}, {j}, pair_lo, pair_hi))

    def push(self, group: _PairGroup) -> None:
        """Append ``group``, writing the oldest one past the window."""
        self._window.append(group)
        if len(self._window) > self.g:
            self.write(self._window.popleft())

    def write(self, group: _PairGroup) -> None:
        if len(group.ids_a) == 1 and len(group.ids_b) == 1:
            (i,), (j,) = group.ids_a, group.ids_b
            self.sink.write_link_raw(i, j)
            return
        self.sink.write_group_pair(group.ids_a, group.ids_b)

    def flush(self) -> None:
        while self._window:
            self.write(self._window.popleft())


class _DualRunner:
    """Output side of one (compact) spatial join: leaf joins and the
    pair-group window, fed by the traversal's pair form."""

    def __init__(self, tree_a, tree_b, eps: float, g: Optional[int], sink: JoinSink):
        self.points_a = tree_a.points
        self.points_b = tree_b.points
        self.metric = tree_a.metric
        self.eps = float(eps)
        self.compact = g is not None
        self.g = int(g) if g else 0
        self.sink = sink
        self.stats = sink.stats
        self.window = PairWindow(self.g, self.eps, sink, self.metric)

    def run(self, pa, pb) -> None:
        """Execute every unit of the walk from the pair of the two roots."""
        for task in traverse(pa, self.eps, self.compact, self.stats, other=pb):
            if task[0] == "pgroup":
                self._emit_pair_group(pa, pb, task[1], task[2])
            else:
                self._leaf_cross(
                    pa.leaf_entry_ids(task[1]).tolist(),
                    pb.leaf_entry_ids(task[2]).tolist(),
                )

    def _leaf_cross(self, ids1: list, ids2: list) -> None:
        if not ids1 or not ids2:
            return
        pts1 = self.points_a[np.asarray(ids1, dtype=np.intp)]
        pts2 = self.points_b[np.asarray(ids2, dtype=np.intp)]
        dists = self.metric.pairwise(pts1, pts2)
        self.stats.distance_computations += len(ids1) * len(ids2)
        rows, cols = np.nonzero(dists < self.eps)
        if not len(rows):
            return
        if self.g == 0:
            # Standard / naive spatial join: unnormalised individual links.
            for r, c in zip(rows.tolist(), cols.tolist()):
                self.sink.write_link_raw(ids1[r], ids2[c])
            return
        coords1 = pts1.tolist()
        coords2 = pts2.tolist()
        for r, c in zip(rows.tolist(), cols.tolist()):
            self.window.add_link(ids1[r], ids2[c], coords1[r], coords2[c])

    def _emit_pair_group(self, pa, pb, a: int, b: int) -> None:
        ids_a = pa.subtree_entry_ids(a)
        ids_b = pb.subtree_entry_ids(b)
        self.stats.early_stops += 1
        if not len(ids_a) or not len(ids_b):
            return
        if pa.kind == "rect":
            lo = np.minimum(pa.lo[a], pb.lo[b]).tolist()
            hi = np.maximum(pa.hi[a], pb.hi[b]).tolist()
        else:
            pts = np.vstack([self.points_a[ids_a], self.points_b[ids_b]])
            lo, hi = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        group = _PairGroup(set(ids_a.tolist()), set(ids_b.tolist()), lo, hi)
        if self.g > 0:
            self.window.push(group)
        else:
            self.window.write(group)
