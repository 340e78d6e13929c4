"""Compact similarity joins for general metric spaces (Section VII).

The paper's Discussion argues the algorithms "are equally applicable to
metric space, and the gains carry over", because they only require the
inclusion property and node-distance bounds.  For *vector* data our CSJ
already runs on the M-tree; this module completes the claim for data with
no coordinates at all — strings under edit distance, or any user metric:

* :class:`ObjectMetric` adapts a ``distance(a, b)`` callable over
  arbitrary objects to the library's :class:`~repro.geometry.metrics.Metric`
  interface by indexing: each "point" is its object id, so every existing
  index and traversal works unchanged;
* :class:`BallGroupBuffer` replaces the MBR group boundary with a metric
  *ball* (center object + radius): all members mutually satisfy the range
  whenever ``2 * radius < eps`` — the constant-time membership test of
  Section V-A, minus the vector-space assumption;
* :func:`metric_csj` runs N-CSJ / CSJ(g) over an M-tree of objects with
  ball groups, and :func:`metric_similarity_join` is the one-call API.

Ball groups are more conservative than MBRs (a ball of diameter < eps is
the largest shape with a one-distance membership test), so compaction
rates are lower than in the vector case — the trade-off the paper
discusses when rejecting bounding circles for vectors.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import InvalidInputError
from repro.geometry.metrics import Metric
from repro.index import get_index_class
from repro.index.mtree import MTree
from repro.io.writer import width_for
from repro.stats.counters import JoinStats

__all__ = [
    "ObjectMetric",
    "check_object_metric",
    "BallGroupBuffer",
    "build_metric_index",
    "metric_csj",
    "metric_similarity_join",
    "brute_force_object_links",
]


class ObjectMetric(Metric):
    """Adapts ``distance(a, b)`` over arbitrary objects to the Metric API.

    Points handed to the index are 1-D "coordinates" holding object ids;
    every distance evaluation dereferences the ids and calls the user
    function.  ``norm_rows`` is undefined — object metrics are not
    translation invariant — so any code path assuming vector geometry
    fails loudly instead of silently producing nonsense.
    """

    def __init__(self, objects: Sequence, distance_fn: Callable, name: str = "object"):
        self.objects = list(objects)
        self._fn = distance_fn
        self.name = f"object-{name}"

    def norm_rows(self, diffs: np.ndarray) -> np.ndarray:
        raise TypeError(
            "object metrics have no vector norm; only distance() and the "
            "pairwise helpers are defined"
        )

    def _resolve(self, coord) -> object:
        return self.objects[int(round(float(np.asarray(coord).ravel()[0])))]

    def distance(self, a, b) -> float:
        return float(self._fn(self._resolve(a), self._resolve(b)))

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        rows_a = np.atleast_2d(np.asarray(a, dtype=float))
        rows_b = np.atleast_2d(np.asarray(b, dtype=float))
        out = np.empty((len(rows_a), len(rows_b)))
        objs_a = [self._resolve(r) for r in rows_a]
        objs_b = [self._resolve(r) for r in rows_b]
        for i, oa in enumerate(objs_a):
            for j, ob in enumerate(objs_b):
                out[i, j] = self._fn(oa, ob)
        return out

    def paired(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        rows_a = np.atleast_2d(np.asarray(a, dtype=float))
        rows_b = np.atleast_2d(np.asarray(b, dtype=float))
        return np.array(
            [self._fn(self._resolve(x), self._resolve(y)) for x, y in zip(rows_a, rows_b)],
            dtype=float,
        )

    def self_pairwise(self, a: np.ndarray) -> np.ndarray:
        return self.pairwise(a, a)

    def condensed_self(self, a: np.ndarray):
        # The vector-space base implementation needs norm_rows; evaluate
        # the user function per upper-triangle pair instead.
        from repro.geometry.metrics import triu_pair_indices

        rows_a = np.atleast_2d(np.asarray(a, dtype=float))
        rows, cols = triu_pair_indices(len(rows_a))
        objs = [self._resolve(r) for r in rows_a]
        dists = np.fromiter(
            (self._fn(objs[r], objs[c]) for r, c in zip(rows.tolist(), cols.tolist())),
            dtype=float,
            count=len(rows),
        )
        return rows, cols, dists

    def point_to_points(self, p, pts: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(pts, dtype=float))
        target = self._resolve(p)
        return np.array([self._fn(target, self._resolve(r)) for r in rows])


def check_object_metric(metric, algorithm: str, g: int, index) -> None:
    """Reject an :class:`ObjectMetric` wherever a join needs coordinates.

    Object metrics have no coordinates, so grids, partitions, rectangle
    trees and the CSJ(g) merge window cannot use them.  Only ssj and
    ncsj (csj with ``g = 0``) on an M-tree run exactly over them;
    everything else raises :class:`~repro.errors.InvalidInputError`.
    ``index`` is an index name or a built index.
    """
    if not isinstance(metric, ObjectMetric):
        return
    cls = get_index_class(index) if isinstance(index, str) else type(index)
    uncompacted = algorithm in ("ssj", "ncsj") or (algorithm == "csj" and g == 0)
    if uncompacted and issubclass(cls, MTree):
        return
    raise InvalidInputError(
        f"object metric {metric.name!r} has no coordinates: only ssj and ncsj "
        f"(csj with g=0) on an mtree run over it, not {algorithm!r} with "
        f"g={g} on {getattr(cls, 'name', cls.__name__)!r}; use "
        "metric_similarity_join for compact joins over arbitrary objects"
    )


def build_metric_index(
    objects: Sequence,
    distance_fn: Callable,
    max_entries: int = 16,
    name: str = "custom",
    shuffle_seed: Optional[int] = None,
) -> MTree:
    """Build an M-tree over arbitrary objects with a user metric."""
    metric = ObjectMetric(objects, distance_fn, name=name)
    ids = np.arange(len(objects), dtype=float).reshape(-1, 1)
    return MTree(ids, metric=metric, max_entries=max_entries, shuffle_seed=shuffle_seed)


class _BallGroup:
    """An in-flight metric-space group: member ids + covering ball."""

    __slots__ = ("ids", "center", "radius")

    def __init__(self, ids: set[int], center: object, radius: float):
        self.ids = ids
        self.center = center
        self.radius = radius


class BallGroupBuffer:
    """The g-recent-group window with ball-bounded groups.

    A group is valid when ``2 * radius < eps`` *or* when it was created
    from an early-stopped node/node pair whose union diameter bound was
    below the range (such groups may carry a looser descriptive radius;
    links only merge in when the strict ball test passes).
    """

    def __init__(
        self,
        g: int,
        eps: float,
        sink: JoinSink,
        distance_fn: Callable,
        stats: Optional[JoinStats] = None,
    ):
        if g < 0:
            raise ValueError(f"window size g must be >= 0, got {g}")
        if eps <= 0:
            raise ValueError(f"query range must be positive, got {eps}")
        self.g = int(g)
        self.eps = float(eps)
        self.sink = sink
        self._fn = distance_fn
        self.stats = stats if stats is not None else sink.stats
        self._window: deque[_BallGroup] = deque()

    def create_group(
        self, ids: Sequence[int], center: object, radius: float, mergeable: bool = True
    ) -> None:
        group = _BallGroup(set(int(i) for i in ids), center, float(radius))
        if self.g == 0 or not mergeable:
            # Non-mergeable groups (loose radius) are written through.
            self._write_out(group)
            return
        self._window.append(group)
        if len(self._window) > self.g:
            self._write_out(self._window.popleft())

    def add_link(self, i: int, j: int, obj_i: object, obj_j: object) -> None:
        """mergeIntoPrevGroup with the ball membership test."""
        if self.g > 0:
            half = self.eps / 2.0
            for group in reversed(self._window):
                self.stats.merge_attempts += 1
                d_i = self._fn(group.center, obj_i)
                d_j = self._fn(group.center, obj_j)
                self.stats.distance_computations += 2
                new_radius = max(group.radius, d_i, d_j)
                if new_radius < half:
                    group.radius = new_radius
                    group.ids.add(int(i))
                    group.ids.add(int(j))
                    self.stats.merge_successes += 1
                    return
            d = self._fn(obj_i, obj_j)
            self.stats.distance_computations += 1
            if 2.0 * d < self.eps:
                # The link itself seeds a valid mergeable ball.
                self.create_group((i, j), obj_i, d)
                return
        self.sink.write_link(int(i), int(j))

    def _write_out(self, group: _BallGroup) -> None:
        if len(group.ids) == 2:
            i, j = group.ids
            self.sink.write_link(i, j)
        elif len(group.ids) > 2:
            self.sink.write_group(sorted(group.ids))

    def flush(self) -> None:
        while self._window:
            self._write_out(self._window.popleft())


def metric_csj(
    tree: MTree,
    eps: float,
    g: int = 10,
    sink: Optional[JoinSink] = None,
) -> JoinResult:
    """Compact similarity join over an object M-tree with ball groups.

    ``g = 0`` gives the naive variant (early stopping only).  The tree
    must have been built by :func:`build_metric_index` (its metric must be
    an :class:`ObjectMetric`).
    """
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    metric = tree.metric
    if not isinstance(metric, ObjectMetric):
        raise TypeError(
            "metric_csj needs an ObjectMetric tree; for vector data use "
            "repro.core.csj.csj, which produces tighter MBR groups"
        )
    if sink is None:
        sink = CollectSink(id_width=width_for(tree.size))
    objects = metric.objects
    fn = metric._fn
    stats = sink.stats
    buffer = BallGroupBuffer(g, eps, sink, fn, stats=stats)

    def object_of(node) -> object:
        return objects[int(round(float(tree.points[node.router, 0])))]

    def leaf_ids(node) -> list[int]:
        return [int(round(float(tree.points[pid, 0]))) for pid in node.entry_ids]

    def emit_node_group(node) -> None:
        stats.early_stops += 1
        ids = [int(round(float(tree.points[pid, 0]))) for pid in node.subtree_ids()]
        if len(ids) >= 2:
            buffer.create_group(
                ids, object_of(node), node.radius, mergeable=2 * node.radius < eps
            )

    def emit_pair_group(n1, n2) -> None:
        stats.early_stops += 1
        ids = [
            int(round(float(tree.points[pid, 0])))
            for pid in np.concatenate([n1.subtree_ids(), n2.subtree_ids()])
        ]
        if len(ids) < 2:
            return
        d = fn(object_of(n1), object_of(n2))
        stats.distance_computations += 1
        radius = max(n1.radius, d + n2.radius)
        buffer.create_group(
            ids, object_of(n1), radius, mergeable=2 * radius < eps
        )

    def leaf_self(node) -> None:
        ids = leaf_ids(node)
        k = len(ids)
        if k < 2:
            return
        objs = [objects[i] for i in ids]
        stats.distance_computations += k * (k - 1) // 2
        for a in range(k):
            for b in range(a + 1, k):
                if fn(objs[a], objs[b]) < eps:
                    buffer.add_link(ids[a], ids[b], objs[a], objs[b])

    def leaf_cross(n1, n2) -> None:
        ids1, ids2 = leaf_ids(n1), leaf_ids(n2)
        objs1 = [objects[i] for i in ids1]
        objs2 = [objects[i] for i in ids2]
        stats.distance_computations += len(ids1) * len(ids2)
        for a, oa in zip(ids1, objs1):
            for b, ob in zip(ids2, objs2):
                if fn(oa, ob) < eps:
                    buffer.add_link(a, b, oa, ob)

    def join_node(node) -> None:
        stats.nodes_visited += 1
        stats.mbr_checks += 1
        if node.diameter(metric) < eps:
            emit_node_group(node)
            return
        if node.is_leaf:
            leaf_self(node)
            return
        children = node.children
        for child in children:
            join_node(child)
        for a in range(len(children)):
            for b in range(a + 1, len(children)):
                stats.mbr_checks += 1
                if children[a].min_dist(children[b], metric) < eps:
                    join_pair(children[a], children[b])

    def join_pair(n1, n2) -> None:
        stats.node_pairs_visited += 1
        stats.mbr_checks += 1
        if n1.union_diameter(n2, metric) < eps:
            emit_pair_group(n1, n2)
            return
        if n1.is_leaf and n2.is_leaf:
            leaf_cross(n1, n2)
            return
        if n1.is_leaf:
            n1, n2 = n2, n1
        for child in n1.children:
            stats.mbr_checks += 1
            if child.min_dist(n2, metric) < eps:
                join_pair(child, n2)

    start = time.perf_counter()
    if tree.root is not None and tree.size > 1:
        join_node(tree.root)
    buffer.flush()
    stats.compute_time += time.perf_counter() - start - stats.write_time
    label = f"metric-csj({g})" if g else "metric-ncsj"
    return JoinResult.from_sink(sink, eps=eps, algorithm=label, g=g, index_name="mtree")


def metric_similarity_join(
    objects: Sequence,
    eps: float,
    distance_fn: Callable,
    g: int = 10,
    max_entries: int = 16,
    sink: Optional[JoinSink] = None,
    name: str = "custom",
) -> JoinResult:
    """One-call compact similarity join over arbitrary metric objects.

    >>> words = ["cat", "bat", "hat", "zzzzzz"]
    >>> def ham(a, b):
    ...     return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    >>> result = metric_similarity_join(words, eps=2, distance_fn=ham)
    >>> sorted(result.expanded_links())
    [(0, 1), (0, 2), (1, 2)]
    """
    tree = build_metric_index(objects, distance_fn, max_entries=max_entries, name=name)
    return metric_csj(tree, eps, g=g, sink=sink)


def brute_force_object_links(
    objects: Sequence, eps: float, distance_fn: Callable
) -> set[tuple[int, int]]:
    """O(n^2) ground truth for object metric joins (strict ``< eps``)."""
    n = len(objects)
    links = set()
    for i in range(n):
        for j in range(i + 1, n):
            if distance_fn(objects[i], objects[j]) < eps:
                links.add((i, j))
    return links
