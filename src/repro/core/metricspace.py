"""Compact similarity joins for general metric spaces (Section VII).

The paper's Discussion argues the algorithms "are equally applicable to
metric space, and the gains carry over", because they only require the
inclusion property and node-distance bounds.  This module supplies the
two pieces data with no coordinates at all needs — strings under edit
distance, or any user metric — and the tree joins do the rest:

* :class:`ObjectMetric` adapts a ``distance(a, b)`` callable over
  arbitrary objects to the library's :class:`~repro.geometry.metrics.Metric`
  interface by indexing: each "point" is its object id, so the M-tree,
  the packed traversal and the leaf executors work unchanged;
* :class:`BallGroupBuffer` is the CSJ(g) merge window with a metric
  *ball* (center object + radius) as the group boundary instead of an
  MBR: all members mutually satisfy the range whenever
  ``2 * radius < eps`` — the constant-time membership test of Section
  V-A, minus the vector-space assumption.

:func:`metric_similarity_join` builds an M-tree over the objects
(:func:`build_metric_index`) and runs
:func:`~repro.api.similarity_join` on it, so ssj, ncsj and csj(g) over
objects take the same serial, checkpointed and pool paths as vector
joins.

Ball groups are more conservative than MBRs (a ball of diameter < eps is
the largest shape with a one-distance membership test), so compaction
rates are lower than in the vector case — the trade-off the paper
discusses when rejecting bounding circles for vectors.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.results import JoinResult, JoinSink
from repro.errors import InvalidInputError
from repro.geometry.metrics import Metric
from repro.index import get_index_class
from repro.index.mtree import MTree
from repro.stats.counters import JoinStats

__all__ = [
    "ObjectMetric",
    "check_object_metric",
    "BallGroupBuffer",
    "build_metric_index",
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


def check_object_metric(metric, algorithm: str, index) -> None:
    """Reject an :class:`ObjectMetric` wherever a join needs coordinates.

    Object metrics have no coordinates, so grids, partitions and
    rectangle trees cannot use them.  The tree joins — ssj, ncsj and
    csj(g) — on an M-tree run exactly over them, with ball groups;
    everything else raises :class:`~repro.errors.InvalidInputError`.
    ``index`` is an index name or a built index.
    """
    if not isinstance(metric, ObjectMetric):
        return
    cls = get_index_class(index) if isinstance(index, str) else type(index)
    if algorithm in ("ssj", "ncsj", "csj") and issubclass(cls, MTree):
        return
    raise InvalidInputError(
        f"object metric {metric.name!r} has no coordinates: only ssj, ncsj "
        f"and csj on an mtree run over it, not {algorithm!r} on "
        f"{getattr(cls, 'name', cls.__name__)!r}; metric_similarity_join "
        "builds that M-tree over arbitrary objects"
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
    """An in-flight ball group: member ids, center row and object, radius."""

    __slots__ = ("ids", "center", "obj", "radius")

    def __init__(self, ids: set[int], center: list, obj: object, radius: float):
        self.ids = ids
        self.center = center
        self.obj = obj
        self.radius = radius


class BallGroupBuffer:
    """The g-recent-group window with ball-bounded groups.

    The object-metric twin of :class:`~repro.core.groups.GroupBuffer`,
    driven through the same calls.  A group's center is a coordinate
    row — the ``[object id]`` row of the router or link endpoint it was
    seeded from — so events and checkpoint snapshots stay plain data;
    the window resolves each row to its object once.  A group enters the
    window only while ``2 * radius < eps``; a looser ball (an
    early-stopped node pair, whose members qualify by the union-diameter
    test) is written through at once.
    """

    def __init__(
        self,
        g: int,
        eps: float,
        sink: JoinSink,
        metric: ObjectMetric,
        stats: Optional[JoinStats] = None,
    ):
        if g < 0:
            raise ValueError(f"window size g must be >= 0, got {g}")
        if eps <= 0:
            raise ValueError(f"query range must be positive, got {eps}")
        self.g = int(g)
        self.eps = float(eps)
        self.sink = sink
        self._fn = metric._fn
        self._resolve = metric._resolve
        self.stats = stats if stats is not None else sink.stats
        self._window: deque[_BallGroup] = deque()

    def create_group(
        self, ids: Sequence[int], center: Sequence[float], radius: float
    ) -> None:
        """Start a group bounded by the ball ``(center, radius)``."""
        ids = set(int(i) for i in ids)
        if self.g == 0 or not 2.0 * radius < self.eps:
            self._write_out(ids)
            return
        self._push(_BallGroup(ids, list(center), self._resolve(center), float(radius)))

    def add_link(
        self, i: int, j: int, p_i: Sequence[float], p_j: Sequence[float]
    ) -> None:
        """mergeIntoPrevGroup for one link: a one-link :meth:`add_links`."""
        self.add_links((i,), (j,), (p_i,), (p_j,))

    def add_links(self, ids_i, ids_j, coords_i, coords_j) -> None:
        """mergeIntoPrevGroup with the ball membership test, link by link.

        Link ``k`` is ``(ids_i[k], ids_j[k])`` and ``coords_i[k]`` /
        ``coords_j[k]`` are its endpoints' coordinate rows.  A link no
        recent ball absorbs seeds a ball of its own when its length is
        below half the range, and is written as a plain link otherwise.
        """
        fn = self._fn
        resolve = self._resolve
        stats = self.stats
        half = self.eps / 2.0
        for i, j, p_i, p_j in zip(ids_i, ids_j, coords_i, coords_j):
            if self.g == 0:
                self.sink.write_link(int(i), int(j))
                continue
            obj_i = resolve(p_i)
            obj_j = resolve(p_j)
            for group in reversed(self._window):
                stats.merge_attempts += 1
                stats.distance_computations += 2
                center = group.obj
                new_radius = max(group.radius, fn(center, obj_i), fn(center, obj_j))
                if new_radius < half:
                    group.radius = new_radius
                    group.ids.add(int(i))
                    group.ids.add(int(j))
                    stats.merge_successes += 1
                    break
            else:
                d = fn(obj_i, obj_j)
                stats.distance_computations += 1
                if 2.0 * d < self.eps:
                    self._push(_BallGroup({int(i), int(j)}, list(p_i), obj_i, float(d)))
                else:
                    self.sink.write_link(int(i), int(j))

    def _push(self, group: _BallGroup) -> None:
        self._window.append(group)
        if len(self._window) > self.g:
            self._write_out(self._window.popleft().ids)

    def _write_out(self, ids: set[int]) -> None:
        if len(ids) == 2:
            i, j = ids
            self.sink.write_link(i, j)
        elif len(ids) > 2:
            self.sink.write_group(ids)

    def flush(self) -> None:
        while self._window:
            self._write_out(self._window.popleft().ids)

    def snapshot(self) -> list[list]:
        """The window as JSON-ready ``[ids, center row, radius]`` rows."""
        return [
            [sorted(group.ids), list(group.center), group.radius]
            for group in self._window
        ]

    def restore(self, state: list) -> None:
        """Replace the window with a :meth:`snapshot`."""
        self._window.clear()
        for ids, center, radius in state:
            center = [float(x) for x in center]
            obj = self._resolve(center)
            ids = set(int(i) for i in ids)
            self._window.append(_BallGroup(ids, center, obj, float(radius)))


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

    Builds an M-tree over ``objects`` and runs CSJ(g) on it (``g = 0``
    gives N-CSJ).

    >>> words = ["cat", "bat", "hat", "zzzzzz"]
    >>> def ham(a, b):
    ...     return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    >>> result = metric_similarity_join(words, eps=2, distance_fn=ham)
    >>> sorted(result.expanded_links())
    [(0, 1), (0, 2), (1, 2)]
    """
    from repro.api import similarity_join  # deferred: api imports this module

    tree = build_metric_index(objects, distance_fn, max_entries=max_entries, name=name)
    return similarity_join(
        tree.points, eps, algorithm="csj", g=g, index=tree, sink=sink
    )


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
