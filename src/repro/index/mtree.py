"""The M-tree of Ciaccia, Patella and Zezula [6].

The M-tree indexes data using only the metric itself: every node is a ball
around a *routing object* (an actual data point) with a covering radius.
It demonstrates the paper's index-independence claim (Experiment 4): the
compact join runs unchanged on it because balls support the same three
bounds as rectangles — node diameter, node-pair minimum distance, and
union diameter (see :mod:`repro.geometry.ball`).

Insertion descends to the child whose ball needs the least radius
enlargement; overflowing nodes are split by promoting the two entries with
maximum separation (the ``mM_RAD`` spirit) and partitioning the rest by
proximity (generalised-hyperplane distribution).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.ball import Ball
from repro.geometry.metrics import Metric
from repro.index.base import IndexNode, SpatialIndex

__all__ = ["BallNode", "MTree"]


class BallNode(IndexNode):
    """An M-tree node: a routing point id plus covering radius."""

    __slots__ = ("router", "radius", "center")

    def __init__(self, level: int, router: int, radius: float = 0.0):
        super().__init__(level)
        #: Point id of the routing object (the ball center).
        self.router = router
        #: Covering radius: every point in the subtree is within it.
        self.radius = radius
        #: Resolved center coordinates; the owning tree keeps this in sync
        #: because the node protocol cannot reach the point array itself.
        self.center: Optional[np.ndarray] = None

    def ball(self, points: np.ndarray) -> Ball:
        """This node's covering ball resolved against ``points``."""
        return Ball(points[self.router], self.radius)

    # -- geometric contract -------------------------------------------------
    def diameter(self, metric: Metric) -> float:
        return 2.0 * self.radius

    def min_dist(self, other: IndexNode, metric: Metric) -> float:
        d = metric.distance(self.center, other.center)
        return max(0.0, d - self.radius - other.radius)

    def union_diameter(self, other: IndexNode, metric: Metric) -> float:
        d = metric.distance(self.center, other.center)
        return max(
            2.0 * self.radius,
            2.0 * other.radius,
            d + self.radius + other.radius,
        )

    def min_dist_point(self, point: np.ndarray, metric: Metric) -> float:
        return max(0.0, metric.distance(self.center, point) - self.radius)

    def covers(self, child: IndexNode) -> bool:
        # Validated by MTree.validate() with the actual metric; structural
        # traversals only need a conservative True here — the real check
        # lives in MTree._covers_child.
        return True

    def covers_point(self, point: np.ndarray, metric: Metric) -> bool:
        return metric.distance(self.center, point) <= self.radius + 1e-12

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "node"
        return (
            f"BallNode({kind}, level={self.level}, router={self.router}, "
            f"radius={self.radius:.4g}, fanout={self.fanout})"
        )


class MTree(SpatialIndex):
    """A dynamic M-tree over a fixed point array.

    Works with any :class:`~repro.geometry.metrics.Metric`; coordinates are
    only ever consumed through ``metric.distance``.
    """

    name = "mtree"

    def __init__(
        self,
        points: np.ndarray,
        metric: object = None,
        max_entries: int = 64,
        min_fill: float = 0.4,
        shuffle_seed: Optional[int] = None,
    ):
        self.shuffle_seed = shuffle_seed
        super().__init__(points, metric, max_entries, min_fill)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        order = np.arange(len(self.points))
        if self.shuffle_seed is not None:
            rng = np.random.default_rng(self.shuffle_seed)
            rng.shuffle(order)
        first = int(order[0])
        self.root = self._new_node(level=0, router=first)
        self.root.entry_ids.append(first)
        for pid in order[1:]:
            self.insert(int(pid))

    def _new_node(self, level: int, router: int, radius: float = 0.0) -> BallNode:
        node = BallNode(level=level, router=router, radius=radius)
        node.center = self.points[router]
        return node

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert(self, pid: int) -> None:
        """Insert the point with id ``pid`` (a row of :attr:`points`)."""
        if self.root is None:
            self.root = self._new_node(level=0, router=pid)
            self.root.entry_ids.append(pid)
            return
        split = self._insert_into(self.root, pid)
        if split is not None:
            left, right = split
            new_root = self._new_node(
                level=left.level + 1,
                router=left.router,
                radius=0.0,
            )
            new_root.children = [left, right]
            self._tighten(new_root)
            self.root = new_root

    def _insert_into(
        self, node: BallNode, pid: int
    ) -> Optional[tuple[BallNode, BallNode]]:
        """Recursive insert; returns replacement pair if ``node`` split."""
        node.invalidate_cache()
        point = self.points[pid]
        d = self.metric.distance(self.points[node.router], point)
        node.radius = max(node.radius, d)
        if node.is_leaf:
            node.entry_ids.append(pid)
            if len(node.entry_ids) > self.max_entries:
                return self._split_leaf(node)
            return None
        child = self._choose_child(node, point)
        split = self._insert_into(child, pid)
        if split is not None:
            node.children.remove(child)
            node.children.extend(split)
            self._tighten(node)
            if len(node.children) > self.max_entries:
                return self._split_internal(node)
        return None

    def _choose_child(self, node: BallNode, point: np.ndarray) -> BallNode:
        """Prefer a child already covering the point (closest center);
        otherwise the child needing the least radius enlargement."""
        best_in, best_in_d = None, np.inf
        best_out, best_out_grow = None, np.inf
        for child in node.children:
            d = self.metric.distance(self.points[child.router], point)
            if d <= child.radius:
                if d < best_in_d:
                    best_in, best_in_d = child, d
            else:
                grow = d - child.radius
                if grow < best_out_grow:
                    best_out, best_out_grow = child, grow
        return best_in if best_in is not None else best_out

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def _promote(self, centers: np.ndarray) -> tuple[int, int]:
        """Indices (into ``centers``) of the two promoted routing objects.

        Uses the max-separation pair, approximated in O(n) by two sweeps
        (pick the point farthest from the first, then farthest from that).
        """
        d0 = self.metric.point_to_points(centers[0], centers)
        a = int(np.argmax(d0))
        da = self.metric.point_to_points(centers[a], centers)
        b = int(np.argmax(da))
        if a == b:  # all points identical
            a, b = 0, min(1, len(centers) - 1)
        return a, b

    def _partition(
        self, centers: np.ndarray, a: int, b: int
    ) -> tuple[list[int], list[int]]:
        """Generalised-hyperplane distribution honouring minimum fill."""
        d_a = self.metric.point_to_points(centers[a], centers)
        d_b = self.metric.point_to_points(centers[b], centers)
        group_a, group_b = [], []
        prefer_a = d_a <= d_b
        prefer_a[a], prefer_a[b] = True, False
        for i in range(len(centers)):
            (group_a if prefer_a[i] else group_b).append(i)
        # Rebalance to satisfy the minimum fill, moving border entries.
        # The promoted entries a and b must stay put: they become the
        # routers of their groups, and deletion repair relies on every
        # router living inside its own subtree.
        self._rebalance(group_a, group_b, d_b, keep=a)
        self._rebalance(group_b, group_a, d_a, keep=b)
        return group_a, group_b

    def _rebalance(
        self, donor: list[int], taker: list[int], d_taker: np.ndarray, keep: int
    ) -> None:
        while len(taker) < self.min_entries and len(donor) > self.min_entries:
            # Move the donor entry closest to the taker's router.
            move = min((i for i in donor if i != keep), key=lambda i: d_taker[i])
            donor.remove(move)
            taker.append(move)

    def _split_leaf(self, node: BallNode) -> tuple[BallNode, BallNode]:
        ids = list(node.entry_ids)
        centers = self.points[np.asarray(ids, dtype=np.intp)]
        a, b = self._promote(centers)
        group_a, group_b = self._partition(centers, a, b)
        left = self._new_node(level=0, router=ids[a])
        right = self._new_node(level=0, router=ids[b])
        left.entry_ids = [ids[i] for i in group_a]
        right.entry_ids = [ids[i] for i in group_b]
        for child in (left, right):
            self._tighten(child)
        return left, right

    def _split_internal(self, node: BallNode) -> tuple[BallNode, BallNode]:
        children = list(node.children)
        centers = np.array([self.points[c.router] for c in children])
        a, b = self._promote(centers)
        group_a, group_b = self._partition(centers, a, b)
        left = self._new_node(level=node.level, router=children[a].router)
        right = self._new_node(level=node.level, router=children[b].router)
        left.children = [children[i] for i in group_a]
        right.children = [children[i] for i in group_b]
        for parent in (left, right):
            self._tighten(parent)
        return left, right

    def _tighten(self, node: BallNode) -> None:
        """Recompute the covering radius from children / entries."""
        node.invalidate_cache()
        center = self.points[node.router]
        if node.is_leaf:
            pts = self.points[np.asarray(node.entry_ids, dtype=np.intp)]
            node.radius = float(np.max(self.metric.point_to_points(center, pts)))
        else:
            node.radius = max(
                self.metric.distance(center, self.points[c.router]) + c.radius
                for c in node.children
            )
        node.center = center

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    # The original M-tree paper leaves deletion underspecified because
    # routing objects are data points: removing one would dangle every
    # ball routed through it.  The scheme here mirrors Guttman's
    # CondenseTree and leans on one invariant that construction
    # maintains (see :meth:`_partition`): a node's router always lives
    # in its own subtree.  Hence every node routed by ``pid`` is an
    # ancestor of ``pid``'s leaf and sits on the deletion path, where
    # :meth:`_repair` re-routes it to a surviving entry.

    def _remove(self, pid: int) -> bool:
        """Structural removal of ``pid`` (tombstones handled by the base)."""
        if self.root is None:
            return False
        path = self._find_leaf(self.root, pid)
        if path is None:
            return False
        path[-1].entry_ids.remove(pid)
        self._condense(path, pid)
        return True

    def _find_leaf(self, node: BallNode, pid: int) -> Optional[list[BallNode]]:
        """Root-to-leaf path reaching ``pid``, or None if absent."""
        if node.is_leaf:
            return [node] if pid in node.entry_ids else None
        point = self.points[pid]
        for child in node.children:
            if self.metric.distance(child.center, point) <= child.radius + 1e-12:
                sub = self._find_leaf(child, pid)
                if sub is not None:
                    return [node] + sub
        return None

    def _condense(self, path: list[BallNode], removed_pid: int) -> None:
        """Repair the deletion path bottom-up (CondenseTree analogue).

        Underflowing nodes are dissolved and their points re-inserted;
        surviving nodes get their router replaced if it was the removed
        point, and their covering radius re-tightened.
        """
        orphans: list[int] = []
        for depth in range(len(path) - 1, 0, -1):
            node, parent = path[depth], path[depth - 1]
            node.invalidate_cache()
            if node.fanout < self.min_entries:
                parent.children.remove(node)
                orphans.extend(int(i) for i in node.subtree_ids())
            else:
                self._repair(node, removed_pid)
        root = path[0]
        root.invalidate_cache()
        if root.fanout > 0:
            self._repair(root, removed_pid)
        # Shrink (or drop) the root before re-inserting orphans so the
        # inserts descend a well-formed tree.
        while self.root is not None and not self.root.is_leaf:
            if len(self.root.children) == 1:
                self.root = self.root.children[0]
            elif not self.root.children:
                self.root = None
            else:
                break
        if self.root is not None and self.root.is_leaf and not self.root.entry_ids:
            self.root = None
        for orphan in orphans:
            self.insert(orphan)

    def _repair(self, node: BallNode, removed_pid: int) -> None:
        """Re-route ``node`` off the removed point and re-tighten it."""
        if node.router == removed_pid:
            node.router = (
                node.entry_ids[0] if node.is_leaf else node.children[0].router
            )
        self._tighten(node)

    # Node centers are views into the point array; refresh them when the
    # backing buffer is reallocated so the old buffer can be collected.
    def _points_rebound(self) -> None:
        if self.root is None:
            return
        for node in self.nodes():
            node.center = self.points[node.router]

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural validation plus the ball inclusion property."""
        super().validate()
        # Ball inclusion property: every node's covering radius reaches all
        # points of its subtree.  (Insertion does not maintain the stronger
        # nested-routing-ball property — it extends a node's radius only by
        # the new point's distance — and the join bounds need only point
        # coverage.)
        from repro.index.base import IndexInvariantError

        for node in self.nodes():
            ids = node.subtree_ids()
            if not len(ids):
                continue
            dists = self.metric.point_to_points(
                self.points[node.router], self.points[ids]
            )
            if float(dists.max()) > node.radius + 1e-9:
                raise IndexInvariantError(
                    f"M-tree inclusion violated: point at {dists.max():.6g} "
                    f"outside covering radius {node.radius:.6g}"
                )
