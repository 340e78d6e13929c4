"""Guttman's R-tree [4] with linear and quadratic node splits.

This is the classic dynamic R-tree: points are inserted one at a time,
each descent choosing the child whose MBR needs the least enlargement;
overflowing nodes are split with either Guttman's quadratic or linear
algorithm.  Deletion uses the CondenseTree re-insertion scheme.

The node type, :class:`RectNode`, implements the geometric contract of
:class:`repro.index.base.IndexNode` with minimum bounding rectangles, so
every distance bound is a constant-time MBR computation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.mbr import MBR
from repro.geometry.metrics import Metric
from repro.index.base import IndexNode, SpatialIndex

__all__ = ["RectNode", "RTree", "least_enlargement"]


class RectNode(IndexNode):
    """An R-tree node bounded by an :class:`~repro.geometry.mbr.MBR`."""

    __slots__ = ("mbr",)

    def __init__(self, level: int, mbr: Optional[MBR] = None):
        super().__init__(level)
        self.mbr = mbr

    # -- geometric contract -------------------------------------------------
    def diameter(self, metric: Metric) -> float:
        return self.mbr.diagonal(metric)

    def min_dist(self, other: IndexNode, metric: Metric) -> float:
        return self.mbr.min_dist(other.mbr, metric)

    def union_diameter(self, other: IndexNode, metric: Metric) -> float:
        return self.mbr.union_diagonal(other.mbr, metric)

    def min_dist_point(self, point: np.ndarray, metric: Metric) -> float:
        return self.mbr.min_dist_point(point, metric)

    def covers(self, child: IndexNode) -> bool:
        return self.mbr.contains_mbr(child.mbr)

    def covers_point(self, point: np.ndarray, metric: Metric) -> bool:
        return self.mbr.contains_point(point)

    def recompute_mbr(self, points: np.ndarray) -> None:
        """Tighten the MBR to exactly cover the children / entries."""
        if self.is_leaf:
            self.mbr = MBR.of_points(points[np.asarray(self.entry_ids, dtype=np.intp)])
        else:
            self.mbr = MBR.of_mbrs(child.mbr for child in self.children)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "node"
        return f"RectNode({kind}, level={self.level}, fanout={self.fanout})"


def least_enlargement(
    children: list[RectNode], lo: np.ndarray, hi: np.ndarray
) -> RectNode:
    """The child whose MBR grows least in area to cover the box ``[lo, hi]``.

    Ties go to the smaller area, then to the first child.  Row products
    multiply in the same order as :meth:`MBR.area`, so the keys are the
    per-child ``union(...).area() - area()`` values bit for bit.
    """
    lows, highs = MBR.stack(child.mbr for child in children)
    areas = np.prod(highs - lows, axis=1)
    growth = np.prod(np.maximum(highs, hi) - np.minimum(lows, lo), axis=1) - areas
    return children[int(np.lexsort((areas, growth))[0])]


class RTree(SpatialIndex):
    """A dynamic Guttman R-tree over a fixed point array.

    Parameters
    ----------
    points:
        ``(n, d)`` float array; row index is the point id.
    metric:
        Any :func:`repro.geometry.metrics.get_metric` spec (default L2).
    max_entries, min_fill:
        Node capacity ``M`` and minimum fill fraction ``m / M``.
    split:
        ``"quadratic"`` (default) or ``"linear"`` — Guttman's two split
        algorithms.
    """

    name = "rtree"
    _SPLITS = ("quadratic", "linear")

    def __init__(
        self,
        points: np.ndarray,
        metric: object = None,
        max_entries: int = 64,
        min_fill: float = 0.4,
        split: str = "quadratic",
        shuffle_seed: Optional[int] = None,
    ):
        if split not in self._SPLITS:
            raise ValueError(f"split must be one of {self._SPLITS}, got {split!r}")
        self.split_method = split
        self.shuffle_seed = shuffle_seed
        super().__init__(points, metric, max_entries, min_fill)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        self.root = RectNode(level=0, mbr=None)
        order = np.arange(len(self.points))
        if self.shuffle_seed is not None:
            rng = np.random.default_rng(self.shuffle_seed)
            rng.shuffle(order)
        for pid in order:
            self.insert(int(pid))

    @classmethod
    def from_packed_root(
        cls,
        points: np.ndarray,
        root: RectNode,
        metric: object = None,
        max_entries: int = 64,
        min_fill: float = 0.4,
    ) -> "RTree":
        """Wrap a bulk-loaded node hierarchy (see :mod:`repro.index.bulk`)."""
        from repro.geometry.metrics import get_metric

        tree = cls.__new__(cls)
        tree.split_method = "quadratic"
        tree.shuffle_seed = None
        tree.metric = get_metric(metric)
        tree.max_entries = int(max_entries)
        tree.min_entries = max(1, int(max_entries * min_fill))
        tree.root = root
        tree._init_dynamic_state(np.asarray(points, dtype=float))
        return tree

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert(self, pid: int) -> None:
        """Insert the point with id ``pid`` (a row of :attr:`points`)."""
        point = self.points[pid]
        if self.root is None:
            self.root = RectNode(level=0, mbr=MBR.of_point(point))
            self.root.entry_ids.append(pid)
            return
        split = self._insert_into(self.root, pid, point)
        if split is not None:
            self._grow_root(split)

    def _grow_root(self, sibling: RectNode) -> None:
        old_root = self.root
        new_root = RectNode(level=old_root.level + 1)
        new_root.children = [old_root, sibling]
        new_root.mbr = old_root.mbr.union(sibling.mbr)
        self.root = new_root

    def _insert_into(
        self, node: RectNode, pid: int, point: np.ndarray
    ) -> Optional[RectNode]:
        """Recursive insert; returns the new sibling if ``node`` split."""
        node.invalidate_cache()
        if node.mbr is None:
            node.mbr = MBR.of_point(point)
        else:
            node.mbr.extend_point(point)
        if node.is_leaf:
            node.entry_ids.append(pid)
            if len(node.entry_ids) > self.max_entries:
                return self._split(node)
            return None
        child = self._choose_subtree(node, point)
        split = self._insert_into(child, pid, point)
        if split is not None:
            node.children.append(split)
            if len(node.children) > self.max_entries:
                return self._split(node)
        return None

    def _choose_subtree(self, node: RectNode, point: np.ndarray) -> RectNode:
        """Guttman's ChooseLeaf: least enlargement, ties by least area."""
        return least_enlargement(node.children, point, point)

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def _split(self, node: RectNode) -> RectNode:
        """Split an overflowing node in place; return the new sibling."""
        items, mbrs = self._node_items(node)
        if self.split_method == "quadratic":
            group_a, group_b = self._quadratic_partition(mbrs)
        else:
            group_a, group_b = self._linear_partition(mbrs)
        sibling = RectNode(level=node.level)
        self._assign_items(node, [items[i] for i in group_a])
        self._assign_items(sibling, [items[i] for i in group_b])
        node.recompute_mbr(self.points)
        sibling.recompute_mbr(self.points)
        node.invalidate_cache()
        return sibling

    def _node_items(self, node: RectNode):
        """The node's entries as (item, MBR) parallel lists."""
        if node.is_leaf:
            items = list(node.entry_ids)
            mbrs = [MBR.of_point(self.points[pid]) for pid in items]
        else:
            items = list(node.children)
            mbrs = [child.mbr for child in items]
        return items, mbrs

    def _assign_items(self, node: RectNode, items: list) -> None:
        if node.is_leaf:
            node.entry_ids = list(items)
            node.children = []
        else:
            node.children = list(items)
            node.entry_ids = []
        node.invalidate_cache()

    def _quadratic_partition(self, mbrs: list[MBR]) -> tuple[list[int], list[int]]:
        """Guttman's quadratic split: seeds maximise dead area, then each
        remaining entry goes to the group with the larger preference."""
        n = len(mbrs)
        # PickSeeds: the pair wasting the most area if grouped together.
        seed_a, seed_b, worst = 0, 1, -np.inf
        for i in range(n):
            for j in range(i + 1, n):
                waste = mbrs[i].union(mbrs[j]).area() - mbrs[i].area() - mbrs[j].area()
                if waste > worst:
                    seed_a, seed_b, worst = i, j, waste
        group_a, group_b = [seed_a], [seed_b]
        cover_a, cover_b = mbrs[seed_a].copy(), mbrs[seed_b].copy()
        rest = [i for i in range(n) if i not in (seed_a, seed_b)]
        while rest:
            # Honour the minimum fill: if one group must take all the rest.
            if len(group_a) + len(rest) <= self.min_entries:
                for i in rest:
                    group_a.append(i)
                    cover_a.extend_mbr(mbrs[i])
                break
            if len(group_b) + len(rest) <= self.min_entries:
                for i in rest:
                    group_b.append(i)
                    cover_b.extend_mbr(mbrs[i])
                break
            # PickNext: maximal difference in enlargement preference.
            best_i, best_pref = rest[0], -1.0
            for i in rest:
                d_a = cover_a.enlargement(mbrs[i])
                d_b = cover_b.enlargement(mbrs[i])
                pref = abs(d_a - d_b)
                if pref > best_pref:
                    best_i, best_pref = i, pref
            rest.remove(best_i)
            d_a = cover_a.enlargement(mbrs[best_i])
            d_b = cover_b.enlargement(mbrs[best_i])
            take_a = d_a < d_b or (
                d_a == d_b
                and (
                    cover_a.area() < cover_b.area()
                    or (cover_a.area() == cover_b.area() and len(group_a) <= len(group_b))
                )
            )
            if take_a:
                group_a.append(best_i)
                cover_a.extend_mbr(mbrs[best_i])
            else:
                group_b.append(best_i)
                cover_b.extend_mbr(mbrs[best_i])
        return group_a, group_b

    def _linear_partition(self, mbrs: list[MBR]) -> tuple[list[int], list[int]]:
        """Guttman's linear split: seeds by greatest normalised separation."""
        n = len(mbrs)
        lows = np.array([m.lo for m in mbrs])
        highs = np.array([m.hi for m in mbrs])
        width = highs.max(axis=0) - lows.min(axis=0)
        width[width == 0.0] = 1.0
        # For each dimension: entry with highest low side and lowest high side.
        hi_low = lows.argmax(axis=0)
        lo_high = highs.argmin(axis=0)
        separation = (lows[hi_low, np.arange(lows.shape[1])]
                      - highs[lo_high, np.arange(lows.shape[1])]) / width
        axis = int(np.argmax(separation))
        seed_a, seed_b = int(lo_high[axis]), int(hi_low[axis])
        if seed_a == seed_b:  # all rectangles identical along every axis
            seed_b = (seed_a + 1) % n
        group_a, group_b = [seed_a], [seed_b]
        cover_a, cover_b = mbrs[seed_a].copy(), mbrs[seed_b].copy()
        for i in range(n):
            if i in (seed_a, seed_b):
                continue
            remaining = n - len(group_a) - len(group_b)
            if len(group_a) + remaining <= self.min_entries:
                group_a.append(i)
                cover_a.extend_mbr(mbrs[i])
                continue
            if len(group_b) + remaining <= self.min_entries:
                group_b.append(i)
                cover_b.extend_mbr(mbrs[i])
                continue
            if cover_a.enlargement(mbrs[i]) <= cover_b.enlargement(mbrs[i]):
                group_a.append(i)
                cover_a.extend_mbr(mbrs[i])
            else:
                group_b.append(i)
                cover_b.extend_mbr(mbrs[i])
        return group_a, group_b

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def _remove(self, pid: int) -> bool:
        """Structural removal of ``pid`` (tombstones handled by the base).

        Uses Guttman's CondenseTree: underflowing nodes along the path are
        dissolved and their contents re-inserted.
        """
        if self.root is None:
            return False
        path = self._find_leaf(self.root, pid, self.points[pid])
        if path is None:
            return False
        leaf = path[-1]
        leaf.entry_ids.remove(pid)
        self._condense(path)
        # Shrink the root if it lost structure.
        while (
            self.root is not None
            and not self.root.is_leaf
            and len(self.root.children) == 1
        ):
            self.root = self.root.children[0]
        if self.root is not None and self.root.is_leaf and not self.root.entry_ids:
            self.root.mbr = None
        return True

    def _find_leaf(
        self, node: RectNode, pid: int, point: np.ndarray
    ) -> Optional[list[RectNode]]:
        if node.mbr is None or not node.mbr.contains_point(point):
            return None
        if node.is_leaf:
            return [node] if pid in node.entry_ids else None
        for child in node.children:
            sub = self._find_leaf(child, pid, point)
            if sub is not None:
                return [node] + sub
        return None

    def _condense(self, path: list[RectNode]) -> None:
        orphan_leaf_ids: list[int] = []
        orphan_nodes: list[RectNode] = []
        for depth in range(len(path) - 1, 0, -1):
            node, parent = path[depth], path[depth - 1]
            node.invalidate_cache()
            if node.fanout < self.min_entries:
                parent.children.remove(node)
                if node.is_leaf:
                    orphan_leaf_ids.extend(node.entry_ids)
                else:
                    orphan_nodes.extend(node.children)
            elif node.fanout > 0:
                node.recompute_mbr(self.points)
        root = path[0]
        root.invalidate_cache()
        if root.fanout > 0:
            root.recompute_mbr(self.points)
        for orphan in orphan_nodes:
            self._reinsert_subtree(orphan)
        for pid in orphan_leaf_ids:
            self.insert(pid)

    def _reinsert_subtree(self, node: RectNode) -> None:
        for pid in node.subtree_ids():
            self.insert(int(pid))
