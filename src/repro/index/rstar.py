"""The R*-tree of Beckmann, Kriegel, Schneider and Seeger [5].

The paper's experiments use an R*-tree by default (the UC Riverside Spatial
Index Library); this module reimplements the three R* heuristics on top of
the Guttman machinery in :mod:`repro.index.rtree`:

* **ChooseSubtree** — at the level just above the leaves the child is
  picked by least *overlap* enlargement (ties: least area enlargement),
  instead of least area enlargement alone;
* **Forced reinsertion** — the first time a node overflows at each level
  during one insertion, the 30% of its entries farthest from the node
  center are removed and re-inserted, which re-shapes bad nodes instead of
  splitting them;
* **R\\* split** — the split axis minimises the summed margins of the
  candidate distributions, and the chosen distribution along that axis
  minimises overlap (ties: total area).

Each heuristic is evaluated on ``(n, d)`` corner arrays of a node's
entries, with reductions that are bit-identical to the per-rectangle
:class:`~repro.geometry.mbr.MBR` arithmetic they replace, so the trees are
the ones the per-entry evaluation builds (``docs/rstar_exactness.md``
gives the argument and its Minkowski-p caveat).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.mbr import MBR
from repro.index.rtree import RectNode, RTree, least_enlargement

__all__ = ["RStarTree"]


class RStarTree(RTree):
    """R*-tree: Guttman R-tree with the Beckmann et al. heuristics."""

    name = "rstar"
    #: Fraction of a node's entries removed on forced reinsertion.
    reinsert_fraction = 0.3

    def __init__(
        self,
        points: np.ndarray,
        metric: object = None,
        max_entries: int = 64,
        min_fill: float = 0.4,
        shuffle_seed: Optional[int] = None,
    ):
        self._reinserted_levels: set[int] = set()
        super().__init__(
            points,
            metric,
            max_entries,
            min_fill,
            split="quadratic",  # placeholder; _split is overridden below
            shuffle_seed=shuffle_seed,
        )

    # ------------------------------------------------------------------
    # Insertion with forced reinsert
    # ------------------------------------------------------------------
    def _insert(self, pid: int) -> None:
        """Insert point id ``pid`` with R* overflow treatment."""
        # Forced reinsertion applies once per level per top-level insert
        # ("the first call at each level during one data insertion").
        self._reinserted_levels = set()
        self._insert_entry(pid, MBR.of_point(self.points[pid]), level=0)

    def _insert_entry(self, entry, mbr: MBR, level: int) -> None:
        """Insert ``entry`` with bounds ``mbr`` into a node at ``level``.

        At level 0 the entry is a point id; above it, a subtree being
        reinserted.
        """
        if self.root is None:
            self.root = RectNode(level=0, mbr=mbr.copy())
            self.root.entry_ids.append(entry)
            return
        split = self._rstar_insert(self.root, entry, mbr, level)
        if split is not None:
            self._grow_root(split)

    def _rstar_insert(
        self, node: RectNode, entry, mbr_add: MBR, level: int
    ) -> Optional[RectNode]:
        node.invalidate_cache()
        if node.mbr is None:
            node.mbr = mbr_add.copy()
        else:
            node.mbr.extend_mbr(mbr_add)
        if node.level == level:
            (node.children if level else node.entry_ids).append(entry)
            if node.fanout > self.max_entries:
                return self._overflow(node)
            return None
        child = self._choose_subtree_rstar(node, mbr_add)
        split = self._rstar_insert(child, entry, mbr_add, level)
        if split is not None:
            node.children.append(split)
            if len(node.children) > self.max_entries:
                return self._overflow(node)
        return None

    def _choose_subtree_rstar(self, node: RectNode, mbr_add: MBR) -> RectNode:
        children = node.children
        if not children[0].is_leaf:
            # Internal levels: least area enlargement, ties by area.
            return least_enlargement(children, mbr_add.lo, mbr_add.hi)
        # Least overlap enlargement; ties by area enlargement, then area.
        lows, highs = MBR.stack(c.mbr for c in children)
        new_lo = np.minimum(lows, mbr_add.lo)
        new_hi = np.maximum(highs, mbr_add.hi)
        areas = np.prod(highs - lows, axis=1)
        growth = np.prod(new_hi - new_lo, axis=1) - areas
        # A child that already contains the entry keys (0, 0, area), and a
        # grown child never keys below (0, 0, ...): its overlap sum and
        # area cannot shrink.  Only a grown child with zero area growth
        # could tie, and then the full evaluation decides.
        contains = np.all((lows <= mbr_add.lo) & (mbr_add.hi <= highs), axis=1)
        if contains.any() and not np.any((growth == 0.0) & ~contains):
            inside = np.flatnonzero(contains)
            return children[int(inside[np.argmin(areas[inside])])]

        def overlap_sums(cand_lo, cand_hi):
            inter_lo = np.maximum(cand_lo[:, None, :], lows[None, :, :])
            inter_hi = np.minimum(cand_hi[:, None, :], highs[None, :, :])
            overlap = np.prod(np.maximum(0.0, inter_hi - inter_lo), axis=2)
            np.fill_diagonal(overlap, 0.0)
            return overlap.sum(axis=1)

        delta_overlap = overlap_sums(new_lo, new_hi) - overlap_sums(lows, highs)
        order = np.lexsort((areas, growth, delta_overlap))
        return children[int(order[0])]

    def _entry_bounds(self, node: RectNode) -> tuple[list, np.ndarray, np.ndarray]:
        """The node's entries and their bounds as ``(n, d)`` corner arrays."""
        if node.is_leaf:
            items = list(node.entry_ids)
            coords = self.points[np.asarray(items, dtype=np.intp)]
            return items, coords, coords
        items = list(node.children)
        lows, highs = MBR.stack(child.mbr for child in items)
        return items, lows, highs

    def _overflow(self, node: RectNode) -> Optional[RectNode]:
        """OverflowTreatment: forced reinsert once per level, else split."""
        if node is not self.root and node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._forced_reinsert(node)
            return None
        return self._split(node)

    def _forced_reinsert(self, node: RectNode) -> None:
        items, lows, highs = self._entry_bounds(node)
        dists = self.metric.norm_rows((lows + highs) / 2.0 - node.mbr.center)
        order = np.argsort(dists)  # farthest entries are reinserted
        n_keep = len(items) - max(1, int(round(self.reinsert_fraction * len(items))))
        self._assign_items(node, [items[i] for i in order[:n_keep]])
        node.recompute_mbr(self.points)
        # Re-insert far entries first ("reinsert in distant order" variant).
        for i in order[n_keep:][::-1]:
            self._insert_entry(items[i], MBR(lows[i], highs[i]), node.level)

    # ------------------------------------------------------------------
    # R* split
    # ------------------------------------------------------------------
    def _split(self, node: RectNode) -> RectNode:
        items, lows, highs = self._entry_bounds(node)
        group_a, group_b = self._rstar_partition(lows, highs)
        sibling = RectNode(level=node.level)
        self._assign_items(node, [items[i] for i in group_a])
        self._assign_items(sibling, [items[i] for i in group_b])
        node.recompute_mbr(self.points)
        sibling.recompute_mbr(self.points)
        node.invalidate_cache()
        return sibling

    def _rstar_partition(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        n, dim = lows.shape
        m = self.min_entries
        # Every split honouring the minimum fill: the first k entries of a
        # sort order go left, for k in [m, n - m].
        ks = np.arange(m, n - m + 1)

        def covers(order: np.ndarray):
            """Left and right cover corners of each distribution of ``order``.

            Prefix and suffix min/max scans: min and max are exact, so
            these equal the covers of the explicit index sets.
            """
            lo, hi = lows[order], highs[order]
            return (
                np.minimum.accumulate(lo)[ks - 1],
                np.maximum.accumulate(hi)[ks - 1],
                np.minimum.accumulate(lo[::-1])[::-1][ks],
                np.maximum.accumulate(hi[::-1])[::-1][ks],
            )

        # ChooseSplitAxis: minimise the margin sum over both sortings.  It
        # is accumulated left to right in Python: NumPy's pairwise sum
        # rounds differently and could flip a near-tied axis choice.
        best_margin, best = np.inf, None
        for axis in range(dim):
            orders = (
                np.lexsort((highs[:, axis], lows[:, axis])),
                np.lexsort((lows[:, axis], highs[:, axis])),
            )
            boxes = [covers(order) for order in orders]
            margin_sum = 0.0
            for l_lo, l_hi, r_lo, r_hi in boxes:
                margins = np.sum(l_hi - l_lo, axis=1) + np.sum(r_hi - r_lo, axis=1)
                for margin in margins.tolist():
                    margin_sum += margin
            if margin_sum < best_margin:
                best_margin, best = margin_sum, (orders, boxes)

        # ChooseSplitIndex: minimise overlap, ties by total area; the first
        # minimal distribution over both sortings wins.
        orders, boxes = best
        overlaps, areas = [], []
        for l_lo, l_hi, r_lo, r_hi in boxes:
            sides = np.minimum(l_hi, r_hi) - np.maximum(l_lo, r_lo)
            overlaps.append(
                np.where((sides < 0).any(axis=1), 0.0, np.prod(sides, axis=1))
            )
            areas.append(np.prod(l_hi - l_lo, axis=1) + np.prod(r_hi - r_lo, axis=1))
        pick = int(np.lexsort((np.concatenate(areas), np.concatenate(overlaps)))[0])
        order, k = orders[pick // len(ks)], ks[pick % len(ks)]
        return order[:k], order[k:]

    # Deletion inherits Guttman's CondenseTree from RTree; the reinsert
    # bookkeeping must be reset so deletions can trigger fresh inserts.
    # Tombstone accounting lives in SpatialIndex.delete — identical for
    # every tree.
    def _remove(self, pid: int) -> bool:
        """Structural removal (Guttman CondenseTree + R* reinserts)."""
        self._reinserted_levels = set()
        return super()._remove(pid)
