"""Insertion-built trees against the per-entry reference heuristics.

:class:`RStarTree` evaluates ChooseSubtree, the R* split and forced
reinsertion on corner arrays of a node's entries, and Guttman's
ChooseLeaf on stacked child bounds.  The references below keep the
per-entry evaluation those replaced: one :class:`MBR` per entry, one cover
per candidate distribution, one overlap matrix pair per leaf-level
choice, one Python loop per enlargement.  They decide with the same keys
and tie-breaks, so every tree built or churned here must pack to exactly
the reference's arrays, node for node.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.geometry.mbr import MBR
from repro.geometry.metrics import Chebyshev, Manhattan, Minkowski
from repro.index.packed import pack_index
from repro.index.rstar import RStarTree
from repro.index.rtree import RectNode, RTree


class ReferenceRTree(RTree):
    """Guttman's R-tree with the per-child ChooseLeaf loop."""

    def _choose_subtree(self, node: RectNode, point: np.ndarray) -> RectNode:
        best = None
        best_key = None
        for child in node.children:
            enlarged = child.mbr.union_point(point)
            key = (enlarged.area() - child.mbr.area(), child.mbr.area())
            if best_key is None or key < best_key:
                best, best_key = child, key
        return best


class ReferenceRStarTree(RStarTree):
    """The R*-tree with every heuristic evaluated entry by entry."""

    def _choose_subtree_rstar(self, node: RectNode, mbr_add: MBR) -> RectNode:
        children = node.children
        if children[0].is_leaf:
            lows = np.array([c.mbr.lo for c in children])
            highs = np.array([c.mbr.hi for c in children])
            new_lo = np.minimum(lows, mbr_add.lo)
            new_hi = np.maximum(highs, mbr_add.hi)
            areas = np.prod(highs - lows, axis=1)
            enlarged_areas = np.prod(new_hi - new_lo, axis=1)

            def overlap_sums(cand_lo, cand_hi):
                inter_lo = np.maximum(cand_lo[:, None, :], lows[None, :, :])
                inter_hi = np.minimum(cand_hi[:, None, :], highs[None, :, :])
                overlap = np.prod(np.maximum(0.0, inter_hi - inter_lo), axis=2)
                np.fill_diagonal(overlap, 0.0)
                return overlap.sum(axis=1)

            delta_overlap = overlap_sums(new_lo, new_hi) - overlap_sums(lows, highs)
            order = np.lexsort((areas, enlarged_areas - areas, delta_overlap))
            return children[int(order[0])]
        best, best_key = None, None
        for child in children:
            enlarged = child.mbr.union(mbr_add)
            key = (enlarged.area() - child.mbr.area(), child.mbr.area())
            if best_key is None or key < best_key:
                best, best_key = child, key
        return best

    def _forced_reinsert(self, node: RectNode) -> None:
        items, mbrs = self._node_items(node)
        center = node.mbr.center
        dists = [self.metric.norm(m.center - center) for m in mbrs]
        order = np.argsort(dists)
        n_reinsert = max(1, int(round(self.reinsert_fraction * len(items))))
        keep = [items[i] for i in order[: len(items) - n_reinsert]]
        evicted = [items[i] for i in order[len(items) - n_reinsert:]]
        self._assign_items(node, keep)
        node.recompute_mbr(self.points)
        for item in reversed(evicted):
            if node.is_leaf:
                pid = int(item)
                self._insert_entry(pid, MBR.of_point(self.points[pid]), 0)
            else:
                self._insert_entry(item, item.mbr, node.level)

    def _split(self, node: RectNode) -> RectNode:
        items, mbrs = self._node_items(node)
        group_a, group_b = self._rstar_partition(mbrs)
        sibling = RectNode(level=node.level)
        self._assign_items(node, [items[i] for i in group_a])
        self._assign_items(sibling, [items[i] for i in group_b])
        node.recompute_mbr(self.points)
        sibling.recompute_mbr(self.points)
        node.invalidate_cache()
        return sibling

    def _rstar_partition(self, mbrs: list[MBR]) -> tuple[list[int], list[int]]:
        n = len(mbrs)
        dim = mbrs[0].dim
        m = self.min_entries
        lows = np.array([r.lo for r in mbrs])
        highs = np.array([r.hi for r in mbrs])

        def distributions(order: np.ndarray):
            for k in range(m, n - m + 1):
                yield [int(i) for i in order[:k]], [int(i) for i in order[k:]]

        def cover(idx: list[int]) -> MBR:
            return MBR(lows[idx].min(axis=0), highs[idx].max(axis=0))

        best_axis, best_margin, axis_orders = 0, np.inf, None
        for axis in range(dim):
            orders = (
                np.lexsort((highs[:, axis], lows[:, axis])),
                np.lexsort((lows[:, axis], highs[:, axis])),
            )
            margin_sum = 0.0
            for order in orders:
                for left, right in distributions(order):
                    margin_sum += cover(left).margin() + cover(right).margin()
            if margin_sum < best_margin:
                best_axis, best_margin, axis_orders = axis, margin_sum, orders

        best_key, best_split = None, None
        for order in axis_orders:
            for left, right in distributions(order):
                box_l, box_r = cover(left), cover(right)
                key = (box_l.overlap_area(box_r), box_l.area() + box_r.area())
                if best_key is None or key < best_key:
                    best_key, best_split = key, (left, right)
        return best_split


PACKED_FIELDS = ("leaf", "child_beg", "child_end", "entry_beg", "entry_end",
                 "entries", "lo", "hi")


def assert_same_tree(tree, reference) -> None:
    tree.validate()
    got, want = pack_index(tree), pack_index(reference)
    for field in PACKED_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def build_pair(points, max_entries, rstar=True, **kwargs):
    fast, ref = (RStarTree, ReferenceRStarTree) if rstar else (RTree, ReferenceRTree)
    return (
        fast(points, max_entries=max_entries, **kwargs),
        ref(points, max_entries=max_entries, **kwargs),
    )


def county_sample(seed: int, n: int = 4000) -> np.ndarray:
    """A served-churn-sized LB County sample: ``n`` of one 36,000-point map."""
    base = load_dataset("lb_county", 36000, seed=1)
    pick = np.random.default_rng(seed).choice(len(base), n, replace=False)
    return np.ascontiguousarray(base[np.sort(pick)])


@pytest.mark.parametrize("fanout", [8, 64])
@pytest.mark.parametrize("seed", [1, 2])
def test_county_sample(seed, fanout):
    assert_same_tree(*build_pair(county_sample(seed), fanout))


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_uniform(dim):
    points = np.random.default_rng(dim).random((700, dim))
    assert_same_tree(*build_pair(points, 8))


def test_lattice_reaches_tie_fallback():
    """600 draws from a 9 x 9 grid: zero-growth ties at the leaf level."""
    points = np.random.default_rng(0).integers(0, 9, size=(600, 2)).astype(float)
    assert_same_tree(*build_pair(points, 5))


def test_lattice_3d():
    points = np.indices((8, 8, 8)).reshape(3, -1).T.astype(float)
    assert_same_tree(*build_pair(points, 6))


def test_collinear():
    points = np.column_stack([np.full(300, 0.5), np.random.default_rng(1).random(300)])
    assert_same_tree(*build_pair(points, 6))


def test_all_duplicates():
    assert_same_tree(*build_pair(np.tile([[0.25, 0.75]], (200, 1)), 4))


@pytest.mark.parametrize(
    "metric", [Manhattan(), Chebyshev(), Minkowski(3)], ids=lambda m: m.name
)
def test_reinsert_order_metrics(metric):
    points = np.random.default_rng(7).random((800, 3))
    assert_same_tree(*build_pair(points, 8, metric=metric))


def test_shuffled_insertion_order():
    points = load_dataset("mg_county", 2000, seed=3)
    assert_same_tree(*build_pair(points, 16, shuffle_seed=5))


def test_add_point_delete_churn():
    rng = np.random.default_rng(11)
    tree, reference = build_pair(rng.random((300, 2)), 6)
    for _ in range(600):
        if rng.random() < 0.5:
            pid = int(rng.integers(len(tree.points)))
            assert tree.delete(pid) == reference.delete(pid)
        else:
            coords = rng.random(2)
            assert tree.add_point(coords) == reference.add_point(coords)
    assert_same_tree(tree, reference)


@pytest.mark.parametrize("split", ["quadratic", "linear"])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_guttman_rtree(split, dim):
    points = np.random.default_rng(dim).random((400, dim))
    assert_same_tree(*build_pair(points, 8, rstar=False, split=split))


@settings(max_examples=40, deadline=None)
@given(
    side=st.integers(2, 6),
    n=st.integers(1, 160),
    max_entries=st.integers(4, 8),
    seed=st.integers(0, 2**16),
)
def test_small_lattices(side, n, max_entries, seed):
    points = np.random.default_rng(seed).integers(0, side, size=(n, 2)).astype(float)
    assert_same_tree(*build_pair(points, max_entries))
