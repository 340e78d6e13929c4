"""Shared delete-path contract across all index trees.

The base class owns tombstone bookkeeping (`SpatialIndex.delete`), slot
reuse on re-insert (`add_point`), and physical compaction (`compact`);
these tests run the same scenarios over RTree, RStarTree and MTree so
the three can never diverge again (the bug this file regresses: RTree
recorded tombstones inside its own delete while RStarTree relied on a
different path, and deleted coordinates were retained forever).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.ssj import ssj
from repro.errors import InvalidInputError
from repro.index import MTree, RStarTree, RTree

TREES = [RTree, RStarTree, MTree]
TREE_IDS = [cls.name for cls in TREES]


@pytest.fixture(params=TREES, ids=TREE_IDS)
def tree_class(request):
    return request.param


class TestUnifiedTombstones:
    def test_delete_records_tombstone(self, rng, tree_class):
        tree = tree_class(rng.random((80, 2)), max_entries=8)
        assert tree.delete(7)
        assert 7 in tree._deleted
        assert 7 in tree._free_slots
        tree.validate()

    def test_double_delete_returns_false(self, rng, tree_class):
        tree = tree_class(rng.random((40, 2)), max_entries=8)
        assert tree.delete(5)
        assert not tree.delete(5)
        assert not tree.delete(-1)
        assert not tree.delete(40)

    def test_deleted_points_leave_queries(self, rng, tree_class):
        pts = rng.random((120, 2))
        tree = tree_class(pts, max_entries=8)
        victims = [3, 60, 119]
        for pid in victims:
            assert tree.delete(pid)
        tree.validate()
        everything = set(tree.range_query(np.array([0.5, 0.5]), 10.0).tolist())
        assert everything == set(range(120)) - set(victims)

    def test_insert_resurrects_tombstone(self, rng, tree_class):
        tree = tree_class(rng.random((40, 2)), max_entries=8)
        tree.delete(11)
        tree.insert(11)
        assert 11 not in tree._deleted
        tree.validate()

    def test_join_after_resurrection_sees_the_point(self, tree_class):
        """Regression: a direct insert must retire the memoized pack.

        Only delete and add_point bumped the structure version, so a join
        after ``insert(5)`` reused the pack built while 5 was deleted and
        lost its links (Theorem 1).
        """
        pts = np.random.default_rng(0).random((300, 2))
        tree = tree_class(pts, max_entries=8)
        full = set(ssj(tree_class(pts, max_entries=8), 0.08).links)
        assert tree.delete(5)
        assert set(ssj(tree, 0.08).links) == {l for l in full if 5 not in l}
        tree.insert(5)
        assert set(ssj(tree, 0.08).links) == full


class TestSlotReuse:
    def test_add_point_reuses_lowest_free_slot(self, rng, tree_class):
        tree = tree_class(rng.random((50, 2)), max_entries=8)
        for pid in (20, 4, 33):
            tree.delete(pid)
        assert tree.add_point([0.5, 0.5]) == 4
        assert tree.add_point([0.6, 0.6]) == 20
        assert tree.add_point([0.7, 0.7]) == 33
        # No free slots left: the next insert appends.
        assert tree.add_point([0.8, 0.8]) == 50
        tree.validate()
        assert np.allclose(tree.points[4], [0.5, 0.5])

    def test_add_point_skips_stale_heap_entries(self, rng, tree_class):
        tree = tree_class(rng.random((30, 2)), max_entries=8)
        tree.delete(9)
        tree.insert(9)  # resurrect directly: heap entry for 9 goes stale
        pid = tree.add_point([0.4, 0.4])
        assert pid == 30  # slot 9 is live again, not reusable
        tree.validate()

    def test_add_point_validates_input(self, rng, tree_class):
        tree = tree_class(rng.random((10, 2)), max_entries=8)
        with pytest.raises(InvalidInputError):
            tree.add_point([1.0, 2.0, 3.0])  # wrong dimensionality
        with pytest.raises(InvalidInputError):
            tree.add_point([np.nan, 0.0])
        with pytest.raises(InvalidInputError):
            tree.add_point([0.1, 0.2], pid=3)  # 3 is live, not a free slot

    def test_slot_reuse_never_mutates_caller_array(self, rng, tree_class):
        # Regression: the tree adopts the caller's array without copying;
        # reusing a tombstoned slot used to write straight into it.
        pts = rng.random((40, 2))
        original = pts.copy()
        tree = tree_class(pts, max_entries=8)
        tree.delete(12)
        assert tree.add_point([9.0, 9.0]) == 12
        assert np.array_equal(pts, original)
        assert np.allclose(tree.points[12], [9.0, 9.0])

    def test_add_point_growth_preserves_queries(self, rng, tree_class):
        pts = rng.random((20, 2))
        tree = tree_class(pts, max_entries=4)
        added = [tree.add_point(rng.random(2)) for _ in range(60)]
        assert added == list(range(20, 80))
        tree.validate()
        got = set(tree.range_query(np.array([0.5, 0.5]), 10.0).tolist())
        assert got == set(range(80))


class TestCompact:
    def test_compact_remaps_densely(self, rng, tree_class):
        pts = rng.random((60, 2))
        tree = tree_class(pts, max_entries=8)
        victims = {0, 10, 59}
        for pid in victims:
            tree.delete(pid)
        survivors_before = {
            pid: tree.points[pid].copy() for pid in range(60) if pid not in victims
        }
        mapping = tree.compact()
        assert set(mapping) == set(survivors_before)
        assert sorted(mapping.values()) == list(range(57))
        assert not tree._deleted
        assert len(tree.points) == 57
        tree.validate()
        for old, new in mapping.items():
            assert np.array_equal(tree.points[new], survivors_before[old])

    def test_need_compact_threshold(self, rng, tree_class):
        tree = tree_class(rng.random((200, 2)), max_entries=8)
        assert not tree.need_compact()
        # Below the absolute floor nothing triggers, however high the ratio.
        for pid in range(40):
            tree.delete(pid)
        assert not tree.need_compact()
        for pid in range(40, 110):
            tree.delete(pid)
        assert tree.need_compact()
        tree.compact()
        assert not tree.need_compact()


class TestBoundedChurnMemory:
    def test_churn_does_not_grow_memory(self, rng, tree_class):
        """Regression: sustained delete/insert churn must not leak.

        Before slot reuse, every re-insert appended a new row and every
        delete grew ``_deleted`` forever.  With reuse, steady-state churn
        touches a fixed set of rows; the tracemalloc high-water mark of
        the late phase must stay close to the early phase.
        """
        pts = rng.random((150, 2))
        tree = tree_class(pts, max_entries=8)

        def churn(rounds: int) -> None:
            for _ in range(rounds):
                pid = int(rng.integers(len(tree.points)))
                if tree.delete(pid):
                    tree.add_point(rng.random(2))

        churn(50)  # reach steady state
        tracemalloc.start()
        churn(100)
        early, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        churn(400)
        late, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Point array must not have grown: every insert reused a slot.
        assert len(tree.points) == 150
        assert len(tree._deleted) == 0
        # Allow slack for allocator noise, but rule out linear growth
        # (the old behaviour grew points by ~400 rows and _deleted by
        # ~400 entries here).
        assert late <= max(early * 1.5, early + 16_384)
        tree.validate()
