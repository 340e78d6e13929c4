"""Unit tests for the epsilon-grid-order join (repro.core.egrid)."""

import numpy as np
import pytest

from repro.api import similarity_join
from repro.core.bruteforce import brute_force_links
from repro.core.egrid import _positive_neighbour_offsets, grid_cells
from repro.core.verify import check_equivalence


class TestGridCells:
    def test_cells_partition_ids(self, uniform_2d):
        cells = grid_cells(uniform_2d, 0.1)
        ids = sorted(int(i) for arr in cells.values() for i in arr)
        assert ids == list(range(len(uniform_2d)))

    def test_cell_coordinates(self):
        pts = np.array([[0.05, 0.05], [0.15, 0.05], [0.05, 0.15]])
        cells = grid_cells(pts, 0.1)
        assert set(cells) == {(0, 0), (1, 0), (0, 1)}

    def test_cells_in_lexicographic_order(self, uniform_2d):
        keys = list(grid_cells(uniform_2d, 0.2))
        assert keys == sorted(keys)

    def test_points_in_same_cell_grouped(self):
        pts = np.array([[0.01, 0.01], [0.02, 0.02], [0.5, 0.5]])
        cells = grid_cells(pts, 0.1)
        assert sorted(cells[(0, 0)].tolist()) == [0, 1]


class TestNeighbourOffsets:
    def test_2d_count(self):
        # Half of the 3^2 - 1 = 8 neighbours are lexicographically positive.
        assert len(_positive_neighbour_offsets(2)) == 4

    def test_3d_count(self):
        assert len(_positive_neighbour_offsets(3)) == 13

    def test_all_positive(self):
        for offset in _positive_neighbour_offsets(3):
            assert offset > tuple([0] * 3)


class TestJoin:
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
    def test_standard_matches_brute_force(self, uniform_2d, eps):
        result = similarity_join(uniform_2d, eps, algorithm="egrid")
        assert set(result.links) == brute_force_links(uniform_2d, eps)

    @pytest.mark.parametrize("eps", [0.02, 0.07])
    def test_compact_lossless(self, clustered_2d, eps):
        result = similarity_join(clustered_2d, eps, algorithm="egrid-csj", g=10)
        check_equivalence(clustered_2d, eps, result).raise_if_failed()

    def test_compact_g0_lossless(self, clustered_2d):
        result = similarity_join(clustered_2d, 0.05, algorithm="egrid-csj", g=0)
        check_equivalence(clustered_2d, 0.05, result).raise_if_failed()

    def test_3d(self, uniform_3d):
        result = similarity_join(uniform_3d, 0.15, algorithm="egrid-csj", g=10)
        check_equivalence(uniform_3d, 0.15, result).raise_if_failed()

    def test_compact_reduces_output(self, clustered_2d):
        plain = similarity_join(clustered_2d, 0.05, algorithm="egrid")
        compact = similarity_join(clustered_2d, 0.05, algorithm="egrid-csj", g=10)
        assert compact.output_bytes < plain.output_bytes

    def test_early_termination_as_group(self, clustered_2d):
        result = similarity_join(clustered_2d, 0.08, algorithm="egrid-csj", g=10)
        assert result.stats.early_stops > 0

    def test_non_euclidean(self, uniform_2d):
        result = similarity_join(
            uniform_2d, 0.1, algorithm="egrid-csj", g=5, metric="l1"
        )
        check_equivalence(uniform_2d, 0.1, result, metric="l1").raise_if_failed()

    def test_labels(self, uniform_2d):
        assert similarity_join(uniform_2d, 0.1, algorithm="egrid").algorithm == "egrid"
        assert similarity_join(
            uniform_2d, 0.1, algorithm="egrid-csj", g=10
        ).algorithm == "egrid-csj(10)"
        assert similarity_join(
            uniform_2d, 0.1, algorithm="egrid-csj", g=0
        ).algorithm == "egrid-ncsj"

    def test_eps_validation(self, uniform_2d):
        with pytest.raises(ValueError):
            similarity_join(uniform_2d, 0.0, algorithm="egrid")

    def test_single_point(self):
        result = similarity_join(np.array([[0.5, 0.5]]), 0.1, algorithm="egrid")
        assert result.links == []

    def test_exact_distance_grid(self):
        side = 6
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
        for eps in (1.0, np.sqrt(2.0), 2.0):
            result = similarity_join(pts, eps, algorithm="egrid-csj", g=10)
            check_equivalence(pts, eps, result).raise_if_failed()

    def test_agrees_with_tree_join(self, clustered_2d):
        """Same implied link set as the tree-based CSJ."""
        from repro.core.csj import csj
        from repro.index.bulk import bulk_load

        tree = bulk_load(clustered_2d, max_entries=16)
        tree_links = csj(tree, 0.05, g=10).expanded_links()
        grid_links = similarity_join(
            clustered_2d, 0.05, algorithm="egrid-csj", g=10
        ).expanded_links()
        assert tree_links == grid_links
