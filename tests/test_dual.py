"""Unit tests for the dual-tree spatial join (repro.core.dual)."""

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_cross_links
from repro.core.dual import compact_spatial_join, spatial_join
from repro.errors import InvalidInputError
from repro.index.bulk import bulk_load
from repro.index.mtree import MTree


@pytest.fixture
def overlapping_pair(rng):
    """Two datasets sharing cluster centres (explosion-prone overlap)."""
    centers = rng.random((5, 2))
    a = np.clip(
        centers[rng.integers(0, 5, 300)] + rng.normal(scale=0.01, size=(300, 2)), 0, 1
    )
    b = np.clip(
        centers[rng.integers(0, 5, 350)] + rng.normal(scale=0.012, size=(350, 2)), 0, 1
    )
    return a, b


class TestStandardSpatialJoin:
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
    def test_matches_brute_force(self, overlapping_pair, eps):
        a, b = overlapping_pair
        result = spatial_join(bulk_load(a, max_entries=16), bulk_load(b, max_entries=16), eps)
        assert set(result.links) == brute_force_cross_links(a, b, eps)

    def test_no_self_pairs(self, overlapping_pair):
        """A spatial join never reports within-dataset pairs, even though
        both sides are dense."""
        a, b = overlapping_pair
        result = spatial_join(bulk_load(a), bulk_load(b), 0.05)
        # Positional semantics: all links are (a-index, b-index) — checked
        # by the ground-truth comparison; here we check the label.
        assert result.algorithm == "ssj-spatial"

    def test_disjoint_datasets(self, rng):
        a = rng.random((100, 2)) * 0.2
        b = rng.random((100, 2)) * 0.2 + 0.7
        result = spatial_join(bulk_load(a), bulk_load(b), 0.05)
        assert result.links == []


class TestCompactSpatialJoin:
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.15])
    @pytest.mark.parametrize("g", [0, 10])
    def test_lossless(self, overlapping_pair, eps, g):
        a, b = overlapping_pair
        result = compact_spatial_join(
            bulk_load(a, max_entries=16), bulk_load(b, max_entries=16), eps, g=g
        )
        assert result.expanded_cross_links() == brute_force_cross_links(a, b, eps)

    def test_compacts_output(self, overlapping_pair):
        a, b = overlapping_pair
        ta, tb = bulk_load(a, max_entries=16), bulk_load(b, max_entries=16)
        standard = spatial_join(ta, tb, 0.08)
        compact = compact_spatial_join(ta, tb, 0.08, g=10)
        assert compact.output_bytes < standard.output_bytes

    def test_group_pairs_satisfy_range(self, overlapping_pair):
        a, b = overlapping_pair
        eps = 0.05
        result = compact_spatial_join(bulk_load(a), bulk_load(b), eps, g=10)
        for ids_a, ids_b in result.group_pairs:
            cross = np.linalg.norm(
                a[list(ids_a)][:, None] - b[list(ids_b)][None, :], axis=-1
            )
            assert cross.max() < eps

    def test_labels(self, overlapping_pair):
        a, b = overlapping_pair
        ta, tb = bulk_load(a), bulk_load(b)
        assert compact_spatial_join(ta, tb, 0.05, g=10).algorithm == "csj(10)-spatial"
        assert compact_spatial_join(ta, tb, 0.05, g=0).algorithm == "ncsj-spatial"

    def test_mtree_spatial(self, overlapping_pair):
        a, b = overlapping_pair
        result = compact_spatial_join(
            MTree(a, max_entries=16), MTree(b, max_entries=16), 0.05, g=10
        )
        assert result.expanded_cross_links() == brute_force_cross_links(a, b, 0.05)

    def test_early_stop_on_shared_dense_regions(self, overlapping_pair):
        a, b = overlapping_pair
        result = compact_spatial_join(bulk_load(a), bulk_load(b), 0.3, g=10)
        assert result.stats.early_stops > 0


class TestValidation:
    def test_index_families_must_match(self, overlapping_pair):
        """Rectangle and ball trees have no common bounds to prune with."""
        a, b = overlapping_pair
        with pytest.raises(InvalidInputError, match="one family"):
            spatial_join(bulk_load(a), MTree(b, max_entries=16), 0.05)
        with pytest.raises(InvalidInputError, match="one family"):
            compact_spatial_join(MTree(a, max_entries=16), bulk_load(b), 0.05)

    def test_metric_mismatch(self, overlapping_pair):
        a, b = overlapping_pair
        with pytest.raises(ValueError, match="metric mismatch"):
            spatial_join(bulk_load(a, metric="l1"), bulk_load(b, metric="l2"), 0.1)

    def test_eps_validation(self, overlapping_pair):
        a, b = overlapping_pair
        with pytest.raises(ValueError):
            spatial_join(bulk_load(a), bulk_load(b), -0.1)
        with pytest.raises(ValueError):
            compact_spatial_join(bulk_load(a), bulk_load(b), 0.1, g=-2)

    def test_empty_sides(self, rng):
        a = rng.random((50, 2))
        empty = np.empty((0, 2))
        result = spatial_join(bulk_load(a), bulk_load(empty), 0.1)
        assert result.links == []
        result = compact_spatial_join(bulk_load(empty), bulk_load(a), 0.1)
        assert result.group_pairs == []
