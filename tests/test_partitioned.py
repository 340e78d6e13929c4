"""Unit tests for PBSM and the spatial hash join (repro.core.partitioned)."""

import numpy as np
import pytest

from repro.api import similarity_join
from repro.core.bruteforce import brute_force_cross_links, brute_force_links
from repro.core.groups import apply_events
from repro.core.partitioned import partition_delta, pbsm_plan, spatial_hash_join
from repro.core.results import CollectSink
from repro.core.verify import check_equivalence
from repro.errors import InvalidInputError
from repro.geometry.metrics import get_metric


class TestPBSM:
    @pytest.mark.parametrize("eps", [0.02, 0.05, 0.15])
    def test_matches_brute_force(self, uniform_2d, eps):
        result = similarity_join(uniform_2d, eps, algorithm="pbsm")
        assert set(result.links) == brute_force_links(uniform_2d, eps)

    def test_no_duplicate_links(self, clustered_2d):
        result = similarity_join(clustered_2d, 0.05, algorithm="pbsm")
        assert len(result.links) == len(set(result.links))

    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_partition_count_invariant(self, uniform_2d, parts):
        """Output identical regardless of how space is partitioned."""
        tasks, home_of = pbsm_plan(uniform_2d, 0.08, parts)
        sink = CollectSink()
        for task in tasks:
            events, _ = partition_delta(
                uniform_2d, get_metric(None), 0.08, False, home_of, task
            )
            apply_events(events, sink, None)
        assert len(sink.links) == len(set(sink.links))
        assert set(sink.links) == brute_force_links(uniform_2d, 0.08)

    @pytest.mark.parametrize("g", [0, 10])
    def test_compact_lossless(self, clustered_2d, g):
        result = similarity_join(clustered_2d, 0.05, algorithm="pbsm-csj", g=g)
        check_equivalence(clustered_2d, 0.05, result).raise_if_failed()

    def test_compact_reduces_output(self, clustered_2d):
        plain = similarity_join(clustered_2d, 0.05, algorithm="pbsm")
        compact = similarity_join(clustered_2d, 0.05, algorithm="pbsm-csj", g=10)
        assert compact.output_bytes < plain.output_bytes

    def test_3d(self, uniform_3d):
        result = similarity_join(uniform_3d, 0.15, algorithm="pbsm-csj", g=10)
        check_equivalence(uniform_3d, 0.15, result).raise_if_failed()

    def test_metric_parameterised(self, uniform_2d):
        result = similarity_join(uniform_2d, 0.1, algorithm="pbsm", metric="l1")
        assert set(result.links) == brute_force_links(uniform_2d, 0.1, "l1")

    def test_exact_distance_grid(self):
        side = 6
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
        for eps in (1.0, np.sqrt(2.0)):
            result = similarity_join(pts, eps, algorithm="pbsm-csj", g=10)
            check_equivalence(pts, eps, result).raise_if_failed()

    def test_labels(self, uniform_2d):
        def label(**kwargs):
            return similarity_join(uniform_2d, 0.05, **kwargs).algorithm

        assert label(algorithm="pbsm") == "pbsm"
        assert label(algorithm="pbsm-csj") == "pbsm-csj(10)"
        assert label(algorithm="pbsm-csj", g=0) == "pbsm-ncsj"

    def test_edge_cases(self):
        with pytest.raises(InvalidInputError):
            similarity_join(np.empty((0, 2)), 0.1, algorithm="pbsm")
        single = similarity_join(np.array([[0.5, 0.5]]), 0.1, algorithm="pbsm")
        assert single.links == []
        with pytest.raises(ValueError):
            similarity_join(np.zeros((2, 2)), 0.0, algorithm="pbsm")


class TestSpatialHashJoin:
    @pytest.fixture
    def pair(self, rng):
        centers = rng.random((4, 2))
        a = np.clip(centers[rng.integers(0, 4, 250)] + rng.normal(scale=0.01, size=(250, 2)), 0, 1)
        b = np.clip(centers[rng.integers(0, 4, 300)] + rng.normal(scale=0.01, size=(300, 2)), 0, 1)
        return a, b

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.15])
    def test_matches_brute_force(self, pair, eps):
        a, b = pair
        result = spatial_hash_join(a, b, eps)
        assert set(result.links) == brute_force_cross_links(a, b, eps)

    @pytest.mark.parametrize("g", [0, 10])
    def test_compact_lossless(self, pair, g):
        a, b = pair
        result = spatial_hash_join(a, b, 0.05, compact=True, g=g)
        assert result.expanded_cross_links() == brute_force_cross_links(a, b, 0.05)

    def test_compact_reduces_output(self, pair):
        a, b = pair
        plain = spatial_hash_join(a, b, 0.05)
        compact = spatial_hash_join(a, b, 0.05, compact=True, g=10)
        assert compact.output_bytes < plain.output_bytes

    def test_asymmetric_sides(self, rng):
        build = rng.random((40, 2))
        probe = rng.random((500, 2)) * 0.3
        result = spatial_hash_join(build, probe, 0.1)
        assert set(result.links) == brute_force_cross_links(build, probe, 0.1)

    def test_empty_sides(self, rng):
        pts = rng.random((20, 2))
        assert spatial_hash_join(np.empty((0, 2)), pts, 0.1).links == []
        assert spatial_hash_join(pts, np.empty((0, 2)), 0.1).links == []

    def test_labels(self, pair):
        a, b = pair
        assert spatial_hash_join(a, b, 0.05).algorithm == "hash"
        assert spatial_hash_join(a, b, 0.05, compact=True).algorithm == "hash-csj(10)"

    def test_eps_validation(self, pair):
        a, b = pair
        with pytest.raises(ValueError):
            spatial_hash_join(a, b, -0.1)

    def test_agrees_with_dual_tree(self, pair):
        from repro.core.dual import spatial_join
        from repro.index.bulk import bulk_load

        a, b = pair
        hashed = spatial_hash_join(a, b, 0.05)
        dual = spatial_join(bulk_load(a), bulk_load(b), 0.05)
        assert set(hashed.links) == set(dual.links)
