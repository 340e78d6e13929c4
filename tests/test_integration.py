"""End-to-end integration tests across modules.

These exercise the realistic pipelines a downstream user would run:
generate a paper-like dataset, build an index, join, write the output
file, read it back, expand it, and mine it — asserting consistency at
every seam.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro import (
    CollectSink,
    TextSink,
    brute_force_links,
    build_index,
    check_equivalence,
    csj,
    find_outliers,
    ncsj,
    similarity_join,
    ssj,
)
from repro.datasets import load_dataset, mg_county, pacific_nw, sierpinski_pyramid
from repro.index import pack_index
from repro.io.writer import read_output, width_for


class TestFilePipeline:
    def test_write_read_expand_round_trip(self, tmp_path, clustered_2d):
        """Compact output written to disk re-reads to the same link set."""
        eps = 0.05
        path = str(tmp_path / "compact.txt")
        width = width_for(len(clustered_2d))
        tree = build_index(clustered_2d)
        with TextSink(path, id_width=width) as sink:
            csj(tree, eps, g=10, sink=sink)
        links, groups, _ = read_output(path)

        expanded = set()
        for i, j in links:
            expanded.add((min(i, j), max(i, j)))
        for ids in groups:
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    expanded.add((min(ids[a], ids[b]), max(ids[a], ids[b])))
        assert expanded == brute_force_links(clustered_2d, eps)

    def test_file_size_is_the_space_metric(self, tmp_path, clustered_2d):
        eps = 0.05
        width = width_for(len(clustered_2d))
        tree = build_index(clustered_2d)
        sizes = {}
        for name, runner in (("ssj", ssj), ("ncsj", ncsj)):
            path = str(tmp_path / f"{name}.txt")
            with TextSink(path, id_width=width) as sink:
                result = runner(tree, eps, sink=sink)
            assert os.path.getsize(path) == result.output_bytes
            sizes[name] = os.path.getsize(path)
        assert sizes["ncsj"] <= sizes["ssj"]


class TestPeakMemory:
    """A join's memory follows its compact output, not its pair count.

    Fig 7's dense workload (Sierpinski3D, eps 0.125, fanout 8) implies
    ~80k pairs from 2000 points.  The bound is that pair list stored as
    two int64 ids per pair, so any path that collects pairs before
    writing them exceeds it.
    """

    @pytest.mark.parametrize("algorithm", ["ncsj", "csj"])
    def test_peak_below_pair_list(self, tmp_path, algorithm):
        eps = 0.125
        points = load_dataset("sierpinski3d", 2000, seed=0)
        pairs = len(brute_force_links(points, eps))

        def traced_peak(pts, path):
            tree = build_index(pts, "rstar", max_entries=8, bulk="str")
            pack_index(tree)  # index set-up is O(n); only the join is traced
            with TextSink(str(path), id_width=width_for(len(pts))) as sink:
                tracemalloc.start()
                try:
                    if algorithm == "ncsj":
                        ncsj(tree, eps, sink=sink)
                    else:
                        csj(tree, eps, g=10, sink=sink)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            return peak

        # Lazy imports and kernel caches load on the first join; keep
        # them out of the measured one.
        traced_peak(points[:64], tmp_path / "warm.txt")
        peak = traced_peak(points, tmp_path / "out.txt")
        assert peak < 16 * pairs, (
            f"{algorithm} peaked at {peak} bytes for {pairs} pairs"
        )


class TestPaperDatasetsPipelines:
    def test_mg_county_small(self):
        pts = mg_county(2000, seed=0)
        result = similarity_join(pts, 0.02, algorithm="csj")
        check_equivalence(pts, 0.02, result).raise_if_failed()

    def test_sierpinski_small(self):
        pts = sierpinski_pyramid(1500, seed=0)
        result = similarity_join(pts, 0.125, algorithm="csj")
        check_equivalence(pts, 0.125, result).raise_if_failed()

    def test_pacific_nw_small(self):
        pts = pacific_nw(2000, seed=0)
        result = similarity_join(pts, 0.02, algorithm="csj")
        check_equivalence(pts, 0.02, result).raise_if_failed()


class TestNVOStorageScenario:
    """The paper's motivating NVO scenario: store a compact result, serve
    link queries from it later without recomputation."""

    def test_stored_result_serves_membership_queries(self, tmp_path, clustered_2d):
        eps = 0.05
        path = str(tmp_path / "stored.txt")
        tree = build_index(clustered_2d)
        with TextSink(path, id_width=width_for(len(clustered_2d))) as sink:
            csj(tree, eps, g=10, sink=sink)

        # Later session: answer "are i and j within eps?" from the file.
        links, groups, _ = read_output(path)
        membership = {}
        for g_idx, ids in enumerate(groups):
            for i in ids:
                membership.setdefault(i, set()).add(g_idx)
        link_set = {(min(i, j), max(i, j)) for i, j in links}

        def connected(i, j):
            if (min(i, j), max(i, j)) in link_set:
                return True
            return bool(membership.get(i, set()) & membership.get(j, set()))

        truth = brute_force_links(clustered_2d, eps)
        rng = np.random.default_rng(0)
        for _ in range(300):
            i, j = rng.integers(0, len(clustered_2d), 2)
            if i == j:
                continue
            assert connected(i, j) == ((min(i, j), max(i, j)) in truth)


class TestOutlierScenario:
    def test_outliers_found_without_expansion(self, rng):
        centers = rng.random((3, 2)) * 0.6 + 0.2
        dense = centers[rng.integers(0, 3, 500)] + rng.normal(scale=0.008, size=(500, 2))
        lonely = np.array([[0.02, 0.02], [0.98, 0.98]])
        pts = np.vstack([dense, lonely])
        result = similarity_join(pts, 0.04, algorithm="csj")
        outliers = set(find_outliers(result, len(pts), max_group_size=2).tolist())
        assert {500, 501} <= outliers

    def test_collect_sink_shared_stats(self, clustered_2d):
        sink = CollectSink(id_width=3)
        result = similarity_join(clustered_2d, 0.05, algorithm="csj", sink=sink)
        assert result.stats is sink.stats
        assert result.groups == sink.groups


class TestCrossAlgorithmConsistency:
    """All five algorithms must imply the identical link set."""

    @pytest.mark.parametrize("eps", [0.02, 0.06])
    def test_all_agree(self, clustered_2d, eps):
        expansions = []
        for algorithm in ("ssj", "ncsj", "csj", "egrid", "egrid-csj"):
            result = similarity_join(clustered_2d, eps, algorithm=algorithm)
            expansions.append(result.expanded_links())
        assert all(e == expansions[0] for e in expansions[1:])

    def test_all_indexes_agree(self, clustered_2d):
        expansions = []
        for index in ("rtree", "rstar", "mtree"):
            result = similarity_join(clustered_2d, 0.05, algorithm="csj", index=index)
            expansions.append(result.expanded_links())
        assert all(e == expansions[0] for e in expansions[1:])
