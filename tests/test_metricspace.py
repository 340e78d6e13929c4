"""Unit tests for the general-metric-space joins (repro.core.metricspace)."""

import numpy as np
import pytest

from repro.api import maintained_join, similarity_join
from repro.core.dual import compact_spatial_join, spatial_join
from repro.core.metricspace import (
    BallGroupBuffer,
    ObjectMetric,
    brute_force_object_links,
    build_metric_index,
    metric_similarity_join,
)
from repro.core.results import CollectSink
from repro.errors import InvalidInputError
from repro.index.mtree import MTree
from repro.parallel.tasks import JoinSpec
from repro.resilience.checkpoint import CheckpointedJoin


def hamming(a: str, b: str) -> float:
    """Hamming-with-length-penalty distance over strings."""
    return float(sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))


def levenshtein(a: str, b: str) -> float:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return float(prev[-1])


@pytest.fixture
def words(rng):
    """Clusters of mutated words plus isolated strings."""
    seeds = ["alpha", "bridge", "crystal", "domino"]
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    out = []
    for seed_word in seeds:
        out.append(seed_word)
        for _ in range(12):
            chars = list(seed_word)
            pos = int(rng.integers(0, len(chars)))
            chars[pos] = alphabet[int(rng.integers(0, 26))]
            out.append("".join(chars))
    out.extend(["zzzzzzzzzzzz", "qqq"])
    return out


class TestObjectMetric:
    def test_distance_resolves_ids(self, words):
        metric = ObjectMetric(words, hamming)
        assert metric.distance([0.0], [0.0]) == 0.0
        direct = hamming(words[0], words[3])
        assert metric.distance([0.0], [3.0]) == direct

    def test_pairwise(self, words):
        metric = ObjectMetric(words, hamming)
        ids = np.arange(5, dtype=float).reshape(-1, 1)
        mat = metric.pairwise(ids, ids)
        assert mat.shape == (5, 5)
        assert np.allclose(np.diag(mat), 0.0)
        assert mat[1, 2] == hamming(words[1], words[2])

    def test_norm_rows_forbidden(self, words):
        with pytest.raises(TypeError, match="no vector norm"):
            ObjectMetric(words, hamming).norm_rows(np.zeros(2))


class TestMetricIndex:
    def test_builds_and_validates(self, words):
        tree = build_metric_index(words, hamming, max_entries=4)
        tree.validate()
        assert tree.size == len(words)

    def test_range_query(self, words):
        tree = build_metric_index(words, hamming, max_entries=4)
        hits = tree.range_query(np.array([0.0]), 2.0)
        expected = [
            i for i, w in enumerate(words) if hamming(words[0], w) < 2.0
        ]
        assert sorted(hits.tolist()) == expected


class TestMetricCSJ:
    @pytest.mark.parametrize("g", [0, 5, 10])
    @pytest.mark.parametrize("eps", [1.5, 2.5, 4.0])
    def test_lossless(self, words, eps, g):
        truth = brute_force_object_links(words, eps, hamming)
        result = metric_similarity_join(words, eps, hamming, g=g, max_entries=4)
        assert result.expanded_links() == truth

    def test_levenshtein_lossless(self, words):
        truth = brute_force_object_links(words, 2.0, levenshtein)
        result = metric_similarity_join(words, 2.0, levenshtein, max_entries=4)
        assert result.expanded_links() == truth

    def test_groups_mutually_satisfy(self, words):
        eps = 3.0
        result = metric_similarity_join(words, eps, hamming, max_entries=4)
        for ids in result.groups:
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    assert hamming(words[ids[a]], words[ids[b]]) < eps

    def test_compacts_clustered_strings(self, words):
        eps = 3.0
        compact = metric_similarity_join(words, eps, hamming, g=10, max_entries=4)
        naive = metric_similarity_join(words, eps, hamming, g=0, max_entries=4)
        assert compact.stats.groups_emitted > 0
        assert compact.output_bytes <= naive.output_bytes

    def test_labels(self, words):
        assert metric_similarity_join(words, 2.0, hamming).algorithm == "csj(10)"
        assert metric_similarity_join(words, 2.0, hamming, g=0).algorithm == "ncsj"

    def test_vector_data_through_object_interface(self, rng):
        """Sanity: a Euclidean callable gives the same links as the
        vector pipeline."""
        pts = [tuple(row) for row in rng.random((80, 2))]

        def euclid(a, b):
            return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5

        truth = brute_force_object_links(pts, 0.15, euclid)
        result = metric_similarity_join(pts, 0.15, euclid, max_entries=8)
        assert result.expanded_links() == truth


class TestBallGroupBuffer:
    """Groups are balls around coordinate rows: ``[i]`` names object i."""

    OBJECTS = ["cat", "bat", "cap", "car", "dddddd", "ddddddd", "ax", "ay"]

    def make(self, g, eps):
        sink = CollectSink(id_width=2)
        metric = ObjectMetric(self.OBJECTS, hamming)
        return BallGroupBuffer(g, eps, sink, metric), sink

    def test_merge_within_half_eps(self):
        buffer, sink = self.make(3, 4.0)
        buffer.create_group([0, 1], [0.0], 1.0)
        buffer.add_link(2, 3, [2.0], [3.0])  # both within 1 of "cat"
        buffer.flush()
        assert sink.groups == [(0, 1, 2, 3)]

    def test_reject_beyond_half_eps(self):
        buffer, sink = self.make(3, 4.0)
        buffer.create_group([0, 1], [0.0], 1.0)
        buffer.add_link(4, 5, [4.0], [5.0])  # far from "cat", d=1
        buffer.flush()
        # The far link seeds its own ball group (d = 1, 2*1 < 4); both
        # two-member groups leave the window as plain links.
        assert sink.links == [(0, 1), (4, 5)]
        assert sink.groups == []
        assert sink.stats.merge_attempts == 1
        assert sink.stats.merge_successes == 0

    def test_unseedable_link_written_individually(self):
        buffer, sink = self.make(3, 2.0)
        buffer.add_link(6, 7, [6.0], [7.0])  # d=1; 2*1 = 2 >= eps -> no ball
        buffer.flush()
        assert sink.links == [(6, 7)]
        assert sink.groups == []

    def test_loose_ball_written_through(self):
        buffer, sink = self.make(3, 4.0)
        buffer.create_group([0, 1, 2], [0.0], 2.0)  # 2 * 2 = 4, not < 4
        assert sink.groups == [(0, 1, 2)]
        assert len(buffer._window) == 0

    def test_snapshot_round_trip(self):
        buffer, _ = self.make(3, 4.0)
        buffer.create_group([0, 1], [0.0], 1.0)
        buffer.add_link(4, 5, [4.0], [5.0])
        state = buffer.snapshot()
        assert state == [[[0, 1], [0.0], 1.0], [[4, 5], [4.0], 1.0]]
        restored, sink = self.make(3, 4.0)
        restored.restore(state)
        restored.add_link(2, 3, [2.0], [3.0])
        restored.flush()
        assert sink.groups == [(0, 1, 2, 3)]
        assert sink.links == [(4, 5)]

    def test_validation(self):
        sink = CollectSink()
        metric = ObjectMetric(self.OBJECTS, hamming)
        with pytest.raises(ValueError):
            BallGroupBuffer(-1, 1.0, sink, metric)
        with pytest.raises(ValueError):
            BallGroupBuffer(1, 0.0, sink, metric)


@pytest.fixture
def repeated_words():
    """105 words: 15 distinct ones, each seven times."""
    distinct = [
        "cat", "bat", "hat", "rat", "car", "bar", "tar", "cot",
        "dog", "dig", "dug", "log", "fog", "cog", "zebra",
    ]
    return distinct * 7


def _ids(objects):
    return np.arange(len(objects), dtype=float).reshape(-1, 1)


class TestObjectMetricInTreeJoins:
    """An ObjectMetric has no coordinates: the tree joins on an M-tree
    (ssj, ncsj and csj(g), whose groups are balls) are exact over it;
    everything else is rejected before any index is built or any output
    written."""

    EPS = 1.5

    @pytest.mark.parametrize(
        "algorithm,g", [("ssj", 10), ("ncsj", 10), ("csj", 0), ("csj", 10)]
    )
    def test_mtree_joins_are_exact(self, repeated_words, algorithm, g):
        metric = ObjectMetric(repeated_words, hamming)
        result = similarity_join(
            _ids(repeated_words), self.EPS, algorithm=algorithm, g=g,
            index="mtree", metric=metric, max_entries=8,
        )
        truth = brute_force_object_links(repeated_words, self.EPS, hamming)
        assert result.expanded_links() == truth

    def test_mtree_alias_runs_merge_window(self, repeated_words):
        metric = ObjectMetric(repeated_words, hamming)
        result = similarity_join(
            _ids(repeated_words), self.EPS, algorithm="csj", g=10,
            index="m-tree", metric=metric, max_entries=8,
        )
        truth = brute_force_object_links(repeated_words, self.EPS, hamming)
        assert result.expanded_links() == truth
        assert result.stats.merge_successes > 0

    @pytest.mark.parametrize(
        "algorithm,g,index",
        [
            ("egrid", 10, "rstar"),
            ("pbsm", 10, "rstar"),
            ("egrid-csj", 10, "rstar"),
            ("pbsm-csj", 10, "rstar"),
            ("ssj", 10, "rstar"),
            ("ncsj", 10, "rtree"),
            ("csj", 0, "rtree"),
        ],
    )
    def test_rejected_before_output(self, repeated_words, algorithm, g, index):
        metric = ObjectMetric(repeated_words, hamming)
        sink = CollectSink(id_width=3)
        with pytest.raises(InvalidInputError, match="metric_similarity_join"):
            similarity_join(
                _ids(repeated_words), self.EPS, algorithm=algorithm, g=g,
                index=index, metric=metric, sink=sink,
            )
        assert sink.stats.bytes_written == 0

    def test_prebuilt_object_tree_runs_merge_window(self, repeated_words):
        words = repeated_words[:50]
        tree = build_metric_index(words, hamming, max_entries=4)
        result = similarity_join(_ids(words), self.EPS, index=tree, g=10)
        assert result.algorithm == "csj(10)"
        assert result.expanded_links() == brute_force_object_links(
            words, self.EPS, hamming
        )

    def test_join_spec_rejects(self, repeated_words, tmp_path):
        """JoinSpec guards the pool, checkpointed and served paths."""
        metric = ObjectMetric(repeated_words, hamming)
        ids = _ids(repeated_words)
        with pytest.raises(InvalidInputError, match="metric_similarity_join"):
            JoinSpec(ids, self.EPS, algorithm="egrid-csj", metric=metric)
        with pytest.raises(InvalidInputError, match="metric_similarity_join"):
            CheckpointedJoin(
                ids, self.EPS, str(tmp_path / "out.txt"), algorithm="egrid",
                metric=metric,
            ).run()
        spec = JoinSpec(ids, self.EPS, algorithm="ncsj", index="mtree", metric=metric)
        assert spec.g == 0

    def test_join_spec_runs_merge_window(self, repeated_words, tmp_path):
        """The checkpointed path replays csj(10)'s ball window exactly."""
        metric = ObjectMetric(repeated_words, hamming)
        result = CheckpointedJoin(
            _ids(repeated_words), self.EPS, str(tmp_path / "out.txt"),
            algorithm="csj", g=10, index="mtree", metric=metric, max_entries=8,
            bulk=None, cadence=5,
        ).run()
        truth = brute_force_object_links(repeated_words, self.EPS, hamming)
        assert result.expanded_links() == truth
        assert result.stats.merge_successes > 0


class TestRectangleWindowsRejectObjectMetrics:
    """Joins whose merge window bounds groups by rectangles reject an
    object metric up front, before any index work or output."""

    EPS = 2.5

    @pytest.fixture
    def trees(self, repeated_words):
        metric = ObjectMetric(repeated_words, hamming)
        ids = _ids(repeated_words)
        tree_a = MTree(ids[:50], metric=metric, max_entries=4)
        tree_b = MTree(ids[50:], metric=metric, max_entries=4)
        return tree_a, tree_b

    def test_compact_spatial_join_with_window(self, trees):
        sink = CollectSink(id_width=3)
        with pytest.raises(InvalidInputError, match="g=0"):
            compact_spatial_join(*trees, self.EPS, g=10, sink=sink)
        assert sink.stats.bytes_written == 0

    @pytest.mark.parametrize("compact", [False, True], ids=["plain", "ncsj"])
    def test_spatial_joins_without_window_are_exact(
        self, repeated_words, trees, compact
    ):
        if compact:
            implied = compact_spatial_join(*trees, self.EPS, g=0).expanded_cross_links()
        else:
            implied = set(spatial_join(*trees, self.EPS).links)
        left, right = repeated_words[:50], repeated_words[50:]
        truth = {
            (i, j)
            for i, a in enumerate(left)
            for j, b in enumerate(right)
            if hamming(a, b) < self.EPS
        }
        assert implied == truth

    @pytest.mark.parametrize("g", [0, 10])
    def test_maintained_join(self, repeated_words, g):
        metric = ObjectMetric(repeated_words, hamming)
        with pytest.raises(InvalidInputError, match="rectangles"):
            maintained_join(
                _ids(repeated_words), self.EPS, g=g, index="mtree", metric=metric
            )

    def test_maintained_join_over_prebuilt_object_tree(self, repeated_words):
        tree = build_metric_index(repeated_words, hamming, max_entries=4)
        with pytest.raises(InvalidInputError, match="rectangles"):
            maintained_join(_ids(repeated_words), self.EPS, g=0, index=tree)
