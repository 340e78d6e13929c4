"""Property-based tests (hypothesis) for the core invariants.

The central property is the paper's Theorems 1 and 2: for *any* point set,
query range, index structure and window size, the compact join output
expands to exactly the brute-force link set.  Hypothesis explores point
configurations (duplicates, collinear points, exact-distance ties,
degenerate dimensions) far nastier than the random fixtures.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import similarity_join
from repro.core.bruteforce import brute_force_links
from repro.core.csj import csj
from repro.core.ssj import ssj
from repro.core.verify import check_equivalence
from repro.geometry.mbr import MBR
from repro.index.bulk import bulk_load
from repro.index.mtree import MTree
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree

# Coordinates on a coarse lattice maximise exact-distance ties, the
# hardest case for strict-inequality agreement.
coordinate = st.one_of(
    st.integers(0, 8).map(lambda v: v / 8.0),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False, width=32),
)


def point_sets(min_points=2, max_points=60, dims=(1, 2, 3)):
    return st.integers(min(dims), max(dims)).flatmap(
        lambda d: st.lists(
            st.lists(coordinate, min_size=d, max_size=d),
            min_size=min_points,
            max_size=max_points,
        ).map(lambda rows: np.asarray(rows, dtype=float))
    )


epsilons = st.sampled_from([0.05, 0.125, 0.25, 0.5, 1.0])
window_sizes = st.sampled_from([0, 1, 3, 10])


@settings(max_examples=60, deadline=None)
@given(pts=point_sets(), eps=epsilons, g=window_sizes)
def test_csj_lossless_on_arbitrary_input(pts, eps, g):
    tree = bulk_load(pts, max_entries=4)
    result = csj(tree, eps, g=g)
    check_equivalence(pts, eps, result).raise_if_failed()


@settings(max_examples=30, deadline=None)
@given(pts=point_sets(), eps=epsilons)
def test_ssj_matches_brute_force(pts, eps):
    tree = bulk_load(pts, max_entries=4)
    result = ssj(tree, eps)
    assert set(result.links) == brute_force_links(pts, eps)


@settings(max_examples=30, deadline=None)
@given(pts=point_sets(max_points=40), eps=epsilons, g=window_sizes)
def test_csj_lossless_on_dynamic_rtree(pts, eps, g):
    tree = RTree(pts, max_entries=4)
    result = csj(tree, eps, g=g)
    check_equivalence(pts, eps, result).raise_if_failed()


@settings(max_examples=25, deadline=None)
@given(pts=point_sets(max_points=40), eps=epsilons)
def test_csj_lossless_on_mtree(pts, eps):
    tree = MTree(pts, max_entries=4)
    result = csj(tree, eps, g=10)
    check_equivalence(pts, eps, result).raise_if_failed()


@settings(max_examples=30, deadline=None)
@given(pts=point_sets(), eps=epsilons, g=window_sizes)
def test_egrid_lossless(pts, eps, g):
    result = similarity_join(pts, eps, algorithm="egrid-csj", g=g)
    check_equivalence(pts, eps, result).raise_if_failed()


@settings(max_examples=40, deadline=None)
@given(pts=point_sets(), eps=epsilons)
def test_groups_internally_valid(pts, eps):
    """Theorem 2 at the point level: every group's realised diameter is
    strictly below the range."""
    tree = bulk_load(pts, max_entries=4)
    result = csj(tree, eps, g=10)
    for ids in result.groups:
        members = pts[list(ids)]
        diffs = members[:, None, :] - members[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=-1))
        assert dists.max() < eps


@settings(max_examples=40, deadline=None)
@given(pts=point_sets(min_points=1))
def test_tree_invariants_hold(pts):
    for cls in (RTree, RStarTree, MTree):
        cls(pts, max_entries=4).validate()


@settings(max_examples=40, deadline=None)
@given(pts=point_sets(min_points=1), drop=st.lists(st.integers(0, 59), max_size=30))
def test_rtree_delete_preserves_invariants(pts, drop):
    tree = RTree(pts, max_entries=4)
    expected = set(range(len(pts)))
    for pid in drop:
        if pid < len(pts) and pid in expected:
            assert tree.delete(pid)
            expected.discard(pid)
    tree.validate()
    stored = {int(i) for leaf in tree.leaves() for i in leaf.entry_ids}
    assert stored == expected


@settings(max_examples=25, deadline=None)
@given(
    pts=point_sets(min_points=4, max_points=40),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 39)), max_size=40),
)
def test_rstar_interleaved_updates_preserve_invariants(pts, ops):
    """Random insert/delete interleavings keep the R*-tree valid and the
    stored set consistent, and the join on the final tree is lossless."""
    half = len(pts) // 2
    tree = RStarTree(pts[:half], max_entries=4)
    tree.points = pts  # allow inserting the back half...
    tree._deleted = set(range(half, len(pts)))  # ...which starts absent
    stored = set(range(half))
    for is_insert, pid in ops:
        if pid >= len(pts):
            continue
        if is_insert and pid not in stored:
            tree.insert(pid)
            stored.add(pid)
        elif not is_insert and pid in stored:
            assert tree.delete(pid)
            stored.discard(pid)
    tree.validate()
    in_leaves = {int(i) for leaf in tree.leaves() for i in leaf.entry_ids}
    assert in_leaves == stored
    if len(stored) >= 2:
        result = csj(tree, 0.25, g=5)
        implied = result.expanded_links()
        kept = sorted(stored)
        truth = {
            (kept[a], kept[b])
            for a in range(len(kept))
            for b in range(a + 1, len(kept))
            if np.sqrt(((pts[kept[a]] - pts[kept[b]]) ** 2).sum()) < 0.25
        }
        assert implied == truth


@settings(max_examples=50, deadline=None)
@given(pts=point_sets(min_points=2, max_points=20))
def test_mbr_of_points_covers_and_is_tight(pts):
    mbr = MBR.of_points(pts)
    for p in pts:
        assert mbr.contains_point(p)
    assert np.array_equal(mbr.lo, pts.min(axis=0))
    assert np.array_equal(mbr.hi, pts.max(axis=0))


@settings(max_examples=50, deadline=None)
@given(
    pts=point_sets(min_points=2, max_points=20),
    probe=st.lists(coordinate, min_size=3, max_size=3),
)
def test_mbr_distance_bounds_bracket_truth(pts, probe):
    p = np.asarray(probe[: pts.shape[1]], dtype=float)
    mbr = MBR.of_points(pts)
    dists = np.sqrt(((pts - p) ** 2).sum(axis=1))
    assert mbr.min_dist_point(p) <= dists.min() + 1e-9
    assert mbr.max_dist_point(p) >= dists.max() - 1e-9


@settings(max_examples=40, deadline=None)
@given(pts=point_sets(min_points=2, max_points=50), eps=epsilons)
def test_range_query_agrees_with_scan(pts, eps):
    tree = bulk_load(pts, max_entries=4)
    probe = pts[0]
    expected = np.nonzero(np.sqrt(((pts - probe) ** 2).sum(axis=1)) < eps)[0]
    assert tree.range_query(probe, eps).tolist() == expected.tolist()


@settings(max_examples=25, deadline=None)
@given(
    pts_a=point_sets(min_points=1, max_points=30, dims=(2,)),
    pts_b=point_sets(min_points=1, max_points=30, dims=(2,)),
    eps=epsilons,
    g=window_sizes,
)
def test_spatial_join_lossless(pts_a, pts_b, eps, g):
    from repro.core.bruteforce import brute_force_cross_links
    from repro.core.dual import compact_spatial_join

    tree_a = bulk_load(pts_a, max_entries=4)
    tree_b = bulk_load(pts_b, max_entries=4)
    result = compact_spatial_join(tree_a, tree_b, eps, g=g)
    assert result.expanded_cross_links() == brute_force_cross_links(pts_a, pts_b, eps)


@settings(max_examples=25, deadline=None)
@given(
    words=st.lists(st.text(alphabet="abc", min_size=0, max_size=6), min_size=2, max_size=25),
    eps=st.sampled_from([1.0, 2.0, 3.0]),
    g=window_sizes,
)
def test_metric_space_join_lossless(words, eps, g):
    from repro.core.metricspace import (
        brute_force_object_links,
        metric_similarity_join,
    )

    def hamming(a, b):
        return float(sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))

    result = metric_similarity_join(words, eps, hamming, g=g, max_entries=4)
    assert result.expanded_links() == brute_force_object_links(words, eps, hamming)


@settings(max_examples=30, deadline=None)
@given(pts=point_sets(min_points=1, max_points=40), k=st.integers(1, 8))
def test_knn_matches_linear_scan(pts, k):
    tree = bulk_load(pts, max_entries=4)
    probe = pts[0] * 0.5
    dists = np.sqrt(((pts - probe) ** 2).sum(axis=1))
    expected = np.lexsort((np.arange(len(pts)), dists))[: min(k, len(pts))]
    assert tree.nearest(probe, k=k).tolist() == expected.tolist()


@settings(max_examples=30, deadline=None)
@given(pts=point_sets(min_points=2, max_points=40), eps=epsilons)
def test_clusters_from_compact_equal_clusters_from_standard(pts, eps):
    from repro.core.clusters import connected_components
    from repro.core.ssj import ssj as run_ssj

    tree = bulk_load(pts, max_entries=4)
    compact = csj(tree, eps, g=10)
    standard = run_ssj(tree, eps)

    def partition(labels):
        groups = {}
        for i, label in enumerate(labels.tolist()):
            groups.setdefault(label, set()).add(i)
        return frozenset(frozenset(v) for v in groups.values())

    assert partition(connected_components(compact, len(pts))) == partition(
        connected_components(standard, len(pts))
    )
