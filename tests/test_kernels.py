"""Batched geometry kernels vs. their scalar counterparts.

The frontier traversal's pruning rests on one claim: every kernel in
:mod:`repro.geometry.kernels` computes exactly what the corresponding
:class:`~repro.geometry.mbr.MBR` / :class:`~repro.geometry.ball.Ball`
method computes, for every supported metric and dimensionality,
including degenerate (point-sized) boxes.  Hypothesis hunts for
counterexamples here; the traversal suite (``test_traversal.py``) then
checks the end-to-end consequence against the Figure 3 recursion.

Also covers the condensed self-distance path (``Metric.condensed_self``)
including its memory shape: the whole point of the condensed form is
that no ``k x k`` intermediate is ever materialised.  The serial join's
leaf windows are held to the same kind of bound: one window needs about
the scratch memory of one 64 x 64 leaf pair.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_index
from repro.core.csj import (
    LEAF_WINDOW,
    leaf_cross_delta,
    leaf_window_delta,
    leaf_windows,
)
from repro.core.frontier import traverse
from repro.geometry import kernels
from repro.geometry.ball import Ball
from repro.geometry.mbr import MBR
from repro.geometry.metrics import Minkowski, get_metric, triu_pair_indices
from repro.index.packed import pack_index

METRICS = ["manhattan", "euclidean", "chebyshev", Minkowski(3)]

TOL = 1e-12

coordinate = st.one_of(
    st.integers(-8, 8).map(lambda v: v / 4.0),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def box_sets(draw, min_boxes=1, max_boxes=8):
    """Two sets of (lo, hi) corner arrays of a shared dimensionality.

    Degenerate boxes (``lo == hi`` on some or all axes) arise naturally
    from sorting two draws that may coincide — those are the leaf MBRs
    of single points, the exact case the joins hit constantly.
    """
    dim = draw(st.integers(1, 5))

    def one_set():
        n = draw(st.integers(min_boxes, max_boxes))
        lo = np.empty((n, dim))
        hi = np.empty((n, dim))
        for i in range(n):
            for d in range(dim):
                a = draw(coordinate)
                b = draw(coordinate)
                lo[i, d], hi[i, d] = min(a, b), max(a, b)
        return lo, hi

    return one_set(), one_set()


@st.composite
def ball_sets(draw, min_balls=1, max_balls=8):
    dim = draw(st.integers(1, 5))

    def one_set():
        n = draw(st.integers(min_balls, max_balls))
        centers = np.array(
            [[draw(coordinate) for _ in range(dim)] for _ in range(n)]
        )
        radii = np.array(
            [abs(draw(coordinate)) for _ in range(n)]
        )
        return centers, radii

    return one_set(), one_set()


@pytest.mark.parametrize("metric_name", METRICS)
@settings(max_examples=25, deadline=None)
@given(sets=box_sets())
def test_rect_matrices_match_scalar(sets, metric_name):
    (lo1, hi1), (lo2, hi2) = sets
    metric = get_metric(metric_name)
    boxes1 = [MBR(l, h) for l, h in zip(lo1, hi1)]
    boxes2 = [MBR(l, h) for l, h in zip(lo2, hi2)]
    mind = kernels.min_dist_matrix(lo1, hi1, lo2, hi2, metric)
    maxd = kernels.max_dist_matrix(lo1, hi1, lo2, hi2, metric)
    uniond = kernels.union_diagonal_matrix(lo1, hi1, lo2, hi2, metric)
    diag = kernels.diagonal(lo1, hi1, metric)
    for i, b1 in enumerate(boxes1):
        assert abs(diag[i] - b1.diagonal(metric)) <= TOL
        for j, b2 in enumerate(boxes2):
            assert abs(mind[i, j] - b1.min_dist(b2, metric)) <= TOL
            assert abs(maxd[i, j] - b1.max_dist(b2, metric)) <= TOL
            assert abs(uniond[i, j] - b1.union_diagonal(b2, metric)) <= TOL


@pytest.mark.parametrize("metric_name", METRICS)
@settings(max_examples=25, deadline=None)
@given(sets=box_sets(min_boxes=2))
def test_rect_prunes_match_scalar_order_and_content(sets, metric_name):
    (lo, hi), (lo2, hi2) = sets
    metric = get_metric(metric_name)
    eps = 1.0
    boxes = [MBR(l, h) for l, h in zip(lo, hi)]
    rows, cols = kernels.self_pairs_within(lo, hi, eps, metric)
    expected = [
        (a, b)
        for a in range(len(boxes))
        for b in range(a + 1, len(boxes))
        if boxes[a].min_dist(boxes[b], metric) < eps
    ]
    assert list(zip(rows.tolist(), cols.tolist())) == expected

    boxes2 = [MBR(l, h) for l, h in zip(lo2, hi2)]
    rows, cols = kernels.cross_pairs_within(lo, hi, lo2, hi2, eps, metric)
    expected = [
        (a, b)
        for a in range(len(boxes))
        for b in range(len(boxes2))
        if boxes[a].min_dist(boxes2[b], metric) < eps
    ]
    assert list(zip(rows.tolist(), cols.tolist())) == expected


@pytest.mark.parametrize("metric_name", METRICS)
@settings(max_examples=25, deadline=None)
@given(sets=ball_sets())
def test_ball_matrices_match_scalar(sets, metric_name):
    (c1, r1), (c2, r2) = sets
    metric = get_metric(metric_name)
    balls1 = [Ball(c, r) for c, r in zip(c1, r1)]
    balls2 = [Ball(c, r) for c, r in zip(c2, r2)]
    mind = kernels.ball_min_dist_matrix(c1, r1, c2, r2, metric)
    maxd = kernels.ball_max_dist_matrix(c1, r1, c2, r2, metric)
    uniond = kernels.ball_union_diameter_matrix(c1, r1, c2, r2, metric)
    diam = kernels.ball_diameter(r1)
    for i, b1 in enumerate(balls1):
        assert abs(diam[i] - b1.diameter()) <= TOL
        for j, b2 in enumerate(balls2):
            assert abs(mind[i, j] - b1.min_dist(b2, metric)) <= TOL
            assert abs(maxd[i, j] - b1.max_dist(b2, metric)) <= TOL
            assert abs(uniond[i, j] - b1.union_diameter(b2, metric)) <= TOL


@pytest.mark.parametrize("metric_name", METRICS)
def test_condensed_self_matches_full_pairwise(metric_name):
    metric = get_metric(metric_name)
    pts = np.random.default_rng(3).random((50, 3))
    rows, cols, dists = metric.condensed_self(pts)
    full = metric.pairwise(pts, pts)
    assert np.array_equal(dists, full[rows, cols])
    # Canonical condensed order: row-major upper triangle.
    exp_rows, exp_cols = np.triu_indices(len(pts), k=1)
    assert np.array_equal(rows, exp_rows)
    assert np.array_equal(cols, exp_cols)


def test_triu_pair_indices_cached_and_readonly():
    a = triu_pair_indices(40)
    b = triu_pair_indices(40)
    assert a[0] is b[0] and a[1] is b[1]
    assert not a[0].flags.writeable
    with pytest.raises(ValueError):
        a[0][0] = 1


def test_condensed_self_memory_shape():
    """The condensed path must beat the full-matrix path on peak memory.

    The old leaf kernel materialised the full ``k x k`` pairwise matrix
    plus a ``k x k`` boolean upper-triangle mask before discarding half
    of it.  The condensed form allocates only ``k(k-1)/2``-sized arrays;
    for float64 that alone caps the win at ~2x, and the dropped boolean
    mask pushes it further.  Guard the ratio, not absolute bytes.
    """
    metric = get_metric("euclidean")
    k, d = 400, 4
    pts = np.random.default_rng(0).random((k, d))
    triu_pair_indices(k)  # prime the cache: steady-state cost, not setup

    def full_matrix_peak():
        tracemalloc.start()
        dists = metric.pairwise(pts, pts)
        mask = np.triu(np.ones((k, k), dtype=bool), k=1)
        rows, cols = np.nonzero(mask & (dists < 0.05))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def condensed_peak():
        tracemalloc.start()
        rows, cols, dists = metric.condensed_self(pts)
        hit = np.flatnonzero(dists < 0.05)
        rows, cols = rows[hit], cols[hit]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    assert condensed_peak() < 0.7 * full_matrix_peak()


def _peak(fn) -> int:
    fn()  # lazy imports and caches load outside the measurement
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_leaf_window_memory_shape():
    """A full leaf window needs about the scratch of one 64 x 64 unit.

    The window is the 64 cross units between two sets of eight 8-entry
    leaves; the unit joins the same 64 points with the same 64 points.
    Both evaluate the same 4,096 candidate pairs, so they differ only in
    the window's padding masks and per-unit index arithmetic.
    """
    rng = np.random.default_rng(0)
    pts = rng.random((640, 3))
    packed = pack_index(build_index(pts, "rstar", max_entries=8, bulk="str"))
    sizes = packed.entry_end - packed.entry_beg
    full = [int(nid) for nid in np.flatnonzero(packed.leaf & (sizes == 8))]
    left, right = full[:8], full[8:16]
    window = [("cross", a, b) for a in left for b in right]
    assert len(window) * 8 * 8 == LEAF_WINDOW
    ids1 = np.concatenate([packed.leaf_entry_ids(a) for a in left])
    ids2 = np.concatenate([packed.leaf_entry_ids(b) for b in right])
    metric = get_metric("euclidean")
    for eps in (0.2, 2.0):  # some hits; every candidate a hit
        window_peak = _peak(
            lambda: leaf_window_delta(pts, metric, eps, packed, window, 0)
        )
        unit_peak = _peak(lambda: leaf_cross_delta(pts, metric, eps, ids1, ids2, 0))
        assert window_peak < 1.5 * unit_peak, (eps, window_peak, unit_peak)


def test_leaf_cross_never_holds_the_difference_tensor():
    """A fanout-64 d = 2 leaf pair folds coordinate columns.

    The fold holds two (64, 64) arrays, the bytes of the old (64, 64, 2)
    difference tensor, while the tensor form holds the tensor and its
    squares at once.  NumPy stages broadcast operands of either form in
    buffers of up to ``np.getbufsize()`` elements, so the bound is set
    against the tensor form measured beside it: at least half a tensor
    less, which a return to the tensor form cannot meet.
    """
    pts = np.random.default_rng(5).random((128, 2))
    ids1, ids2 = np.arange(64), np.arange(64, 128)
    metric = get_metric("euclidean")
    tensor_bytes = 64 * 64 * 2 * 8

    def tensor_form():
        diffs = pts[ids1][:, None, :] - pts[ids2][None, :, :]
        return np.nonzero(np.sqrt(np.sum(diffs * diffs, axis=-1)) < 0.05)

    fold_peak = _peak(lambda: leaf_cross_delta(pts, metric, 0.05, ids1, ids2, 0))
    assert fold_peak + tensor_bytes // 2 < _peak(tensor_form)


def test_leaf_windows_stay_within_the_padded_limit():
    """Windows over ragged insertion-built leaves: bounded, maximal, in order."""
    rng = np.random.default_rng(4)
    tree = build_index(rng.random((900, 2)), "rstar", max_entries=12)
    packed = pack_index(tree)
    sizes = (packed.entry_end - packed.entry_beg).tolist()
    units = list(traverse(packed, 0.08, True))
    batches = list(leaf_windows(iter(units), packed))
    assert [unit for batch in batches for unit in batch] == units

    def width(unit):
        return max(sizes[unit[1]], sizes[unit[-1]])

    def is_leaf_batch(batch):
        return batch[0][0] in ("self", "cross")

    assert len(set(sizes[nid] for nid in np.flatnonzero(packed.leaf))) > 1
    assert any(len(batch) > 1 for batch in batches)
    for batch, following in zip(batches, batches[1:] + [None]):
        if not is_leaf_batch(batch):
            assert len(batch) == 1
            continue
        assert all(unit[0] in ("self", "cross") for unit in batch)
        m = max(width(unit) for unit in batch)
        if len(batch) > 1:
            assert len(batch) * m * m <= LEAF_WINDOW
        if following is not None and is_leaf_batch(following):
            # Closed only because the next unit would not fit.
            grown = max(m, width(following[0]))
            assert (len(batch) + 1) * grown * grown > LEAF_WINDOW


def test_mbr_stack_and_of_mbrs():
    boxes = [
        MBR(np.array([0.0, 1.0]), np.array([2.0, 3.0])),
        MBR(np.array([-1.0, 2.0]), np.array([0.5, 2.5])),
        MBR(np.array([0.2, 0.2]), np.array([0.2, 0.2])),
    ]
    los, his = MBR.stack(boxes)
    assert los.shape == his.shape == (3, 2)
    assert np.array_equal(los[1], [-1.0, 2.0])
    union = MBR.of_mbrs(boxes)
    assert np.array_equal(union.lo, [-1.0, 0.2])
    assert np.array_equal(union.hi, [2.0, 3.0])
    with pytest.raises(ValueError):
        MBR.stack([])
    with pytest.raises(ValueError):
        MBR.of_mbrs([])


@pytest.fixture
def pts():
    return np.random.default_rng(11).random((220, 2))


class TestPackMemoization:
    def test_pack_cached_until_structure_changes(self, pts):
        from repro.api import build_index
        from repro.index.packed import pack_index

        tree = build_index(pts, "rstar", bulk="str")
        p1 = pack_index(tree)
        assert p1 is not None
        assert pack_index(tree) is p1  # memoized
        pid = tree.add_point(np.array([0.5, 0.5]))
        p2 = pack_index(tree)
        assert p2 is not p1  # add_point invalidated the cache
        assert pack_index(tree) is p2
        tree.delete(pid)
        p3 = pack_index(tree)
        assert p3 is not p2  # delete invalidated it again
        assert pack_index(tree) is p3
