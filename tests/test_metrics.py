"""Unit tests for repro.geometry.metrics."""

import numpy as np
import pytest

from repro.geometry.mbr import MBR
from repro.geometry.metrics import (
    FOLD_MAX_DIM,
    Chebyshev,
    Euclidean,
    Manhattan,
    Metric,
    Minkowski,
    get_metric,
    triu_pair_indices,
)


class TestGetMetric:
    def test_default_is_euclidean(self):
        assert get_metric(None).name == "euclidean"

    @pytest.mark.parametrize(
        "spec,name",
        [
            ("euclidean", "euclidean"),
            ("l2", "euclidean"),
            ("L1", "manhattan"),
            ("cityblock", "manhattan"),
            ("linf", "chebyshev"),
            ("Chebyshev", "chebyshev"),
            (1, "manhattan"),
            (2, "euclidean"),
            (3, "minkowski-3"),
            (2.5, "minkowski-2.5"),
            (float("inf"), "chebyshev"),
        ],
    )
    def test_specs(self, spec, name):
        assert get_metric(spec).name == name

    def test_passthrough(self):
        m = Euclidean()
        assert get_metric(m) is m

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("hamming")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            get_metric(object())

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Minkowski(0.5)

    def test_infinite_order_rejected(self):
        with pytest.raises(ValueError, match="Chebyshev"):
            Minkowski(float("inf"))


class TestDistances:
    def test_euclidean_345(self):
        assert get_metric("euclidean").distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan(self):
        assert get_metric("l1").distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev(self):
        assert get_metric("linf").distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_minkowski_three(self):
        expected = (3**3 + 4**3) ** (1 / 3)
        assert get_metric(3).distance([0, 0], [3, 4]) == pytest.approx(expected)

    def test_identity(self, metric):
        p = np.array([0.3, 0.7])
        assert metric.distance(p, p) == 0.0

    def test_symmetry(self, metric, rng):
        a, b = rng.random(3), rng.random(3)
        assert metric.distance(a, b) == pytest.approx(metric.distance(b, a))

    def test_triangle_inequality(self, metric, rng):
        for _ in range(20):
            a, b, c = rng.random(4), rng.random(4), rng.random(4)
            assert metric.distance(a, c) <= (
                metric.distance(a, b) + metric.distance(b, c) + 1e-12
            )


class TestVectorised:
    def test_pairwise_shape(self, metric, rng):
        a, b = rng.random((7, 2)), rng.random((5, 2))
        assert metric.pairwise(a, b).shape == (7, 5)

    def test_pairwise_matches_scalar(self, metric, rng):
        a, b = rng.random((4, 3)), rng.random((6, 3))
        mat = metric.pairwise(a, b)
        for i in range(4):
            for j in range(6):
                assert mat[i, j] == pytest.approx(metric.distance(a[i], b[j]))

    def test_self_pairwise_symmetric_zero_diag(self, metric, rng):
        pts = rng.random((10, 2))
        mat = metric.self_pairwise(pts)
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 0.0)

    def test_point_to_points(self, metric, rng):
        p = rng.random(2)
        pts = rng.random((8, 2))
        dists = metric.point_to_points(p, pts)
        for j in range(8):
            assert dists[j] == pytest.approx(metric.distance(p, pts[j]))

    def test_norm_seq_matches_norm(self, metric, rng):
        v = rng.random(3) - 0.5
        assert metric.norm_seq(v.tolist()) == pytest.approx(metric.norm(v))


class TestEquality:
    def test_same_name_equal(self):
        assert Euclidean() == Minkowski(2) or Euclidean().name != Minkowski(2).name
        assert Euclidean() == Euclidean()
        assert hash(Manhattan()) == hash(Manhattan())

    def test_different_metrics_unequal(self):
        assert Euclidean() != Manhattan()
        assert Chebyshev() != Minkowski(3)

    def test_base_metric_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Metric().norm_rows(np.zeros(2))


# The column fold (``FOLD_MAX_DIM``) must give NumPy's own reduction, bit
# for bit.  These are the literal expressions every kernel computed before
# the fold, not Metric methods: a NumPy that sums a short axis in another
# order fails here instead of silently moving output bytes.
FOLD_CASES = [
    (Euclidean(), lambda x: np.sqrt(np.sum(x * x, axis=-1))),
    (Manhattan(), lambda x: np.sum(np.abs(x), axis=-1)),
    (Chebyshev(), lambda x: np.max(np.abs(x), axis=-1)),
    (Minkowski(3), lambda x: np.sum(np.abs(x) ** 3.0, axis=-1) ** (1.0 / 3.0)),
]
# One and two past the fold too, where the tensor branch must hold.
FOLD_DIMS = range(1, FOLD_MAX_DIM + 3)
each_fold_case = pytest.mark.parametrize(
    "metric,literal", FOLD_CASES, ids=[metric.name for metric, _ in FOLD_CASES]
)


def _draws(shape, seed):
    """Random reals, a quarter lattice full of exact ties and zeros, and
    integers, which the kernels take as they are."""
    rng = np.random.default_rng(seed)
    yield rng.standard_normal(shape) * np.exp(rng.uniform(-6, 6, shape))
    yield rng.integers(-8, 9, shape) / 4.0
    yield rng.integers(-8, 9, shape)


def _same(new, old):
    """Bit-identical values of the same kind: a 1-D row's norm is a scalar."""
    assert np.ndim(new) == np.ndim(old)
    assert isinstance(new, np.ndarray) == isinstance(old, np.ndarray)
    assert np.array_equal(new, old)


@each_fold_case
@pytest.mark.parametrize("d", FOLD_DIMS)
class TestFoldOrder:
    def test_norm_rows(self, metric, literal, d):
        for lead in ((), (50,), (6, 7)):
            for x in _draws(lead + (d,), d):
                _same(metric.norm_rows(x), literal(x))

    def test_pair_kernels(self, metric, literal, d):
        for a, b in zip(_draws((23, d), d), _draws((17, d), d + 100)):
            _same(metric.pairwise(a, b), literal(a[:, None, :] - b[None, :, :]))
            rows, cols = triu_pair_indices(len(a))
            _same(metric.condensed_self(a)[2], literal(a[rows] - a[cols]))
            _same(metric.paired(a[:17], b), literal(a[:17] - b))
            _same(metric.point_to_points(a[0], b), literal(b - a[0]))
        for a, b in zip(_draws((5, 8, d), d), _draws((5, 6, d), d + 200)):
            # The batched (K, M, d) form leaf windows use.
            _same(metric.pairwise(a, b), literal(a[:, :, None, :] - b[:, None, :, :]))

    def test_single_vectors(self, metric, literal, d):
        """``distance``, ``norm`` and the MBR bounds reduce one 1-D row."""
        for x, y in zip(_draws((4, d), d), _draws((4, d), d + 300)):
            assert metric.distance(x[0], y[0]) == float(literal(x[0] - y[0]))
            assert metric.norm(x[1]) == float(literal(x[1]))
            box1 = MBR(np.minimum(x[0], x[1]), np.maximum(x[0], x[1]))
            box2 = MBR(np.minimum(y[2], y[3]), np.maximum(y[2], y[3]))
            gaps = np.maximum(0.0, np.maximum(box1.lo - box2.hi, box2.lo - box1.hi))
            spans = np.maximum(np.abs(box1.hi - box2.lo), np.abs(box2.hi - box1.lo))
            union = np.maximum(box1.hi, box2.hi) - np.minimum(box1.lo, box2.lo)
            assert box1.diagonal(metric) == float(literal(box1.hi - box1.lo))
            assert box1.min_dist(box2, metric) == float(literal(gaps))
            assert box1.max_dist(box2, metric) == float(literal(spans))
            assert box1.union_diagonal(box2, metric) == float(literal(union))
