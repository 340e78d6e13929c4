"""The typed exception hierarchy and API-boundary input validation."""

import numpy as np
import pytest

import repro.api
from repro.api import build_index, similarity_join, spatial_join_datasets
from repro.core.csj import csj
from repro.core.dual import compact_spatial_join, spatial_join
from repro.core.metricspace import ObjectMetric, build_metric_index
from repro.core.partitioned import spatial_hash_join
from repro.core.ssj import ssj
from repro.errors import (
    BudgetExceededError,
    CheckpointCorruptError,
    InvalidInputError,
    ReproError,
    SinkIOError,
    validate_eps,
    validate_points,
)
from repro.index.bulk import bulk_load
from repro.parallel import parallel_join
from repro.resilience.checkpoint import CheckpointedJoin


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for cls in (
            InvalidInputError,
            BudgetExceededError,
            SinkIOError,
            CheckpointCorruptError,
        ):
            assert issubclass(cls, ReproError)

    def test_builtin_compatibility(self):
        # Callers that historically caught the builtin types keep working.
        assert issubclass(InvalidInputError, ValueError)
        assert issubclass(BudgetExceededError, RuntimeError)
        assert issubclass(SinkIOError, OSError)

    def test_exit_codes_distinct(self):
        codes = [
            ReproError.exit_code,
            InvalidInputError.exit_code,
            BudgetExceededError.exit_code,
            SinkIOError.exit_code,
            CheckpointCorruptError.exit_code,
        ]
        assert codes == [1, 2, 3, 4, 5]

    def test_budget_error_carries_breach_details(self):
        exc = BudgetExceededError("deadline", 1.5, 2.25)
        assert exc.kind == "deadline"
        assert exc.limit == 1.5
        assert exc.actual == 2.25
        assert exc.partial is None
        assert "deadline" in str(exc)

    def test_checkpoint_error_names_path(self):
        exc = CheckpointCorruptError("/tmp/x.journal", "bad header")
        assert exc.path == "/tmp/x.journal"
        assert "/tmp/x.journal" in str(exc)
        assert "bad header" in str(exc)


class TestValidatePoints:
    def test_passthrough(self):
        pts = np.random.default_rng(0).random((10, 3))
        out = validate_points(pts)
        assert out.shape == (10, 3)
        assert out.dtype == np.float64

    def test_list_input_normalised(self):
        out = validate_points([[0.0, 1.0], [2.0, 3.0]])
        assert out.shape == (2, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            np.empty((0, 2)),
            np.empty((5, 0)),
            np.zeros(5),
            np.zeros((2, 2, 2)),
        ],
        ids=["no-rows", "no-cols", "1d", "3d"],
    )
    def test_bad_shapes(self, bad):
        with pytest.raises(InvalidInputError):
            validate_points(bad)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, bad_value):
        pts = np.random.default_rng(0).random((20, 2))
        pts[7, 1] = bad_value
        with pytest.raises(InvalidInputError, match="first bad row: 7"):
            validate_points(pts)

    def test_non_numeric(self):
        with pytest.raises(InvalidInputError):
            validate_points([["a", "b"]])


class TestValidateEps:
    @pytest.mark.parametrize("bad", [0.0, -0.5, float("nan"), float("inf"), None])
    def test_rejects(self, bad):
        with pytest.raises(InvalidInputError):
            validate_eps(bad)

    def test_accepts_positive(self):
        assert validate_eps(0.25) == 0.25
        assert validate_eps("0.5") == 0.5


class TestApiBoundary:
    """similarity_join / build_index reject bad input before any tree code."""

    def test_join_rejects_nan_points(self):
        pts = np.random.default_rng(0).random((30, 2))
        pts[3, 0] = np.nan
        with pytest.raises(InvalidInputError):
            similarity_join(pts, 0.1)

    def test_join_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            similarity_join(np.empty((0, 2)), 0.1)

    def test_join_rejects_1d(self):
        with pytest.raises(InvalidInputError):
            similarity_join(np.zeros(8), 0.1)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("inf")])
    def test_join_rejects_bad_eps(self, eps):
        pts = np.random.default_rng(0).random((30, 2))
        with pytest.raises(InvalidInputError):
            similarity_join(pts, eps)

    def test_join_rejects_negative_g(self):
        pts = np.random.default_rng(0).random((30, 2))
        with pytest.raises(InvalidInputError):
            similarity_join(pts, 0.1, g=-1)

    def test_caught_as_value_error(self):
        # Backward compatibility: the old contract was ValueError.
        with pytest.raises(ValueError):
            similarity_join(np.empty((0, 2)), 0.1)

    def test_unknown_algorithm_stays_value_error(self):
        pts = np.random.default_rng(0).random((30, 2))
        with pytest.raises(ValueError, match="unknown algorithm"):
            similarity_join(pts, 0.1, algorithm="nope")

    def test_build_index_rejects_inf(self):
        pts = np.random.default_rng(0).random((30, 2))
        pts[0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            build_index(pts)

    def test_build_index_passthrough_skips_validation(self):
        pts = np.random.default_rng(0).random((30, 2))
        tree = build_index(pts)
        assert build_index(pts, tree) is tree


WORDS = ["ab", "ac", "bc", "bd"]

#: One bad self-join input each, as keyword overrides of a valid csj call.
BAD_INPUTS = {
    "unknown-algorithm": {"algorithm": "nope"},
    "negative-g": {"g": -1},
    "zero-eps": {"eps": 0.0},
    "empty-points-tree": {"points": np.empty((0, 2))},
    "empty-points-egrid": {"points": np.empty((0, 2)), "algorithm": "egrid"},
    "empty-points-pbsm": {"points": np.empty((0, 2)), "algorithm": "pbsm-csj"},
    "object-metric-egrid": {
        "points": np.arange(len(WORDS), dtype=float).reshape(-1, 1),
        "algorithm": "egrid",
        "metric": ObjectMetric(WORDS, lambda a, b: float(a != b)),
    },
    # The grid ignores a prebuilt index, but not the metric it was built for.
    "object-tree-egrid": {
        "points": np.arange(len(WORDS), dtype=float).reshape(-1, 1),
        "algorithm": "egrid",
        "index": build_metric_index(WORDS, lambda a, b: float(a != b)),
    },
}


class TestOneErrorEveryEntryPoint:
    """A bad input raises the same typed error from every self-join entry
    point, before any index, file or process exists."""

    @pytest.mark.parametrize("bad", list(BAD_INPUTS))
    def test_rejected_everywhere(self, bad, tmp_path):
        kwargs = {"points": np.random.default_rng(0).random((30, 2)), "eps": 0.05}
        kwargs.update(BAD_INPUTS[bad])
        with pytest.raises(InvalidInputError):
            similarity_join(**kwargs)
        with pytest.raises(InvalidInputError):
            parallel_join(**kwargs)
        with pytest.raises(InvalidInputError):
            CheckpointedJoin(output_path=str(tmp_path / "out.txt"), **kwargs)
        assert list(tmp_path.iterdir()) == []


def _nan_points():
    pts = np.random.default_rng(1).random((30, 2))
    pts[4, 1] = np.nan
    return pts


#: One bad two-dataset input each, as overrides of a valid compact call
#: (``metric_b`` is the second tree's metric; the array entry points take
#: one metric for both sides).
BAD_PAIRS = {
    "zero-eps": {"eps": 0.0},
    "negative-eps": {"eps": -0.1},
    "nan-eps": {"eps": float("nan")},
    "inf-eps": {"eps": float("inf")},
    "negative-g": {"g": -1},
    "nan-coordinate": {"a": _nan_points()},
    "2d-against-3d": {"b": np.random.default_rng(2).random((40, 3))},
    # A side with no rows joins nothing, but it still has a dimension.
    "2d-against-empty-3d": {"b": np.empty((0, 3))},
    "metric-mismatch": {"metric_b": "l1"},
}


class TestOneErrorEveryTwoDatasetEntryPoint:
    """A bad input raises InvalidInputError from every two-dataset entry
    point and from the direct tree-join calls, before any index exists."""

    @pytest.mark.parametrize("bad", list(BAD_PAIRS))
    def test_rejected_everywhere(self, bad, monkeypatch):
        case = {
            "a": np.random.default_rng(0).random((30, 2)),
            "b": np.random.default_rng(3).random((40, 2)),
            "eps": 0.05, "g": 10, "metric_b": None,
        }
        case.update(BAD_PAIRS[bad])
        a, b, eps, g = case["a"], case["b"], case["eps"], case["g"]
        tree_a = bulk_load(a, max_entries=8)
        tree_b = bulk_load(b, max_entries=8, metric=case["metric_b"])
        if bad != "negative-g":  # the plain join has no window
            with pytest.raises(InvalidInputError):
                spatial_join(tree_a, tree_b, eps)
        with pytest.raises(InvalidInputError):
            compact_spatial_join(tree_a, tree_b, eps, g=g)
        if case["metric_b"] is None:
            builds = []
            monkeypatch.setattr(
                repro.api, "bulk_load", lambda *args, **kw: builds.append(kw)
            )
            with pytest.raises(InvalidInputError):
                spatial_join_datasets(a, b, eps, g=g)
            assert builds == []
            with pytest.raises(InvalidInputError):
                spatial_hash_join(a, b, eps, compact=True, g=g)
        if bad.endswith("-eps") or bad == "negative-g":
            with pytest.raises(InvalidInputError):
                csj(tree_a, eps, g=g)
        if bad.endswith("-eps"):
            with pytest.raises(InvalidInputError):
                ssj(tree_a, eps)


class TestExitCodeRegistry:
    """`repro.errors.EXIT_CODES` is the single source of truth.

    The CLI docstring, `scripts/chaos_demo.py` and the DESIGN.md failure
    table all cite exit codes; these tests keep every citation in
    agreement with the registry, so a new code cannot be added in one
    place only.
    """

    def _registry(self):
        from repro.errors import EXIT_CODES

        return EXIT_CODES

    def test_registry_complete_and_self_consistent(self):
        from repro.errors import EXIT_CODES, ReproError, exit_code_registry

        assert exit_code_registry() == EXIT_CODES
        assert sorted(EXIT_CODES) == list(range(1, 11))
        for code, cls in EXIT_CODES.items():
            assert cls.exit_code == code
            assert issubclass(cls, ReproError)
        # Codes are distinct per class (the registry is a bijection).
        assert len({cls for cls in EXIT_CODES.values()}) == len(EXIT_CODES)

    def test_new_serving_codes(self):
        from repro.errors import AdmissionRejectedError, CircuitOpenError

        shed = AdmissionRejectedError(4, retry_after=1.5)
        assert shed.exit_code == 9
        assert shed.queue_depth == 4
        assert shed.retry_after == 1.5
        assert "retry" in str(shed).lower()
        open_ = CircuitOpenError("worker-pool", retry_after=0.25)
        assert open_.exit_code == 10
        assert open_.component == "worker-pool"
        assert "worker-pool" in str(open_)

    def test_cli_docstring_agrees(self):
        import re

        from repro import cli

        doc = cli.main.__doc__
        cited = {int(m) for m in re.findall(r"\b(\d+)\b", doc)}
        assert cited == set(self._registry())

    def test_design_table_agrees(self):
        import re
        from pathlib import Path

        text = (Path(__file__).resolve().parent.parent / "DESIGN.md").read_text()
        rows = re.findall(
            r"^\|[^|]+\|\s*`(\w+)`(?:\s*\(`\w+`\))?\s*\|\s*(\d+)\s*\|",
            text,
            flags=re.MULTILINE,
        )
        table = {int(code): name for name, code in rows}
        registry = self._registry()
        # Every documented row names the registered class for its code...
        for code, name in table.items():
            assert registry[code].__name__ == name, (code, name)
        # ...and every nonzero failure code except the catch-all base
        # class (exit 1, undocumented by design) has a row.
        assert set(table) == set(registry) - {1}

    def test_chaos_demo_agrees(self):
        import re
        from pathlib import Path

        src = (
            Path(__file__).resolve().parent.parent / "scripts" / "chaos_demo.py"
        ).read_text()
        cited = {
            int(m) for m in re.findall(r"exit(?:\s+code)?\s+(\d+)", src)
        }
        assert cited  # the demo does cite codes
        assert cited <= set(self._registry())
