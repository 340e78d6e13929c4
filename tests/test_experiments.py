"""Unit tests for the experiment harness (repro.experiments).

These run the real drivers at tiny sizes — smoke coverage plus checks of
the qualitative invariants each figure is supposed to show.
"""

import math

import pytest

from repro.api import build_index
from repro.experiments import (
    DEFAULT_QUERY_RANGES,
    ExperimentConfig,
    format_table,
    run_algorithm,
    run_suite,
)
from repro.experiments import ablations, estimate, exp4, fig5, fig6, fig7, fig8
from repro.experiments.runner import scaled
from repro.experiments.tables import format_rows


@pytest.fixture
def tiny_config():
    return ExperimentConfig(iterations=1, ssj_byte_budget=5_000_000)


class TestQueryRanges:
    def test_paper_grid(self):
        assert len(DEFAULT_QUERY_RANGES) == 9
        assert DEFAULT_QUERY_RANGES[0] == pytest.approx(2.0**-9)
        assert DEFAULT_QUERY_RANGES[-1] == pytest.approx(0.5)
        # Equally spaced on a log scale.
        ratios = [
            DEFAULT_QUERY_RANGES[i + 1] / DEFAULT_QUERY_RANGES[i] for i in range(8)
        ]
        assert all(r == pytest.approx(2.0) for r in ratios)


class TestScaled:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scaled(100) == 100

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert scaled(100) == 50

    def test_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        assert scaled(100) == 4


class TestEstimate:
    def test_output_bytes_exact(self, rng):
        pts = rng.random((300, 2))
        from repro.core.bruteforce import count_links
        from repro.io.writer import line_bytes

        est = estimate.estimate_ssj(pts, 0.1, id_width=3)
        assert est.links == count_links(pts, 0.1)
        assert est.output_bytes == est.links * line_bytes(2, 3)
        assert math.isnan(est.total_time)  # no calibration given

    def test_calibrated_runtime(self, rng):
        pts = rng.random((200, 2))
        cal = estimate.RuntimeCalibration.from_run(links=1000, total_seconds=2.0)
        est = estimate.estimate_ssj(pts, 0.1, id_width=3, calibration=cal)
        assert est.total_time > 0

    def test_calibration_zero_links(self):
        cal = estimate.RuntimeCalibration.from_run(links=0, total_seconds=1.0)
        assert cal.seconds_per_link == 0.0
        assert cal.baseline_seconds == 1.0


class TestRunAlgorithm:
    def test_rows_have_required_keys(self, clustered_2d, tiny_config):
        tree = tiny_config.build_tree(clustered_2d)
        row = run_algorithm("csj", tree, 0.05, g=10, config=tiny_config)
        for key in ("algorithm", "eps", "links", "groups", "output_bytes",
                    "total_time", "estimated"):
            assert key in row
        assert row["estimated"] is False

    def test_ssj_estimated_over_budget(self, clustered_2d):
        config = ExperimentConfig(iterations=1, ssj_byte_budget=10)
        tree = config.build_tree(clustered_2d)
        row = run_algorithm("ssj", tree, 0.1, config=config)
        assert row["estimated"] is True
        assert row["output_bytes"] > 10

    def test_unknown_algorithm(self, clustered_2d, tiny_config):
        tree = tiny_config.build_tree(clustered_2d)
        with pytest.raises(ValueError):
            run_algorithm("hash", tree, 0.1, config=tiny_config)

    @pytest.mark.parametrize("algorithm", ["ssj", "ncsj", "csj"])
    def test_pool_run_joins_the_given_tree(self, clustered_2d, algorithm):
        # The tree's recipe (Manhattan, fanout 8) is not the config's, so
        # only a pool run over this very tree matches the serial row.
        tree = build_index(clustered_2d, "rstar", metric="manhattan",
                           max_entries=8, bulk="str")
        keys = ("algorithm", "g", "index", "links", "groups", "output_bytes",
                "distance_computations", "early_stops")
        serial, pooled = (
            run_algorithm(algorithm, tree, 0.05, g=10,
                          config=ExperimentConfig(iterations=1, workers=workers))
            for workers in (None, 2)
        )
        assert {k: pooled[k] for k in keys} == {k: serial[k] for k in keys}


class TestRunSuite:
    def test_sweep_shape(self, clustered_2d, tiny_config):
        rows = run_suite(
            clustered_2d, (0.02, 0.05), config=tiny_config, dataset_name="test"
        )
        assert len(rows) == 2 * 3  # two ranges x three algorithms
        assert {row["dataset"] for row in rows} == {"test"}

    def test_compactness_invariants(self, clustered_2d, tiny_config):
        """CSJ(10) <= N-CSJ <= SSJ in output bytes at every range."""
        rows = run_suite(clustered_2d, (0.02, 0.05, 0.1), config=tiny_config)
        by_eps = {}
        for row in rows:
            by_eps.setdefault(row["eps"], {})[row["algorithm"]] = row
        for eps, algs in by_eps.items():
            assert algs["csj(10)"]["output_bytes"] <= algs["ncsj"]["output_bytes"]
            assert algs["ncsj"]["output_bytes"] <= algs["ssj"]["output_bytes"]


class TestFigureDrivers:
    def test_fig5_one_dataset(self, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        rows = fig5.run_dataset(
            "mg_county", query_ranges=(0.05, 0.2), config=tiny_config
        )
        assert len(rows) == 6
        assert all(row["dataset"] == "mg_county" for row in rows)

    def test_fig5_pacific_caps_ranges(self, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        rows = fig5.run_dataset("pacific_nw", config=tiny_config)
        assert max(row["eps"] for row in rows) <= 2.0**-4

    def test_fig6_sweep(self, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        rows = fig6.run(g_values=(1, 10), config=tiny_config)
        assert [row["g"] for row in rows] == [1, 10]
        # More merge window -> no larger output.
        assert rows[1]["output_bytes"] <= rows[0]["output_bytes"]

    def test_fig7_scalability(self, tiny_config, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        rows = fig7.run(sizes=(200, 400), config=tiny_config)
        assert len(rows) == 6
        ssj_rows = [row for row in rows if row["algorithm"] == "ssj"]
        assert ssj_rows[1]["output_bytes"] >= ssj_rows[0]["output_bytes"]

    def test_fig8_time_split(self, tiny_config, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        rows = fig8.run(config=tiny_config, output_dir=str(tmp_path))
        assert [row["algorithm"] for row in rows] == [
            "ssj", "ncsj", "csj(1)", "csj(10)", "csj(100)",
        ]
        for row in rows:
            assert row["write_time"] >= 0
            assert row["file_bytes"] == row["output_bytes"]
            assert row["page_reads"] + row["cache_hits"] > 0

    def test_fig8_page_accesses_similar(self, tiny_config, monkeypatch):
        """Experiment 3's claim: page accesses do not differ much."""
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        rows = fig8.run(config=tiny_config)
        accesses = [row["page_reads"] + row["cache_hits"] for row in rows]
        assert max(accesses) <= min(accesses) * 1.5

    def test_exp4_tree_structures(self, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        rows = exp4.run(query_ranges=(0.05,), config=tiny_config)
        indexes = {row["index"] for row in rows}
        assert indexes == {"rstar", "rtree", "mtree"}
        # check_agreement inside exp4.run would have raised on divergence.

    def test_ablation_bulk(self, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        rows = ablations.run_bulk(
            methods=("str", "dynamic"), config=tiny_config
        )
        assert {row["bulk"] for row in rows} == {"str", "dynamic"}

    def test_ablation_capacity(self, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        rows = ablations.run_capacity(capacities=(8, 32), config=tiny_config)
        assert {row["capacity"] for row in rows} == {8, 32}

    def test_ablation_fractal(self, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.3")
        rows = ablations.run_fractal(config=tiny_config)
        by_name = {row["dataset"]: row for row in rows}
        assert by_name["line"]["d2"] < by_name["uniform"]["d2"]
        assert by_name["line"]["pairs"] > by_name["uniform"]["pairs"]

    def test_ablation_egrid(self, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        rows = ablations.run_egrid(query_ranges=(0.05,), config=tiny_config)
        labels = {row["algorithm"] for row in rows}
        assert labels == {"egrid", "egrid-csj(10)", "tree-csj(10)"}


class TestTables:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": float("nan")}]
        text = format_table(rows, title="T")
        assert "T" in text and "a" in text and "nan" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_rows_standard_columns(self):
        rows = [{"dataset": "d", "algorithm": "ssj", "eps": 0.1, "links": 5}]
        text = format_rows(rows)
        assert "dataset" in text and "ssj" in text

    def test_large_and_small_floats(self):
        text = format_table([{"x": 1e9, "y": 1e-9, "z": True, "w": None}])
        assert "e+09" in text and "e-09" in text and "yes" in text and "-" in text
