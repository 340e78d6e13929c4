"""Unit tests for the command-line interface (repro.cli)."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_join_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "--eps", "0.1"])

    def test_join_args(self):
        args = build_parser().parse_args(
            ["join", "--dataset", "uniform", "--eps", "0.1", "-g", "5"]
        )
        assert args.dataset == "uniform"
        assert args.eps == 0.1
        assert args.g == 5

    def test_experiment_names_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "8 links" in out
        assert "50%" in out
        assert "True" in out  # lossless check


class TestJoinCommand:
    def test_generated_dataset(self, capsys):
        code = main(
            ["join", "--dataset", "uniform", "-n", "300", "--eps", "0.05",
             "--algorithm", "csj", "--verify"]
        )
        assert code == 0
        captured = capsys.readouterr()
        # Diagnostics go to stderr so stdout stays clean for pipelines.
        assert captured.out == ""
        assert "groups emitted" in captured.err
        assert "OK" in captured.err

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "pts.txt"
        rng = np.random.default_rng(0)
        np.savetxt(path, rng.random((100, 2)))
        code = main(["join", "--input", str(path), "--eps", "0.1"])
        assert code == 0

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "result.txt"
        code = main(
            ["join", "--dataset", "uniform", "-n", "200", "--eps", "0.1",
             "--algorithm", "ncsj", "--output", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        from repro.io.writer import read_output

        links, groups, _ = read_output(str(out_path))
        assert links or groups

    def test_ssj_algorithm(self, capsys):
        assert main(
            ["join", "--dataset", "uniform", "-n", "200", "--eps", "0.05",
             "--algorithm", "ssj"]
        ) == 0

    def test_egrid_algorithm(self, capsys):
        assert main(
            ["join", "--dataset", "uniform", "-n", "200", "--eps", "0.05",
             "--algorithm", "egrid-csj", "--verify"]
        ) == 0


class TestObservabilityFlags:
    def _run(self, tmp_path, *extra):
        pts = tmp_path / "pts.txt"
        np.savetxt(pts, np.random.default_rng(0).random((200, 2)))
        return main(["join", "--input", str(pts), "--eps", "0.1", *extra])

    def test_log_json_stderr_is_parseable(self, tmp_path, capsys):
        import json

        assert self._run(tmp_path, "--log-json") == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert lines
        records = [json.loads(ln) for ln in lines]
        summary = [r for r in records if r.get("event") == "run summary"]
        assert len(summary) == 1
        assert summary[0]["algorithm"].startswith("csj")
        assert all("run" in r and "eps" in r for r in records)

    def test_plain_log_level(self, tmp_path, capsys):
        assert self._run(tmp_path, "--log-level", "debug") == 0
        err = capsys.readouterr().err
        assert "join starting" in err
        assert "links emitted" in err  # human summary still present

    def test_trace_writes_spans(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.trace.jsonl"
        assert self._run(tmp_path, "--trace", str(trace)) == 0
        lines = trace.read_text().splitlines()
        assert lines
        records = [json.loads(ln) for ln in lines]
        assert any(r["name"] == "descend" for r in records)
        assert all({"name", "path", "ts", "dur", "depth"} <= r.keys()
                   for r in records)

    def test_trace_default_path_next_to_output(self, tmp_path, capsys):
        out = tmp_path / "result.txt"
        assert self._run(tmp_path, "--output", str(out), "--trace") == 0
        assert (tmp_path / "result.txt.trace.jsonl").exists()

    def test_metrics_out_json(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "m.json"
        assert self._run(tmp_path, "--metrics-out", str(metrics)) == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["repro_join_links_emitted_total"] >= 0
        assert "repro_join_total_time_seconds_total" in snapshot

    def test_metrics_out_prometheus(self, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        assert self._run(tmp_path, "--metrics-out", str(metrics)) == 0
        text = metrics.read_text()
        assert "# TYPE repro_join_links_emitted_total counter" in text

    def test_metrics_match_joinstats(self, tmp_path, capsys):
        import json

        pts = tmp_path / "pts.txt"
        np.savetxt(pts, np.random.default_rng(1).random((300, 2)))
        metrics = tmp_path / "m.json"
        assert main(["join", "--input", str(pts), "--eps", "0.08",
                     "--metrics-out", str(metrics)]) == 0

        from repro.api import similarity_join

        expected = similarity_join(
            np.loadtxt(pts, ndmin=2), 0.08, algorithm="csj", g=10
        ).stats
        snapshot = json.loads(metrics.read_text())
        assert snapshot["repro_join_links_emitted_total"] == expected.links_emitted
        assert snapshot["repro_join_groups_emitted_total"] == expected.groups_emitted
        assert snapshot["repro_join_bytes_written_total"] == expected.bytes_written
        assert (
            snapshot["repro_join_distance_computations_total"]
            == expected.distance_computations
        )

    def test_log_json_error_path_stays_parseable(self, tmp_path, capsys):
        import json

        assert self._run(tmp_path, "--log-json", "--deadline", "0") == 3
        err = capsys.readouterr().err
        records = [json.loads(ln) for ln in err.splitlines() if ln.strip()]
        errors = [r for r in records if r["level"] == "error"]
        assert len(errors) == 1
        assert "budget exceeded" in errors[0]["event"]
        assert errors[0]["exit_code"] == 3

    def test_progress_heartbeat_logs(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        np.savetxt(pts, np.random.default_rng(2).random((3000, 2)))
        # A millisecond interval guarantees beats during this join; the
        # --progress flag alone must make the heartbeat logger visible.
        assert main(["join", "--input", str(pts), "--eps", "0.05",
                     "--progress", "0.001"]) == 0
        assert "progress" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_output(self, capsys):
        code = main(
            ["cluster", "--dataset", "uniform", "-n", "400", "--eps", "0.08"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clusters" in out
        assert "largest clusters" in out

    def test_requires_dataset(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--eps", "0.1"])


class TestResilienceFlags:
    def _pts_file(self, tmp_path, n=200, seed=0):
        path = tmp_path / "pts.txt"
        np.savetxt(path, np.random.default_rng(seed).random((n, 2)))
        return str(path)

    def test_checkpoint_flag_writes_journal(self, tmp_path, capsys):
        pts = self._pts_file(tmp_path)
        out = tmp_path / "out.txt"
        journal = tmp_path / "progress.journal"
        code = main(
            ["join", "--input", pts, "--eps", "0.1", "--output", str(out),
             "--checkpoint", str(journal)]
        )
        assert code == 0
        assert out.exists() and journal.exists()
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_requires_output(self, tmp_path):
        pts = self._pts_file(tmp_path)
        with pytest.raises(SystemExit):
            main(["join", "--input", pts, "--eps", "0.1",
                  "--checkpoint", str(tmp_path / "j")])

    @pytest.mark.parametrize(
        "flags", [["--workers", "2"], ["--task-timeout", "5"]]
    )
    def test_checkpoint_rejects_pool_flags_before_any_file(
        self, tmp_path, capsys, flags
    ):
        # csj join has no pool: the flags are usage errors.
        pts = self._pts_file(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(
                ["join", "--input", pts, "--eps", "0.1",
                 "--output", str(tmp_path / "out.txt"),
                 "--checkpoint", str(tmp_path / "j.journal"), *flags]
            )
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["pts.txt"]

    def test_resume_requires_checkpoint(self, tmp_path):
        pts = self._pts_file(tmp_path)
        with pytest.raises(SystemExit):
            main(["join", "--input", pts, "--eps", "0.1", "--resume"])

    def test_resume_completes_interrupted_run(self, tmp_path, capsys):
        import filecmp

        pts = self._pts_file(tmp_path, n=300)
        direct = tmp_path / "direct.txt"
        assert main(["join", "--input", pts, "--eps", "0.08",
                     "--output", str(direct)]) == 0

        out = tmp_path / "out.txt"
        journal = tmp_path / "j.journal"
        # A zero deadline interrupts immediately -> exit code 3 ...
        code = main(
            ["join", "--input", pts, "--eps", "0.08", "--output", str(out),
             "--checkpoint", str(journal), "--deadline", "0"]
        )
        assert code == 3
        assert "csj: error:" in capsys.readouterr().err
        # ... and --resume finishes the run byte-identically.
        code = main(
            ["join", "--input", pts, "--eps", "0.08", "--output", str(out),
             "--checkpoint", str(journal), "--resume"]
        )
        assert code == 0
        assert filecmp.cmp(str(direct), str(out), shallow=False)

    def test_deadline_breach_exit_code(self, tmp_path, capsys):
        pts = self._pts_file(tmp_path)
        code = main(["join", "--input", pts, "--eps", "0.1",
                     "--deadline", "0"])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_max_bytes_ssj_degrades_to_estimate(self, tmp_path, capsys):
        pts = self._pts_file(tmp_path, n=400)
        code = main(["join", "--input", pts, "--eps", "0.2",
                     "--algorithm", "ssj", "--max-bytes", "100"])
        assert code == 0  # graceful: the estimator answered
        assert "analytic estimate" in capsys.readouterr().err

    def test_max_bytes_csj_exit_code(self, tmp_path, capsys):
        pts = self._pts_file(tmp_path, n=400)
        code = main(["join", "--input", pts, "--eps", "0.2",
                     "--algorithm", "csj", "--max-bytes", "100"])
        assert code == 3


class TestExitCodes:
    def test_invalid_input_exit_code(self, tmp_path, capsys):
        path = tmp_path / "pts.txt"
        path.write_text("0.1 nan\n0.2 0.3\n")
        code = main(["join", "--input", str(path), "--eps", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("csj: error:")
        assert "NaN" in err

    def test_missing_input_file_exit_code(self, capsys):
        code = main(["join", "--input", "/nonexistent/pts.txt", "--eps", "0.1"])
        assert code == 1
        assert "csj: error:" in capsys.readouterr().err

    def test_corrupt_journal_exit_code(self, tmp_path, capsys):
        path = tmp_path / "pts.txt"
        np.savetxt(path, np.random.default_rng(0).random((50, 2)))
        journal = tmp_path / "j.journal"
        journal.write_text("garbage, not a journal\n")
        code = main(
            ["join", "--input", str(path), "--eps", "0.1",
             "--output", str(tmp_path / "out.txt"),
             "--checkpoint", str(journal), "--resume"]
        )
        assert code == 5
        assert str(journal) in capsys.readouterr().err


class TestExperimentCommand:
    def test_fig6_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        assert main(["experiment", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out
        assert "csj" in out

    def test_exp4_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        assert main(["experiment", "exp4"]) == 0
        out = capsys.readouterr().out
        assert "mtree" in out


class TestUpdateCommand:
    def test_update_with_verify(self, capsys):
        code = main(
            ["update", "--dataset", "uniform", "-n", "300", "--eps", "0.08",
             "--updates", "60", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "maintained join" in out
        assert "expansion-equivalence vs brute force: OK" in out

    def test_update_json(self, capsys):
        import json

        code = main(
            ["update", "--dataset", "uniform", "-n", "200", "--eps", "0.1",
             "--updates", "30", "--verify", "--json"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["verified"] is True
        assert record["updates"]["inserts"] + record["updates"]["deletes"] == 30

    def test_bad_delete_fraction_exits_2(self, capsys):
        code = main(
            ["update", "--dataset", "uniform", "-n", "50", "--eps", "0.1",
             "--delete-fraction", "1.5"]
        )
        assert code == 2
        assert "delete-fraction" in capsys.readouterr().err


class TestServeCacheFlags:
    def test_repeats_hit_the_cache(self, capsys):
        import json

        code = main(
            ["serve", "--dataset", "uniform", "-n", "200", "--eps", "0.05",
             "--requests", "2", "--queue-depth", "8", "--seed", "3",
             "--cache", "--repeats", "3", "--json"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["counts"]["admitted"] == 6
        assert summary["metrics"]["repro_cache_hits_total"] == 4
        assert summary["metrics"]["repro_cache_misses_total"] == 2

    def test_without_cache_no_cache_metrics(self, capsys):
        import json

        code = main(
            ["serve", "--dataset", "uniform", "-n", "200", "--eps", "0.05",
             "--requests", "2", "--queue-depth", "8", "--seed", "3",
             "--repeats", "2", "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert not any(k.startswith("repro_cache") for k in summary["metrics"])

    def test_bad_repeats_exits_2(self, capsys):
        code = main(
            ["serve", "--dataset", "uniform", "-n", "50", "--eps", "0.1",
             "--requests", "2", "--repeats", "0"]
        )
        assert code == 2
        assert "repeats" in capsys.readouterr().err
