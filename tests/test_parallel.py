"""Supervised parallel join execution (the worker pool layer).

The load-bearing claim: the pool is an *execution* strategy, not an
algorithm change — output is byte-identical to the serial run for any
worker count, so every correctness theorem carries over unchanged.  The
failure policy (retry, timeout-kill, poison quarantine) is exercised
with deterministic fault injection.
"""

import filecmp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import similarity_join
from repro.core.metricspace import ObjectMetric, brute_force_object_links
from repro.core.results import TextSink
from repro.core.verify import brute_force_links
from repro.errors import BudgetExceededError, InvalidInputError, PoisonTaskError
from repro.io.writer import width_for
from repro.obs.metrics import reset_registry
from repro.parallel import parallel_join
from repro.resilience.budget import Budget
from repro.resilience.chaos import FlakyWorker

ALGORITHMS = ["ssj", "csj", "egrid", "pbsm"]


@pytest.fixture(scope="module")
def pts():
    return np.random.default_rng(5).random((300, 2))


def _serial_file(pts, eps, algo, path, g=10):
    sink = TextSink(str(path), id_width=width_for(len(pts)))
    result = similarity_join(pts, eps, algorithm=algo, g=g, sink=sink)
    sink.close()
    return result


class TestDeterminismMatrix:
    """workers in {1, 2, 4} all reproduce the serial output exactly."""

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_expanded_links_identical_across_worker_counts(self, pts, algo):
        serial = similarity_join(pts, 0.06, algorithm=algo, g=10)
        expected = sorted(serial.expanded_links())
        for workers in (1, 2, 4):
            par = parallel_join(pts, 0.06, algorithm=algo, g=10, workers=workers)
            assert sorted(par.expanded_links()) == expected, (
                f"{algo} diverged at workers={workers}"
            )

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_output_files_byte_identical(self, pts, algo, tmp_path):
        serial_path = tmp_path / "serial.txt"
        r_serial = _serial_file(pts, 0.06, algo, serial_path)
        for workers in (1, 2, 4):
            par_path = tmp_path / f"par{workers}.txt"
            sink = TextSink(str(par_path), id_width=width_for(len(pts)))
            r_par = parallel_join(
                pts, 0.06, algorithm=algo, g=10, workers=workers, sink=sink
            )
            sink.close()
            assert filecmp.cmp(str(serial_path), str(par_path), shallow=False)
            assert r_par.stats.links_emitted == r_serial.stats.links_emitted
            assert r_par.stats.groups_emitted == r_serial.stats.groups_emitted
            assert r_par.stats.bytes_written == r_serial.stats.bytes_written

    def test_compact_counters_match_serial(self, pts):
        serial = similarity_join(pts, 0.06, algorithm="csj", g=10)
        par = parallel_join(pts, 0.06, algorithm="csj", g=10, workers=4)
        assert par.stats.distance_computations == serial.stats.distance_computations
        assert par.stats.early_stops == serial.stats.early_stops
        assert par.algorithm == serial.algorithm


def hamming(a: str, b: str) -> float:
    return float(sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))


class TestObjectMetricPool:
    """csj(g) over an object M-tree: the pool replays the ball window."""

    @pytest.mark.parametrize("g", [0, 10])
    def test_byte_identical_to_serial(self, mutated_words, g, tmp_path):
        words = mutated_words
        ids = np.arange(len(words), dtype=float).reshape(-1, 1)
        settings = dict(
            algorithm="csj", g=g, index="mtree", metric=ObjectMetric(words, hamming),
            max_entries=4, bulk=None,
        )
        results = []
        for workers in (None, 2):
            path = tmp_path / f"w{workers}.txt"
            sink = TextSink(str(path), id_width=width_for(len(ids)))
            results.append(
                similarity_join(ids, 2.5, workers=workers, sink=sink, **settings)
            )
            sink.close()
        assert filecmp.cmp(str(tmp_path / "wNone.txt"), str(tmp_path / "w2.txt"),
                           shallow=False)
        serial, pooled = results
        for name in ("distance_computations", "merge_attempts", "early_stops",
                     "links_emitted", "groups_emitted", "bytes_written"):
            assert getattr(pooled.stats, name) == getattr(serial.stats, name), name
        assert serial.expanded_links() == brute_force_object_links(words, 2.5, hamming)


class TestHypothesisDeterminism:
    @given(
        seed=st.integers(0, 2**16),
        algo=st.sampled_from(["csj", "egrid-csj", "pbsm-csj", "ssj"]),
        workers=st.sampled_from([2, 3]),
    )
    @settings(max_examples=5, deadline=None)
    def test_parallel_equals_brute_force(self, seed, algo, workers):
        pts = np.random.default_rng(seed).random((120, 2))
        result = parallel_join(pts, 0.08, algorithm=algo, g=5, workers=workers)
        assert result.expanded_links() == brute_force_links(pts, 0.08)


class TestApiRouting:
    def test_similarity_join_workers_kwarg(self, pts):
        serial = similarity_join(pts, 0.06, algorithm="csj", g=10)
        par = similarity_join(pts, 0.06, algorithm="csj", g=10, workers=2)
        assert sorted(par.expanded_links()) == sorted(serial.expanded_links())

    def test_workers_one_or_none_stays_serial(self, pts):
        # No pool machinery: identical object path as the plain call.
        r0 = similarity_join(pts, 0.06, algorithm="csj", workers=None)
        r1 = similarity_join(pts, 0.06, algorithm="csj", workers=1)
        assert sorted(r0.expanded_links()) == sorted(r1.expanded_links())

    def test_prebuilt_index_rejected_in_parallel(self, pts):
        from repro.api import build_index

        tree = build_index(pts, "rstar")
        with pytest.raises(InvalidInputError, match="prebuilt"):
            similarity_join(pts, 0.06, index=tree, workers=2)

    def test_bad_worker_config_rejected(self, pts):
        with pytest.raises(InvalidInputError):
            parallel_join(pts, 0.06, workers=0)
        with pytest.raises(InvalidInputError):
            parallel_join(pts, 0.06, workers=2, task_timeout=-1.0)

    def test_bad_task_timeout_rejected_on_the_serial_path_too(self, pts):
        with pytest.raises(InvalidInputError, match="task_timeout"):
            similarity_join(pts, 0.06, task_timeout=-1)


class TestFailurePolicy:
    def test_killed_worker_respawned_and_task_retried(self, pts, tmp_path):
        serial_path = tmp_path / "serial.txt"
        _serial_file(pts, 0.06, "csj", serial_path)
        # One SIGKILL budgeted: the retry lands on a fresh worker and wins.
        fault = FlakyWorker(kill_at=(1,), max_failures=1)
        par_path = tmp_path / "par.txt"
        sink = TextSink(str(par_path), id_width=width_for(len(pts)))
        parallel_join(
            pts, 0.06, algorithm="csj", g=10, workers=2, sink=sink, fault=fault
        )
        sink.close()
        assert filecmp.cmp(str(serial_path), str(par_path), shallow=False)

    def test_poison_task_quarantined_with_partial(self, pts):
        fault = FlakyWorker(error_at=(2,))  # fails on every attempt
        with pytest.raises(PoisonTaskError) as info:
            parallel_join(pts, 0.06, algorithm="csj", g=10, workers=2,
                          fault=fault)
        err = info.value
        assert err.task_id == 2
        assert err.attempts == 3  # 1 try + max_task_retries(2)
        assert err.exit_code == 6
        assert err.partial is not None
        # Every *other* task's output made it into the partial result.
        assert err.partial.stats.links_emitted + err.partial.stats.groups_emitted > 0

    def test_worker_killing_task_quarantined(self, pts):
        fault = FlakyWorker(kill_at=(0,))  # unlimited kill budget
        with pytest.raises(PoisonTaskError) as info:
            parallel_join(pts, 0.06, algorithm="csj", g=10, workers=2,
                          fault=fault)
        assert info.value.task_id == 0
        assert info.value.attempts == 3

    def test_fault_free_run_kills_no_workers(self, pts):
        # A clean shutdown reaps workers that exited on ("stop",);
        # only a SIGKILL actually sent counts as a kill.
        registry = reset_registry()
        parallel_join(pts, 0.06, algorithm="csj", g=10, workers=2)
        snap = registry.snapshot()
        assert snap["repro_pool_spawns_total"] == 2
        assert snap.get("repro_pool_kills_total", 0) == 0

    def test_hung_task_killed_and_retried(self, pts, tmp_path):
        serial_path = tmp_path / "serial.txt"
        _serial_file(pts, 0.06, "csj", serial_path)
        fault = FlakyWorker(hang_at=(1,), max_failures=1, hang_seconds=60.0)
        par_path = tmp_path / "par.txt"
        sink = TextSink(str(par_path), id_width=width_for(len(pts)))
        registry = reset_registry()
        parallel_join(
            pts, 0.06, algorithm="csj", g=10, workers=2, sink=sink,
            fault=fault, task_timeout=0.4,
        )
        sink.close()
        assert filecmp.cmp(str(serial_path), str(par_path), shallow=False)
        assert registry.snapshot()["repro_pool_kills_total"] >= 1

    def test_deadline_breach_raises_with_partial(self, pts):
        budget = Budget(deadline_seconds=0.0, check_every=1)
        with pytest.raises(BudgetExceededError) as info:
            parallel_join(pts, 0.06, algorithm="csj", g=10, workers=2,
                          budget=budget)
        assert info.value.kind == "deadline"
        assert info.value.partial is not None

    def test_byte_cap_partial_is_serial_prefix(self, pts, tmp_path):
        serial_path = tmp_path / "serial.txt"
        _serial_file(pts, 0.06, "csj", serial_path)
        cap = 600
        budget = Budget(max_output_bytes=cap, check_every=1)
        par_path = tmp_path / "par.txt"
        sink = TextSink(str(par_path), id_width=width_for(len(pts)))
        with pytest.raises(BudgetExceededError):
            parallel_join(pts, 0.06, algorithm="csj", g=10, workers=4,
                          sink=sink, budget=budget)
        sink.close()
        whole = open(serial_path, "rb").read()
        prefix = open(par_path, "rb").read()
        assert prefix  # made progress before the cap
        assert whole.startswith(prefix)
