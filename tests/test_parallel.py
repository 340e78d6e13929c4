"""Supervised pool execution: one request, one forked worker.

The load-bearing claim: the pool is an *execution* strategy, not an
algorithm change — a pooled join's payload and integer counters equal
the serial run's, so every correctness theorem carries over unchanged.
The per-request failure policy (retry once on a fresh fork, kill at the
timeout, :class:`~repro.errors.PoisonTaskError`) is exercised with
deterministic fault injection, and no test may leave a worker alive.
"""

import filecmp
import gc
import json
import multiprocessing
import multiprocessing.context
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_index, open_service, similarity_join
from repro.core.metricspace import ObjectMetric, brute_force_object_links
from repro.core.results import TextSink
from repro.core.verify import brute_force_links
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    InvalidInputError,
    PoisonTaskError,
    WorkerPoolError,
)
from repro.geometry.metrics import get_metric
from repro.io.writer import width_for
from repro.obs.metrics import reset_registry
from repro.obs.tracing import configure_tracing, disable_tracing
from repro.parallel import parallel_join
from repro.resilience.budget import Budget
from repro.resilience.chaos import FlakyWorker
from repro.service import CircuitBreaker, JoinRequest

ALGORITHMS = ["ssj", "ncsj", "csj", "egrid", "egrid-csj", "pbsm", "pbsm-csj"]


@pytest.fixture(scope="module")
def pts():
    return np.random.default_rng(5).random((300, 2))


@pytest.fixture(autouse=True)
def no_worker_outlives_its_call():
    yield
    assert multiprocessing.active_children() == []


def _payload(result):
    return result.links, result.groups, result.group_pairs


def _int_stats(stats):
    """The integer ``JoinStats`` fields: every counter, no timer."""
    return {
        f.name: getattr(stats, f.name)
        for f in fields(stats)
        if isinstance(getattr(stats, f.name), int)
    }


def _render(result, path, n):
    """Write a collected result through a ``TextSink``, kind by kind."""
    sink = TextSink(str(path), id_width=width_for(n))
    for ids in result.groups:
        sink.write_group(ids)
    for i, j in result.links:
        sink.write_link(i, j)
    sink.close()
    return sink.stats.bytes_written


class TestDeterminismMatrix:
    """A pooled join, direct or served, is the serial join."""

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_expanded_links_identical_across_worker_counts(self, pts, algo):
        # Service workers 1 run a miss in the executor thread, 2 in a
        # forked worker; both answer with the serial payload.
        serial = similarity_join(pts, 0.06, algorithm=algo, g=10)
        for workers in (1, 2):
            with open_service(workers=workers) as svc:
                outcome = svc.submit(
                    JoinRequest(pts, 0.06, algorithm=algo, g=10)
                ).wait(60.0)
            assert outcome.status == "admitted"
            assert _payload(outcome.result) == _payload(serial), (
                f"{algo} diverged at workers={workers}"
            )
            assert outcome.result.expanded_links() == serial.expanded_links()

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_output_files_byte_identical(self, pts, algo, tmp_path):
        serial = similarity_join(pts, 0.06, algorithm=algo, g=10)
        pooled = parallel_join(pts, 0.06, algorithm=algo, g=10)
        assert _payload(pooled) == _payload(serial)
        assert _int_stats(pooled.stats) == _int_stats(serial.stats)
        assert (pooled.algorithm, pooled.g, pooled.index_name) == (
            serial.algorithm, serial.g, serial.index_name,
        )
        n = len(pts)
        written = [
            _render(result, tmp_path / f"{tag}.txt", n)
            for tag, result in (("serial", serial), ("pool", pooled))
        ]
        assert written == [serial.stats.bytes_written] * 2
        assert filecmp.cmp(str(tmp_path / "serial.txt"), str(tmp_path / "pool.txt"),
                           shallow=False)
        # The serial run's own file holds the same lines.
        direct = TextSink(str(tmp_path / "direct.txt"), id_width=width_for(n))
        similarity_join(pts, 0.06, algorithm=algo, g=10, sink=direct)
        direct.close()
        lines = [
            sorted(open(tmp_path / f"{tag}.txt", "rb").read().splitlines())
            for tag in ("direct", "pool")
        ]
        assert lines[0] == lines[1]

    def test_compact_counters_match_serial(self, pts):
        serial = similarity_join(pts, 0.06, algorithm="csj", g=10)
        par = parallel_join(pts, 0.06, algorithm="csj", g=10)
        assert par.stats.distance_computations == serial.stats.distance_computations
        assert par.stats.early_stops == serial.stats.early_stops
        assert par.algorithm == serial.algorithm


def hamming(a: str, b: str) -> float:
    return float(sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))


class TestObjectMetricPool:
    """csj(g) over an object M-tree: the worker runs the ball window."""

    @pytest.mark.parametrize("g", [0, 10])
    def test_byte_identical_to_serial(self, mutated_words, g):
        words = mutated_words
        ids = np.arange(len(words), dtype=float).reshape(-1, 1)
        settings = dict(
            algorithm="csj", g=g, index="mtree", metric=ObjectMetric(words, hamming),
            max_entries=4, bulk=None,
        )
        serial = similarity_join(ids, 2.5, **settings)
        pooled = parallel_join(ids, 2.5, **settings)
        assert _payload(pooled) == _payload(serial)
        assert _int_stats(pooled.stats) == _int_stats(serial.stats)
        assert serial.expanded_links() == brute_force_object_links(words, 2.5, hamming)


class TestHypothesisDeterminism:
    @given(
        seed=st.integers(0, 2**16),
        algo=st.sampled_from(["csj", "egrid-csj", "pbsm-csj", "ssj"]),
    )
    @settings(max_examples=5, deadline=None)
    def test_parallel_equals_brute_force(self, seed, algo):
        pts = np.random.default_rng(seed).random((120, 2))
        result = parallel_join(pts, 0.08, algorithm=algo, g=5)
        assert result.expanded_links() == brute_force_links(pts, 0.08)


class TestApiRouting:
    def test_similarity_join_workers_kwarg(self, pts):
        # Batch joins run in-process; their crash recovery is the journal.
        with pytest.raises(TypeError, match="workers"):
            similarity_join(pts, 0.06, workers=2)

    def test_workers_one_or_none_stays_serial(self, pts):
        # Service workers 0 and 1 run a miss in the executor thread.
        offline = similarity_join(pts, 0.06)
        registry = reset_registry()
        for workers in (0, 1):
            with open_service(workers=workers) as svc:
                outcome = svc.submit(JoinRequest(pts, 0.06)).wait(60.0)
            assert _payload(outcome.result) == _payload(offline)
        assert registry.snapshot().get("repro_pool_spawns_total", 0) == 0

    def test_prebuilt_manhattan_tree_in_pool_writes_serial_bytes(self, pts):
        # The prebuilt tree brings its metric; the metric argument is unset.
        tree = build_index(pts, "rstar", metric="manhattan", bulk="str")
        serial = similarity_join(pts, 0.06, index=tree)
        pooled = parallel_join(pts, 0.06, index=tree)
        assert _payload(pooled) == _payload(serial)
        assert _int_stats(pooled.stats) == _int_stats(serial.stats)
        assert pooled.expanded_links() == brute_force_links(
            pts, 0.06, metric=get_metric("manhattan")
        )

    def test_bad_worker_config_rejected(self, pts):
        with pytest.raises(InvalidInputError):
            parallel_join(pts, 0.06, task_timeout=-1.0)
        with pytest.raises(InvalidInputError):
            parallel_join(pts, 0.06, task_timeout=0.0)
        with pytest.raises(TypeError, match="workers"):
            parallel_join(pts, 0.06, workers=2)

    def test_bad_task_timeout_rejected_on_the_serial_path_too(self, pts):
        with pytest.raises(TypeError, match="task_timeout"):
            similarity_join(pts, 0.06, task_timeout=-1)


class TestFailurePolicy:
    """Per request: one retry on a fresh fork, then PoisonTaskError."""

    def test_killed_worker_respawned_and_task_retried(self, pts):
        serial = similarity_join(pts, 0.06, algorithm="csj", g=10)
        registry = reset_registry()
        pooled = parallel_join(
            pts, 0.06, algorithm="csj", g=10, fault=FlakyWorker(kill_at={0})
        )
        assert _payload(pooled) == _payload(serial)
        assert _int_stats(pooled.stats) == _int_stats(serial.stats)
        assert registry.snapshot()["repro_pool_spawns_total"] == 2

    def test_one_state_per_run_respawns_included(self, pts):
        # The parent builds the TaskState once, before the first fork;
        # the retry forks again and inherits the same object.
        registry = reset_registry()
        parallel_join(pts, 0.06, algorithm="csj", g=10, fault=FlakyWorker(kill_at={0}))
        snap = registry.snapshot()
        assert snap["repro_pool_spawns_total"] == 2
        assert snap["repro_taskstate_rebuilds_total"] == 1

    def test_failing_request_raises_poison_error(self, pts):
        with pytest.raises(PoisonTaskError) as info:
            parallel_join(pts, 0.06, fault=FlakyWorker(error_at={0, 1}))
        err = info.value
        assert err.attempts == 2
        assert err.exit_code == 6
        assert "OSError" in err.last_error

    def test_worker_killing_task_quarantined(self, pts):
        registry = reset_registry()
        with pytest.raises(PoisonTaskError) as info:
            parallel_join(pts, 0.06, fault=FlakyWorker(kill_at={0, 1}))
        assert info.value.attempts == 2
        assert "died" in info.value.last_error
        assert registry.snapshot()["repro_pool_spawns_total"] == 2

    def test_fault_free_run_kills_no_workers(self, pts):
        # A worker that answered exits on its own; only a SIGKILL the
        # parent actually sends counts as a kill.
        registry = reset_registry()
        parallel_join(pts, 0.06, algorithm="csj", g=10)
        snap = registry.snapshot()
        assert snap["repro_pool_spawns_total"] == 1
        assert snap["repro_taskstate_rebuilds_total"] == 1
        assert snap.get("repro_pool_kills_total", 0) == 0

    def test_hung_task_killed_and_retried(self, pts):
        serial = similarity_join(pts, 0.06, algorithm="csj", g=10)
        registry = reset_registry()
        pooled = parallel_join(
            pts, 0.06, algorithm="csj", g=10, task_timeout=0.4,
            fault=FlakyWorker(hang_at={0}, hang_seconds=60.0),
        )
        assert _payload(pooled) == _payload(serial)
        snap = registry.snapshot()
        assert snap["repro_pool_kills_total"] == 1
        assert snap["repro_pool_spawns_total"] == 2

    def test_deadline_breach_raises_with_partial(self, pts):
        registry = reset_registry()
        budget = Budget(deadline_seconds=0.0, check_every=1)
        with pytest.raises(BudgetExceededError) as info:
            parallel_join(pts, 0.06, algorithm="csj", g=10, budget=budget)
        assert info.value.kind == "deadline"
        partial = info.value.partial
        assert partial is not None and partial.algorithm == "csj(10)"
        assert partial.stats.bytes_written == 0
        # A spent deadline forks nothing.
        assert registry.snapshot().get("repro_pool_spawns_total", 0) == 0

    def test_byte_cap_partial_is_serial_prefix(self, pts):
        serial = similarity_join(pts, 0.06, algorithm="csj", g=10)
        budget = Budget(max_output_bytes=600, check_every=1)
        with pytest.raises(BudgetExceededError) as info:
            parallel_join(pts, 0.06, algorithm="csj", g=10, budget=budget)
        assert info.value.kind == "output_bytes"
        partial = info.value.partial
        assert partial.links or partial.groups  # made progress before the cap
        assert partial.links == serial.links[: len(partial.links)]
        assert partial.groups == serial.groups[: len(partial.groups)]

    def test_open_breaker_stops_the_retry(self, pts):
        breaker = CircuitBreaker("worker-pool", failure_threshold=1,
                                 cooldown_base=30.0)
        registry = reset_registry()
        with pytest.raises(CircuitOpenError):
            parallel_join(pts, 0.06, fault=FlakyWorker(kill_at={0}), breaker=breaker)
        assert registry.snapshot()["repro_pool_spawns_total"] == 1
        with pytest.raises(CircuitOpenError):
            parallel_join(pts, 0.06, breaker=breaker)
        assert registry.snapshot()["repro_pool_spawns_total"] == 1

    def test_failed_respawn_leaves_no_worker_behind(self, pts, monkeypatch):
        # The first attempt dies; starting the retry's worker fails.
        start = multiprocessing.context.ForkProcess.start
        calls = []

        def start_once(self):
            calls.append(self)
            if len(calls) > 1:
                raise OSError("no more processes")
            start(self)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_once)
        with pytest.raises(WorkerPoolError, match="no more processes"):
            parallel_join(pts, 0.06, fault=FlakyWorker(kill_at={0}))
        assert len(calls) == 2
        assert multiprocessing.active_children() == []


class TestConcurrentRequests:
    """Two executors, each running its miss in its own forked worker."""

    def test_paired_misses_match_offline(self):
        rng = np.random.default_rng(21)
        arrays = [rng.random((250, 2)) for _ in range(20)]
        requests = [
            JoinRequest(arr, 0.06, algorithm=("csj", "ncsj")[k % 2], g=10)
            for k, arr in enumerate(arrays)
        ]
        with open_service(executors=2, workers=2, queue_depth=4) as svc:
            outcomes = []
            for k in range(0, len(requests), 2):
                outcomes += svc.serve(requests[k:k + 2])
        assert multiprocessing.active_children() == []
        for request, outcome in zip(requests, outcomes):
            assert outcome.status == "admitted"
            offline = similarity_join(
                request.points, 0.06, algorithm=request.algorithm, g=10
            )
            assert _payload(outcome.result) == _payload(offline)
            assert _int_stats(outcome.result.stats) == _int_stats(offline.stats)

    def test_pool_misses_leave_a_clean_trace(self, tmp_path):
        # Workers write no trace lines and never flush the parent's.
        path = tmp_path / "pool.trace.jsonl"
        configure_tracing(str(path))
        try:
            rng = np.random.default_rng(22)
            with open_service(executors=2, workers=2, queue_depth=32) as svc:
                outcomes = svc.serve(
                    [JoinRequest(rng.random((250, 2)), 0.06) for _ in range(8)]
                )
        finally:
            disable_tracing()
        assert [o.status for o in outcomes] == ["admitted"] * 8
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(set(lines)) == len(lines)
        assert [r["name"] for r in records] == ["worker-spawn"] * 8


class TestForkOnly:
    """Workers inherit the parent's state through fork; without fork a
    pool run fails typed, before any process starts."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )

    def test_pool_run_raises_before_any_process_starts(self, pts, no_fork):
        registry = reset_registry()
        with pytest.raises(WorkerPoolError, match="fork") as info:
            parallel_join(pts, 0.06, algorithm="csj")
        assert info.value.exit_code == 7
        snap = registry.snapshot()
        assert snap.get("repro_pool_spawns_total", 0) == 0
        assert snap.get("repro_taskstate_rebuilds_total", 0) == 0

    def test_service_degrades_without_fork(self, pts, no_fork):
        with open_service(workers=2) as svc:
            outcome = svc.submit(JoinRequest(pts, 0.06)).wait(60.0)
        assert outcome.status == "degraded"


class TestInputsReleased:
    def test_pool_join_does_not_pin_its_points(self):
        # validate_points passes a float64 array through, so the weakref
        # watches the very object the pool ran on.
        arr = np.random.default_rng(8).random((500, 2))
        ref = weakref.ref(arr)
        parallel_join(arr, 0.06, algorithm="csj")
        del arr
        gc.collect()
        assert ref() is None
