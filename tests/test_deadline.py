"""End-to-end deadline propagation.

A request deadline is armed once, as an absolute
``time.monotonic()`` timestamp, and must bind every layer underneath:
the :class:`~repro.resilience.budget.Budget` composition, the budget a
forked pool worker inherits and checks, the parent's kill of that
worker, and kill-and-resume through
:class:`~repro.resilience.checkpoint.CheckpointedJoin`.
Nothing — not :meth:`Budget.start`, not a resume, not a retry — may
extend an armed deadline.
"""

import multiprocessing
import pickle
import time

import numpy as np
import pytest

from repro.api import similarity_join
from repro.errors import BudgetExceededError
from repro.obs.metrics import reset_registry
from repro.parallel import parallel_join
from repro.resilience.budget import Budget
from repro.resilience.chaos import FlakyWorker
from repro.resilience.checkpoint import CheckpointedJoin
from repro.service import CircuitBreaker
from repro.stats.counters import JoinStats


@pytest.fixture
def pts():
    return np.random.default_rng(3).random((400, 2))


class TestArmDeadline:
    def test_arm_pins_absolute_timestamp(self):
        budget = Budget()
        before = time.monotonic()
        budget.arm_deadline(5.0)
        assert budget.deadline_at is not None
        assert before + 4.9 <= budget.deadline_at <= time.monotonic() + 5.0
        # Arming backfills the relative allowance for reporting.
        assert budget.deadline_seconds == 5.0
        assert budget.active

    def test_arm_uses_deadline_seconds_by_default(self):
        budget = Budget(deadline_seconds=2.0)
        budget.arm_deadline()
        assert budget.deadline_at is not None
        assert budget.deadline_at <= time.monotonic() + 2.0

    def test_start_cannot_extend_armed_deadline(self):
        budget = Budget(check_every=1)
        budget.arm_deadline(0.01)
        time.sleep(0.03)
        budget.start()  # a retry/resume restarting the relative clock
        with pytest.raises(BudgetExceededError) as info:
            budget.enforce(JoinStats())
        assert info.value.kind == "deadline"

    def test_remaining_composes_tighter_bound(self):
        budget = Budget(deadline_seconds=100.0)
        budget.start()
        budget.arm_deadline(0.5)
        remaining = budget.remaining_seconds()
        assert remaining is not None and remaining <= 0.5
        # And the other way: an expired relative clock binds too.
        b2 = Budget(deadline_seconds=0.0)
        b2.start()
        b2.deadline_at = time.monotonic() + 100.0
        assert b2.remaining_seconds() <= 0.0

    def test_remaining_lazily_starts_relative_clock(self):
        # Regression: an unstarted budget used to report its full
        # allowance forever, so N retries could each sleep the whole
        # deadline.  Reading the remainder must start the clock.
        budget = Budget(deadline_seconds=0.05)
        first = budget.remaining_seconds()
        assert first is not None
        time.sleep(0.02)
        second = budget.remaining_seconds()
        assert second < first

    def test_cap_timeout(self):
        assert Budget().cap_timeout(3.0) == 3.0
        assert Budget().cap_timeout(None) is None
        budget = Budget()
        budget.arm_deadline(0.5)
        capped = budget.cap_timeout(100.0)
        assert 0.0 < capped <= 0.5
        assert budget.cap_timeout(None) <= 0.5
        expired = Budget()
        expired.deadline_at = time.monotonic() - 1.0
        assert expired.cap_timeout(100.0) == 0.0  # never negative


class TestPicklePropagation:
    def test_budget_pickle_preserves_armed_deadline(self):
        budget = Budget(max_output_bytes=1234)
        budget.arm_deadline(7.0)
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.deadline_at == budget.deadline_at
        assert clone.deadline_seconds == budget.deadline_seconds
        assert clone.max_output_bytes == 1234
        # The clone enforces the same absolute point in time.
        assert abs(clone.remaining_seconds() - budget.remaining_seconds()) < 0.1


class TestParallelBinding:
    def test_armed_deadline_binds_worker_tasks(self, pts):
        # The deadline expired before the call: the run must stop with
        # the (empty, valid) partial attached, not run to completion.
        budget = Budget(check_every=1)
        budget.arm_deadline(0.0)
        with pytest.raises(BudgetExceededError) as info:
            parallel_join(pts, 0.06, algorithm="csj", g=10,
                          budget=budget, task_timeout=30.0)
        assert info.value.kind == "deadline"
        assert info.value.partial is not None

    def test_hung_worker_killed_at_armed_deadline(self, pts):
        # The parent kills the worker when the deadline comes due; that
        # kill enforces the deadline, so it is a breach, not a retry,
        # and not a pool failure for the breaker.
        registry = reset_registry()
        breaker = CircuitBreaker("worker-pool", failure_threshold=1)
        budget = Budget(check_every=1).arm_deadline(0.3)
        started = time.monotonic()
        with pytest.raises(BudgetExceededError) as info:
            parallel_join(pts, 0.06, budget=budget, breaker=breaker,
                          fault=FlakyWorker(hang_at={0, 1}, hang_seconds=60.0))
        assert time.monotonic() - started < 5.0
        assert info.value.kind == "deadline"
        assert info.value.partial.links == info.value.partial.groups == []
        snap = registry.snapshot()
        assert snap["repro_pool_spawns_total"] == 1
        assert snap["repro_pool_kills_total"] == 1
        assert breaker.state == "closed"
        assert multiprocessing.active_children() == []

    def test_relative_deadline_restarts_at_pool_run_start(self):
        # A deterministic stand-in for a slow index build: the budget's
        # relative clock ran out before the join began.  Serial and pool
        # runs both restart it at run start, so both must finish.
        pts = np.random.default_rng(3).random((300, 2))
        pool_budget, serial_budget = (
            Budget(deadline_seconds=1.0, check_every=1).start() for _ in range(2)
        )
        time.sleep(1.1)
        pooled = parallel_join(pts, 0.06, algorithm="csj", g=10,
                               budget=pool_budget)
        serial = similarity_join(pts, 0.06, algorithm="csj", g=10,
                                 budget=serial_budget)
        assert (pooled.links, pooled.groups) == (serial.links, serial.groups)

    def test_generous_deadline_does_not_perturb_output(self, pts):
        budget = Budget(check_every=1)
        budget.arm_deadline(300.0)
        bounded = parallel_join(pts, 0.06, algorithm="csj", g=10, budget=budget)
        free = parallel_join(pts, 0.06, algorithm="csj", g=10)
        assert bounded.links == free.links
        assert bounded.stats.bytes_written == free.stats.bytes_written


class TestKillAndResume:
    def test_resume_cannot_extend_armed_deadline(self, pts, tmp_path):
        # First run: crash partway via a byte cap, journal intact.
        out = tmp_path / "out.txt"
        first = Budget(max_output_bytes=400, check_every=1)
        with pytest.raises(BudgetExceededError):
            CheckpointedJoin(
                pts, 0.06, str(out), algorithm="csj", g=10, cadence=8,
                budget=first,
            ).run()
        # Resume under the original request's armed deadline, which has
        # since expired.  run() calls budget.start() internally — that
        # must not grant a fresh allowance.
        resumed = Budget(check_every=1)
        resumed.arm_deadline(0.01)
        time.sleep(0.03)
        with pytest.raises(BudgetExceededError) as info:
            CheckpointedJoin(
                pts, 0.06, str(out), algorithm="csj", g=10, cadence=8,
                budget=resumed,
            ).run(resume=True)
        assert info.value.kind == "deadline"

    def test_resume_with_slack_finishes_byte_identical(self, pts, tmp_path):
        reference = tmp_path / "ref.txt"
        CheckpointedJoin(
            pts, 0.06, str(reference), algorithm="csj", g=10, cadence=8
        ).run()
        out = tmp_path / "out.txt"
        with pytest.raises(BudgetExceededError):
            CheckpointedJoin(
                pts, 0.06, str(out), algorithm="csj", g=10, cadence=8,
                budget=Budget(max_output_bytes=400, check_every=1),
            ).run()
        generous = Budget(check_every=1)
        generous.arm_deadline(300.0)
        CheckpointedJoin(
            pts, 0.06, str(out), algorithm="csj", g=10, cadence=8,
            budget=generous,
        ).run(resume=True)
        assert out.read_bytes() == reference.read_bytes()
