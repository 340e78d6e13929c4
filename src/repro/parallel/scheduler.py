"""Deterministic work scheduling over a supervised worker pool.

:class:`WorkScheduler` turns the canonical task sequence of a
:class:`~repro.parallel.tasks.TaskState` into a supervised parallel run:

* **Dispatch** — tasks go out in canonical order to idle workers; task
  ids are positions in the sequence, so sharding is deterministic and
  independent of worker count.
* **Canonical-order merge** — results are buffered until the merge
  cursor reaches them, then applied (events + counters) through the one
  sink / CSJ merge window in task order.  Workers race; the output
  cannot: bytes are identical for any worker count, including 1.
* **Retry with decorrelated jitter** — a failed task (worker error,
  crash, timeout) is requeued after a randomised backoff; the jitter RNG
  affects *timing only*, never output.
* **Poison quarantine** — a task whose failures exceed
  ``MAX_TASK_RETRIES`` is quarantined instead of retried forever and the
  run surfaces :class:`~repro.errors.PoisonTaskError`.  Every other task
  still completes and merges first, so the partial result is maximal.
* **Budget enforcement** — the parent checks its
  :class:`~repro.resilience.budget.Budget` at every merge and publishes
  totals to :class:`~repro.parallel.shared.SharedCounters` so workers
  refuse tasks the moment a cap or deadline is breached anywhere.  Both
  sides measure the deadline from the same ``budget.start()``, and the
  per-task timeout is capped at the slack left at that moment.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import deque
from typing import Optional

from repro.core.groups import GroupBuffer
from repro.core.results import JoinSink
from repro.errors import CircuitOpenError, PoisonTaskError, WorkerPoolError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as trace_span
from repro.parallel.shared import SharedCounters
from repro.parallel.supervisor import (
    BACKOFF_BASE,
    BACKOFF_MAX,
    JITTER_SEED,
    MAX_TASK_RETRIES,
    Supervisor,
    mp_context,
)
from repro.parallel.tasks import TaskState
from repro.resilience.budget import Budget
from repro.resilience.chaos import FlakyWorker
from repro.stats.counters import JoinStats

__all__ = ["WorkScheduler"]

logger = get_logger("parallel.scheduler")


class WorkScheduler:
    """Run ``state``'s tasks through a supervised pool.

    :meth:`run` drives the pool to completion (or a raised budget/poison/
    pool error).  ``self.merged`` is always the merged prefix of the
    canonical sequence, quarantined holes included.
    """

    def __init__(
        self,
        state: TaskState,
        sink: JoinSink,
        workers: int,
        stats: JoinStats,
        task_timeout: Optional[float] = None,
        buffer: Optional[GroupBuffer] = None,
        budget: Optional[Budget] = None,
        fault: Optional[FlakyWorker] = None,
        breaker: object = None,
    ):
        self.state = state
        self.sink = sink
        self.workers = workers
        #: Per-task wall-clock limit before the budget caps it; ``None``
        #: disables the timeout.
        self.task_timeout = task_timeout
        self.stats = stats
        self.buffer = buffer
        self.budget = budget
        self.fault = fault
        #: Optional :class:`~repro.service.breaker.CircuitBreaker`
        #: guarding the pool.  Worker deaths feed it, so a respawn storm
        #: opens the circuit mid-run instead of thrashing the host.
        self.breaker = breaker
        self.merged = 0

        n = len(state.tasks)
        self._n = n
        self._pending: deque[int] = deque(range(n))
        self._delayed: list[tuple[float, int]] = []  # (ready_at, task_id) heap
        self._completed: dict[int, tuple[list, tuple]] = {}
        self._failures: dict[int, int] = {}
        self._last_error: dict[int, str] = {}
        self._backoff: dict[int, float] = {}
        self._quarantined: dict[int, str] = {}
        self._rng = random.Random(JITTER_SEED)
        self._shared: Optional[SharedCounters] = None
        #: Whether a worker death already recorded a breaker failure
        #: this run (guards against double-counting one incident).
        self._breaker_fed = False

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute and merge every task."""
        # Health check only: when the serving layer drives this run it
        # already holds the half-open probe slot, so the entry gate must
        # refuse an open circuit without consuming a second probe.
        if self.breaker is not None and not self.breaker.allow(consume=False):
            raise CircuitOpenError(
                "worker-pool", retry_after=self.breaker.retry_after()
            )
        task_timeout = self.task_timeout
        if self.budget is not None:
            self.budget.start()
            task_timeout = self.budget.cap_timeout(task_timeout)
            if task_timeout is not None and task_timeout <= 0:
                # Deadline already spent: keep a minimal valid timeout and
                # let the loop raise the breach with the partial result
                # attached, exactly like a mid-run expiry.
                task_timeout = 1e-3
        if self.merged >= self._n:
            return

        self._shared = SharedCounters.from_budget(mp_context(), self.budget)
        supervisor = Supervisor(
            self.state,
            self.workers,
            task_timeout,
            shared=self._shared,
            fault=self.fault,
        )
        if self._shared is not None:
            self._shared.start()
            self._shared.publish(self.stats)
        supervisor.start()
        registry = get_registry()
        queue_depth = registry.gauge(
            "repro_pool_queue_depth", "Tasks waiting for an idle worker"
        )
        heartbeat_age = registry.gauge(
            "repro_pool_max_heartbeat_age_seconds",
            "Silence of the quietest live worker",
        )
        logger.info(
            "pool started",
            extra={"workers": self.workers, "tasks": self._n - self.merged},
        )
        try:
            while not self._done():
                self._promote_ready_retries()
                self._dispatch(supervisor)
                for kind, handle, payload in supervisor.poll(timeout=0.05):
                    if kind == "died":
                        self._on_worker_died(supervisor, handle)
                    else:
                        self._on_message(handle, payload)
                for handle, reason in supervisor.reap_unresponsive():
                    self._on_worker_killed(supervisor, handle, reason)
                self._merge()
                queue_depth.set(len(self._pending) + len(self._delayed))
                heartbeat_age.set(supervisor.max_heartbeat_age())
                if self.budget is not None:
                    # Deadline must fire even while every task is stuck
                    # in flight and nothing reaches the merge cursor.
                    self.budget.enforce(self.stats)
                if self.breaker is not None and self.breaker.state == "open":
                    # Worker deaths opened the circuit mid-run: stop
                    # feeding a pool that keeps eating its workers.
                    raise CircuitOpenError(
                        "worker-pool", retry_after=self.breaker.retry_after()
                    )
                if not supervisor.workers and not self._done():
                    # All workers gone and nothing respawned: fatal.
                    raise WorkerPoolError(
                        "worker pool is empty with tasks outstanding"
                    )
        except WorkerPoolError:
            # Worker deaths already fed the breaker one failure each via
            # _on_worker_died/_on_worker_killed; only a death-free pool
            # error (e.g. a spawn failure) is a fresh incident to count.
            if self.breaker is not None and not self._breaker_fed:
                self.breaker.record_failure()
            raise
        finally:
            supervisor.shutdown()
            queue_depth.set(0.0)
            heartbeat_age.set(0.0)
            self._export_pool_metrics(registry, supervisor)

        if self.breaker is not None:
            self.breaker.record_success()

        if self._quarantined:
            task_id = min(self._quarantined)
            raise PoisonTaskError(
                task_id,
                self._failures.get(task_id, 0),
                self._quarantined[task_id],
            )

    def _export_pool_metrics(self, registry, supervisor: Supervisor) -> None:
        """Publish the run's pool-health totals and log one summary."""
        registry.counter(
            "repro_pool_respawns_total", "Workers respawned after death"
        ).inc(supervisor.respawns)
        registry.counter(
            "repro_pool_task_retries_total", "Task execution failures retried"
        ).inc(sum(self._failures.values()))
        registry.counter(
            "repro_pool_quarantined_total", "Tasks quarantined as poison"
        ).inc(len(self._quarantined))
        logger.info(
            "pool finished",
            extra={
                "merged": self.merged,
                "tasks": self._n,
                "respawns": supervisor.respawns,
                "retries": sum(self._failures.values()),
                "quarantined": len(self._quarantined),
            },
        )

    # ------------------------------------------------------------------
    # Completion predicates
    # ------------------------------------------------------------------
    def _done(self) -> bool:
        return self.merged >= self._n

    def _runnable(self, task_id: int) -> bool:
        return (
            task_id not in self._completed
            and task_id not in self._quarantined
            and task_id >= self.merged
        )

    # ------------------------------------------------------------------
    # Dispatch and retries
    # ------------------------------------------------------------------
    def _promote_ready_retries(self) -> None:
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            _, task_id = heapq.heappop(self._delayed)
            if self._runnable(task_id):
                self._pending.appendleft(task_id)

    def _dispatch(self, supervisor: Supervisor) -> None:
        idle = [h for h in supervisor.workers if h.idle]
        while idle and self._pending:
            task_id = self._pending.popleft()
            if not self._runnable(task_id):
                continue
            if not supervisor.dispatch(idle.pop(), task_id):
                self._pending.appendleft(task_id)
                break

    def _record_failure(self, task_id: int, reason: str) -> None:
        if not self._runnable(task_id):
            return  # completed, merged past or quarantined
        count = self._failures.get(task_id, 0) + 1
        self._failures[task_id] = count
        self._last_error[task_id] = reason
        if count > MAX_TASK_RETRIES:
            self._quarantined[task_id] = reason
            logger.warning(
                "quarantining poison task",
                extra={"task": task_id, "failures": count, "reason": reason},
            )
            return
        logger.debug(
            "task failed, will retry",
            extra={"task": task_id, "failures": count, "reason": reason},
        )
        # Decorrelated jitter: sleep ~ U(base, 3 * previous), capped.
        prev = self._backoff.get(task_id, BACKOFF_BASE)
        delay = min(BACKOFF_MAX, self._rng.uniform(BACKOFF_BASE, prev * 3))
        self._backoff[task_id] = delay
        heapq.heappush(self._delayed, (time.monotonic() + delay, task_id))

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _on_message(self, handle, payload) -> None:
        kind = payload[0]
        if kind in ("hb", "ready"):
            if kind == "ready":
                handle.ready = True
            return
        task_id = payload[1]
        if handle.current == task_id:
            handle.current = None
        if kind == "ok":
            _, _, events, counters = payload
            if self._runnable(task_id):
                self._completed[task_id] = (events, counters)
        elif kind == "err":
            self._record_failure(task_id, payload[2])
        elif kind == "breach":
            # The worker refused the task because a shared limit tripped.
            # Re-check authoritatively; if the parent's budget agrees it
            # raises here, otherwise (a momentary race) requeue the task.
            if self.budget is not None:
                self.budget.enforce(self.stats)
            if self._runnable(task_id):
                self._pending.appendleft(task_id)

    def _on_worker_died(self, supervisor: Supervisor, handle) -> None:
        task_id = handle.current
        if self.breaker is not None:
            self.breaker.record_failure()
            self._breaker_fed = True
        if task_id is not None:
            self._record_failure(
                task_id, f"worker w{handle.wid} died while executing the task"
            )
        if not self._done():
            supervisor.respawn()

    def _on_worker_killed(self, supervisor: Supervisor, handle, reason: str) -> None:
        task_id = handle.current
        if self.breaker is not None:
            self.breaker.record_failure()
            self._breaker_fed = True
        if task_id is not None:
            self._record_failure(task_id, reason)
        if not self._done():
            supervisor.respawn()

    # ------------------------------------------------------------------
    # Canonical-order merge
    # ------------------------------------------------------------------
    def _merge(self) -> None:
        shared = self._shared
        if self.merged >= self._n:
            return
        if self.merged not in self._completed and self.merged not in self._quarantined:
            return  # nothing at the cursor yet; skip the span entirely
        progressed = False
        start_cursor = self.merged
        with trace_span("csj-merge", cursor=start_cursor) as sp:
            while self.merged < self._n:
                task_id = self.merged
                if task_id in self._completed:
                    events, counters = self._completed.pop(task_id)
                    if self.budget is not None:
                        self.budget.check(self.stats)
                    self.state.apply(
                        events, counters, self.sink, self.buffer, self.stats
                    )
                    self.merged += 1
                    progressed = True
                elif task_id in self._quarantined:
                    self.merged += 1  # hole acknowledged; partial result only
                    progressed = True
                else:
                    break
            if hasattr(sp, "attrs"):
                sp.attrs["merged"] = self.merged - start_cursor
        if progressed and shared is not None:
            shared.publish(self.stats)
