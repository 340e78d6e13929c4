"""Supervised parallel join execution.

Public entry point: :func:`parallel_join` — the multiprocessing
counterpart of :func:`repro.api.similarity_join`.  The join's canonical
work-unit sequence is executed across a supervised worker pool
(heartbeats, per-task timeouts, automatic respawn, bounded retry,
poison-task quarantine, straggler speculation) and merged back in
canonical order, so the output is byte-identical to the serial run for
any worker count.  See :mod:`repro.parallel.tasks` for the execution
model and :mod:`repro.parallel.scheduler` for the failure policy.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import BudgetExceededError, PoisonTaskError
from repro.io.writer import width_for
from repro.parallel.scheduler import WorkScheduler
from repro.parallel.supervisor import Supervisor, SupervisorConfig
from repro.parallel.tasks import FAMILIES, JoinSpec, TaskState
from repro.resilience.budget import Budget
from repro.resilience.chaos import FlakyWorker

__all__ = [
    "parallel_join",
    "JoinSpec",
    "TaskState",
    "FAMILIES",
    "Supervisor",
    "SupervisorConfig",
    "WorkScheduler",
]


def parallel_join(
    points: np.ndarray,
    eps: float,
    algorithm: str = "csj",
    g: int = 10,
    workers: int = 2,
    sink: Optional[JoinSink] = None,
    index: str = "rstar",
    metric: object = None,
    max_entries: int = 64,
    bulk: Optional[str] = "str",
    partitions_per_axis: Optional[int] = None,
    budget: Optional[Budget] = None,
    task_timeout: Optional[float] = None,
    config: Optional[SupervisorConfig] = None,
    fault: Optional[FlakyWorker] = None,
    breaker: object = None,
    cancel: object = None,
    data_plane: str = "auto",
    shared: Optional["SharedDataset"] = None,
) -> JoinResult:
    """Run a similarity self-join across a supervised worker pool.

    Parameters mirror :func:`repro.api.similarity_join`; additionally
    ``workers`` sets the pool size, ``task_timeout`` the per-task
    wall-clock limit, ``config`` overrides the full
    :class:`~repro.parallel.supervisor.SupervisorConfig`, and ``fault``
    injects deterministic worker failures for testing.  ``breaker``
    (an object with ``allow/record_failure/record_success/retry_after``,
    e.g. :class:`~repro.service.CircuitBreaker`) guards the pool:
    worker deaths feed it and an open circuit aborts with
    :class:`~repro.errors.CircuitOpenError`.  ``cancel`` (a
    ``threading.Event``) requests cooperative cancellation.

    Deadline propagation: a ``budget`` with a deadline binds end-to-end —
    the per-task timeout is capped at the remaining slack, and the
    absolute deadline is pickled into the :class:`JoinSpec` so workers
    refuse tasks once it passes, even mid-queue.

    ``data_plane`` selects how workers obtain the dataset: ``"shm"``
    publishes ``points`` (and, for tree joins, the packed index) into
    shared-memory segments that workers attach zero-copy, ``"pickle"``
    ships the array inside the spec, ``"auto"`` (default) prefers shm
    where the platform supports it.  The choice never affects output
    bytes.  ``shared`` passes a pre-published
    :class:`~repro.parallel.shm.SharedDataset` (e.g. a service-registered
    dataset) to reuse across calls; without it an ephemeral one is
    created and torn down around the join.

    Guarantees: output is byte-identical to the serial algorithm for any
    worker count; a task that repeatedly kills its workers raises
    :class:`~repro.errors.PoisonTaskError` (task id, attempt count, and
    the partial result from every other task attached as ``partial``); a
    breached ``budget`` raises
    :class:`~repro.errors.BudgetExceededError` with the valid partial
    prefix attached.
    """
    deadline_at = None
    if budget is not None:
        # Pin the request deadline to an absolute timestamp once, here,
        # so every layer below (task timeouts, workers, sink retries)
        # measures against the same clock edge.
        remaining = budget.remaining_seconds()
        if budget.deadline_at is not None:
            deadline_at = budget.deadline_at
        elif remaining is not None:
            deadline_at = time.monotonic() + remaining
        capped = budget.cap_timeout(task_timeout)
        if capped is not None and capped <= 0:
            # Deadline already spent: keep a minimal valid timeout and
            # let the scheduler raise the breach with the partial result
            # attached, exactly like a mid-run expiry.
            capped = 1e-3
        task_timeout = capped
    from repro.parallel.shm import SharedDataset, resolve_data_plane

    plane = resolve_data_plane(data_plane)
    owned: Optional[SharedDataset] = None
    if shared is None and plane == "shm":
        # Ephemeral owner for this one join; torn down in the finally.
        owned = shared = SharedDataset(points, metric=metric, data_plane=data_plane)
    if shared is not None:
        points = shared.points
        plane = shared.plane
    try:
        spec = JoinSpec(
            points=points,
            eps=eps,
            algorithm=algorithm,
            g=g,
            index=index,
            max_entries=max_entries,
            bulk=bulk,
            metric=metric,
            partitions_per_axis=partitions_per_axis,
            deadline_at=deadline_at,
            data_plane=plane,
            dataset_ref=shared.ref if shared is not None else None,
        )
        if shared is not None:
            spec._shared = shared
        state = spec.build_state()
        if sink is None:
            sink = CollectSink(id_width=width_for(len(spec.points)))
        stats = sink.stats
        buffer = state.make_buffer(sink, stats)
        if config is None:
            config = SupervisorConfig(workers=workers, task_timeout=task_timeout)
        scheduler = WorkScheduler(
            state,
            sink,
            config,
            stats=stats,
            buffer=buffer,
            budget=budget,
            fault=fault,
            skip_poisoned=True,
            breaker=breaker,
            cancel=cancel,
        )

        def finish() -> JoinResult:
            if buffer is not None:
                buffer.flush()
            elapsed = time.perf_counter() - start
            stats.compute_time += elapsed - (stats.write_time - write_time_before)
            return JoinResult.from_sink(
                sink,
                eps=spec.eps,
                algorithm=spec.label(),
                g=spec.g if spec.compact else None,
                index_name=state.index_name,
            )

        write_time_before = stats.write_time
        start = time.perf_counter()
        try:
            scheduler.run()
        except (BudgetExceededError, PoisonTaskError) as exc:
            exc.partial = finish()
            raise
        return finish()
    finally:
        if owned is not None:
            owned.close()
