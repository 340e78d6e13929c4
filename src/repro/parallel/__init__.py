"""Supervised parallel join execution.

Public entry point: :func:`parallel_join` — the multiprocessing
counterpart of :func:`repro.api.similarity_join`.  The join's canonical
work-unit sequence is executed across a supervised worker pool
(heartbeats, per-task timeouts, automatic respawn, bounded retry,
poison-task quarantine) and merged back in canonical order, so the
output is byte-identical to the serial run for any worker count.  See
:mod:`repro.parallel.tasks` for the execution model and
:mod:`repro.parallel.scheduler` for the failure policy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import (
    BudgetExceededError,
    InvalidInputError,
    PoisonTaskError,
    validate_execution,
)
from repro.io.writer import width_for
from repro.parallel.scheduler import WorkScheduler
from repro.parallel.supervisor import Supervisor
from repro.parallel.tasks import FAMILIES, JoinSpec, TaskState
from repro.resilience.budget import Budget
from repro.resilience.chaos import FlakyWorker

__all__ = [
    "parallel_join",
    "JoinSpec",
    "TaskState",
    "FAMILIES",
    "Supervisor",
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
    fault: Optional[FlakyWorker] = None,
    breaker: object = None,
    shared: Optional["SharedDataset"] = None,
) -> JoinResult:
    """Run a similarity self-join across a supervised worker pool.

    Parameters mirror :func:`repro.api.similarity_join`; additionally
    ``workers`` (at least 1) sets the pool size, ``task_timeout`` the
    per-task wall-clock limit, and ``fault`` injects deterministic
    worker failures for testing.  ``breaker`` (a
    :class:`~repro.service.CircuitBreaker`) guards the pool: worker
    deaths feed it and an open circuit aborts with
    :class:`~repro.errors.CircuitOpenError`.

    Deadline propagation: a ``budget`` with a deadline binds the whole
    pool.  The scheduler starts its clock, caps the per-task timeout at
    the remaining slack, and shares the deadline with the workers, which
    refuse tasks once it passes, even mid-queue.

    Where POSIX shared memory works, workers map one shared copy of
    ``points`` (and, for tree joins, of the packed index) instead of
    receiving a pickled array; the plane never affects output bytes.
    ``shared`` passes a pre-published
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
    validate_execution(workers, task_timeout)
    if workers < 1:
        raise InvalidInputError(f"parallel_join needs workers >= 1, got {workers}")
    from repro.parallel.shm import share_dataset

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
    )
    owned = share_dataset(spec, shared)
    try:
        state = spec.build_state()
        if sink is None:
            sink = CollectSink(id_width=width_for(len(spec.points)))
        stats = sink.stats
        buffer = state.make_buffer(sink, stats)
        scheduler = WorkScheduler(
            state,
            sink,
            workers,
            stats=stats,
            task_timeout=task_timeout,
            buffer=buffer,
            budget=budget,
            fault=fault,
            breaker=breaker,
        )

        def finish() -> JoinResult:
            if buffer is not None:
                buffer.flush()
            stats.charge_compute(mark)
            return JoinResult.from_sink(
                sink,
                eps=spec.eps,
                algorithm=spec.label(),
                g=spec.g if spec.compact else None,
                index_name=state.index_name,
            )

        mark = stats.clock()
        try:
            scheduler.run()
        except (BudgetExceededError, PoisonTaskError) as exc:
            exc.partial = finish()
            raise
        state.charge_walk(stats)
        return finish()
    finally:
        if owned is not None:
            owned.close()
