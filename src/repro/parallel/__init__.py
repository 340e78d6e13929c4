"""Supervised join execution in a forked worker process.

Public entry point: :func:`parallel_join`.  It runs one join whole in
one supervised, forked worker: the parent builds the join's
:class:`TaskState`, forks a worker over it, and the worker runs the
serial join loop and sends back the collected result.  The pool exists
to isolate served misses (:class:`~repro.service.JoinService` with
``workers`` above 1): a worker that crashes, hangs or keeps failing
costs its request, never the service.  Output is the serial run's.
See :mod:`repro.parallel.supervisor` for one attempt and
:func:`parallel_join` for the failure policy.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.results import JoinResult
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    InvalidInputError,
    PoisonTaskError,
)
from repro.index.base import SpatialIndex
from repro.obs.logging import get_logger
from repro.parallel.supervisor import MAX_ATTEMPTS, mp_context, run_attempt
from repro.parallel.tasks import FAMILIES, JoinSpec, TaskState
from repro.resilience.budget import Budget
from repro.resilience.chaos import FlakyWorker
from repro.stats.counters import JoinStats

__all__ = ["parallel_join", "JoinSpec", "TaskState", "FAMILIES"]

logger = get_logger("parallel")


def parallel_join(
    points: np.ndarray,
    eps: float,
    algorithm: str = "csj",
    g: int = 10,
    index: Union[str, SpatialIndex] = "rstar",
    metric: object = None,
    max_entries: int = 64,
    bulk: Optional[str] = "str",
    partitions_per_axis: Optional[int] = None,
    budget: Optional[Budget] = None,
    task_timeout: Optional[float] = None,
    fault: Optional[FlakyWorker] = None,
    breaker: object = None,
) -> JoinResult:
    """Run a similarity self-join whole in one supervised, forked worker.

    Parameters mirror :func:`repro.api.similarity_join`; the result is
    collected (links, groups and counters equal the serial run's).
    ``index`` may be a prebuilt index, which brings its own points and
    metric to the tree joins, as on the serial path.  ``task_timeout``
    (seconds, positive) bounds each attempt; ``fault`` injects
    deterministic worker failures for testing.  ``breaker`` (a
    :class:`~repro.service.CircuitBreaker`) guards the pool: worker
    deaths and kills feed it, and an open circuit raises
    :class:`~repro.errors.CircuitOpenError`.

    The parent builds the join's :class:`TaskState` once; every attempt
    forks a worker that inherits it, so nothing is pickled or rebuilt.
    Where the ``fork`` start method does not exist the call raises
    :class:`~repro.errors.WorkerPoolError` before any process starts.

    Failure policy, per request: a worker that dies, is killed at the
    timeout, stops heartbeating or reports an exception fails its
    attempt; a failed attempt is retried once on a fresh fork, and a
    second failure raises :class:`~repro.errors.PoisonTaskError`.

    Budget: the worker checks the ``budget`` it inherited (an armed
    deadline is an absolute ``time.monotonic()`` timestamp, which parent
    and child read alike) and reports a breach with its valid partial
    prefix; the parent raises it as
    :class:`~repro.errors.BudgetExceededError` with ``partial``
    attached.  The parent also kills the worker at
    ``budget.cap_timeout(task_timeout)``; when that kill comes after
    the deadline has passed, the breach is raised at once, not retried,
    with an empty partial.
    """
    if task_timeout is not None and not task_timeout > 0:
        raise InvalidInputError(f"task_timeout must be positive, got {task_timeout}")
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
    ctx = mp_context()
    # Health check only: when the serving layer drives this call it
    # already holds the half-open probe slot, so the gate must refuse an
    # open circuit without consuming a second probe.
    if breaker is not None and not breaker.allow(consume=False):
        raise CircuitOpenError("worker-pool", retry_after=breaker.retry_after())
    state = spec.build_state()
    if budget is not None:
        budget.start()
    last_error = None
    for attempt in range(MAX_ATTEMPTS):
        _enforce_deadline(budget, spec, state)
        timeout = task_timeout if budget is None else budget.cap_timeout(task_timeout)
        kind, *payload = run_attempt(ctx, state, budget, timeout, fault, attempt)
        if kind == "ok":
            if breaker is not None:
                breaker.record_success()
            return payload[0]
        if kind == "breach":
            exc_kind, limit, actual, message, partial = payload
            exc = BudgetExceededError(exc_kind, limit, actual, message)
            exc.partial = partial
            raise exc
        if kind == "killed":
            _enforce_deadline(budget, spec, state)
        last_error = payload[0]
        logger.warning(
            "worker attempt failed",
            extra={"attempt": attempt, "outcome": kind, "reason": last_error},
        )
        if kind != "err" and breaker is not None:
            breaker.record_failure()
            if breaker.state == "open":
                raise CircuitOpenError(
                    "worker-pool", retry_after=breaker.retry_after()
                )
    raise PoisonTaskError(MAX_ATTEMPTS, last_error)


def _enforce_deadline(
    budget: Optional[Budget], spec: JoinSpec, state: TaskState
) -> None:
    """Raise the deadline breach, with an empty valid partial, once it passed.

    Checked before every fork and after a kill: a kill that comes after
    the deadline enforced it, so it is a breach, not a failed attempt.
    """
    if budget is None:
        return
    try:
        budget.enforce(JoinStats())
    except BudgetExceededError as exc:
        exc.partial = JoinResult(
            eps=spec.eps,
            algorithm=spec.label(),
            g=spec.g if spec.compact else None,
            index_name=state.index_name,
        )
        raise
