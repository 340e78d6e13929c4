"""Overload-survivable join serving.

:class:`JoinService` turns the library into a serving layer that stays
predictable when requests arrive faster than it can drain them.  Four
mechanisms compose:

* **Bounded admission** — at most ``queue_depth`` requests wait; beyond
  that, :meth:`JoinService.submit` raises
  :class:`~repro.errors.AdmissionRejectedError` (backpressure with a
  ``Retry-After`` hint) instead of queueing unboundedly.  Memory and
  latency stay bounded by construction.
* **End-to-end deadlines** — a request's deadline is armed as an
  *absolute* timestamp at admission (queue wait spends it) and
  propagates down: it becomes the run's
  :class:`~repro.resilience.budget.Budget`, which a pool worker
  inherits and checks itself, caps the time the parent gives that
  worker before killing it, and trims
  :class:`~repro.resilience.sinks.RetryingSink` backoff sleeps.  Expiry
  cancels in-flight work cooperatively.
* **Circuit breaker** — a :class:`~repro.service.breaker.CircuitBreaker`
  guards the worker pool.  An open circuit fails requests fast with
  :class:`~repro.errors.CircuitOpenError` instead of feeding a
  struggling pool.  Served joins write to an in-memory sink, so no
  breaker guards output storage.
* **Brownout ladder** — under queue pressure the service degrades
  rather than falling over: past ``degrade_threshold`` occupancy, and
  for any admitted request that runs over its deadline or byte budget,
  it serves the paper's analytic estimator answer marked
  ``degraded=True``; only a full queue sheds.

Every request ends in **exactly one** typed outcome — ``admitted``
(served exactly, byte-identical to an offline run), ``degraded``,
``shed`` or ``breaker_open`` — and each increments the matching
``repro_service_*_total`` counter; ``scripts/verify_overload.py`` audits
that partition under a seeded request storm.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.core.results import JoinResult
from repro.errors import (
    AdmissionRejectedError,
    BudgetExceededError,
    CircuitOpenError,
    InvalidInputError,
    ReproError,
    WorkerPoolError,
    validate_eps,
    validate_points,
)
from repro.geometry.metrics import get_metric
from repro.index.base import SpatialIndex
from repro.io.writer import width_for
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.parallel import parallel_join
from repro.parallel.tasks import FAMILIES
from repro.resilience.budget import Budget
from repro.service.breaker import CircuitBreaker
from repro.service.cache import ResultCache
from repro.stats.counters import JoinStats

__all__ = ["JoinRequest", "RequestOutcome", "ServiceConfig", "JoinService"]

logger = get_logger("service")

#: Terminal request states; each request lands in exactly one.
OUTCOMES = ("admitted", "degraded", "shed", "breaker_open", "failed")


@dataclass
class JoinRequest:
    """One join request as the serving layer sees it."""

    points: np.ndarray
    eps: float
    algorithm: str = "csj"
    g: int = 10
    metric: object = None
    #: Per-request deadline in seconds, measured from *submission* —
    #: queue wait consumes it.  ``None`` falls back to the service
    #: default; both ``None`` means no deadline.
    deadline_seconds: Optional[float] = None
    #: Per-request output byte cap (over it -> degraded estimator answer).
    max_output_bytes: Optional[int] = None
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        self.points = validate_points(self.points)
        self.eps = validate_eps(self.eps)


@dataclass
class RequestOutcome:
    """The single typed outcome of one request."""

    request_id: str
    #: One of :data:`OUTCOMES`.
    status: str
    result: Optional[JoinResult] = None
    error: Optional[BaseException] = None
    #: ``Retry-After`` hint in seconds (shed / breaker-open outcomes).
    retry_after: Optional[float] = None
    #: Deadline slack observed when execution started (None = no deadline).
    deadline_slack: Optional[float] = None
    #: Queue occupancy [0, 1] observed at admission.
    occupancy: float = 0.0

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"


class _Ticket:
    """Caller-side handle for an async submission."""

    __slots__ = ("_done", "outcome")

    def __init__(self) -> None:
        self._done = threading.Event()
        self.outcome: Optional[RequestOutcome] = None

    def _resolve(self, outcome: RequestOutcome) -> None:
        self.outcome = outcome
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> RequestOutcome:
        if not self._done.wait(timeout):
            raise TimeoutError("request still in flight")
        assert self.outcome is not None
        return self.outcome


@dataclass
class ServiceConfig:
    """Tunables of the serving layer."""

    #: Admission queue bound (waiting requests; executing ones excluded).
    queue_depth: int = 8
    #: Concurrent executor threads draining the queue.
    executors: int = 1
    #: Default per-request deadline (seconds); ``None`` = no deadline.
    default_deadline: Optional[float] = None
    #: 0 or 1 runs a miss in the executor thread; any value above 1 runs
    #: each miss whole in its own forked worker, so at most ``executors``
    #: workers run at once.
    workers: int = 1
    #: Seconds a pool worker gets per attempt before it is killed and
    #: the miss retried (capped at the deadline slack); ``None`` = no cap.
    task_timeout: Optional[float] = None
    #: Queue occupancy in [0, 1] where requests get estimator answers.
    degrade_threshold: float = 0.75
    #: Result-cache byte budget; 0 disables caching entirely.
    cache_bytes: int = 0
    #: Result-cache entry bound (only meaningful with ``cache_bytes > 0``).
    cache_entries: int = 128
    #: Under brownout, serve a slightly-stale cached result (marked
    #: ``stale=True``) before falling back to the analytic estimator.
    serve_stale: bool = True
    #: Consecutive pool failures before the circuit opens.
    breaker_threshold: int = 3
    #: Decorrelated-jitter cooldown bounds for breaker probes (seconds).
    breaker_cooldown_base: float = 0.25
    breaker_cooldown_max: float = 30.0
    #: Seed for breaker cooldown jitter (timing only, never output).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.executors < 1:
            raise ValueError(f"executors must be >= 1, got {self.executors}")
        if self.workers < 0:
            raise InvalidInputError(f"workers must be >= 0, got {self.workers}")
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise InvalidInputError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if not 0.0 <= self.degrade_threshold <= 1.0:
            raise ValueError(
                f"need 0 <= degrade_threshold <= 1, got {self.degrade_threshold}"
            )
        if self.cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {self.cache_bytes}")
        if self.cache_entries < 1:
            raise ValueError(f"cache_entries must be >= 1, got {self.cache_entries}")


class JoinService:
    """Bounded-queue join serving with brownout and circuit breaking.

    Use as a context manager; :meth:`close` drains the executors.
    ``chaos`` (an :class:`~repro.resilience.chaos.OverloadInjector`)
    injects deterministic pre-execution stalls and worker-pool failures
    for overload testing.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, chaos=None):
        self.config = config or ServiceConfig()
        self.chaos = chaos
        #: ε-keyed result cache; ``None`` when disabled (cache_bytes=0).
        self.cache: Optional[ResultCache] = (
            ResultCache(
                max_bytes=self.config.cache_bytes,
                max_entries=self.config.cache_entries,
            )
            if self.config.cache_bytes > 0
            else None
        )
        self.pool_breaker = CircuitBreaker(
            "worker-pool",
            failure_threshold=self.config.breaker_threshold,
            cooldown_base=self.config.breaker_cooldown_base,
            cooldown_max=self.config.breaker_cooldown_max,
            seed=self.config.seed,
        )
        self._lock = threading.Lock()
        #: Entries are ``(request, ticket, budget, occupancy, probe)``;
        #: ``probe`` marks a half-open slot consumed at admission that
        #: must be resolved on every terminal path of the request.
        self._queue: deque[
            tuple[JoinRequest, _Ticket, Budget, float, bool]
        ] = deque()
        self._available = threading.Semaphore(0)
        self._closed = False
        self._seq = 0
        #: Completed outcomes in completion order (audit trail).
        self.outcomes: list[RequestOutcome] = []
        #: Trees registered for cross-request reuse (identity-matched).
        self._registered: list[SpatialIndex] = []
        #: High-water mark of the waiting queue (the gate asserts
        #: ``peak_queue <= config.queue_depth``).
        self.peak_queue = 0
        #: EWMA of recent service times, feeding Retry-After hints.
        self._ewma_service = 0.05
        self._threads = [
            threading.Thread(target=self._executor_loop, daemon=True, name=f"join-exec-{i}")
            for i in range(self.config.executors)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, request: JoinRequest) -> _Ticket:
        """Admit a request, or fail fast with a typed, countable outcome.

        Raises :class:`~repro.errors.AdmissionRejectedError` when the
        bounded queue is full (the request is also recorded as a
        ``shed`` outcome) and :class:`~repro.errors.CircuitOpenError`
        when the worker-pool circuit is open (a ``breaker_open``
        outcome).  Otherwise returns a ticket whose :meth:`_Ticket.wait`
        yields the request's single :class:`RequestOutcome`.
        """
        registry = get_registry()
        with self._lock:
            if self._closed:
                raise RuntimeError("JoinService is closed")
            if request.request_id is None:
                request.request_id = f"r{self._seq}"
            self._seq += 1
            queue_len = len(self._queue)
            occupancy = queue_len / self.config.queue_depth

            if queue_len >= self.config.queue_depth:
                retry = max(0.01, (queue_len + 1) * self._ewma_service)
                outcome = RequestOutcome(
                    request.request_id,
                    "shed",
                    error=AdmissionRejectedError(
                        self.config.queue_depth, retry_after=retry
                    ),
                    retry_after=retry,
                    occupancy=occupancy,
                )
                outcome.error.outcome = outcome
                self._record(outcome, registry)
                raise outcome.error

            # After the queue check so a shed request never burns a
            # half-open probe slot; ``acquire`` drives open -> half_open
            # once the cooldown expires and reports whether this request
            # now owns the probe slot it must later resolve.
            allowed, probe = self.pool_breaker.acquire()
            if not allowed:
                retry = self.pool_breaker.retry_after()
                outcome = RequestOutcome(
                    request.request_id,
                    "breaker_open",
                    error=CircuitOpenError("worker-pool", retry_after=retry),
                    retry_after=retry,
                    occupancy=occupancy,
                )
                outcome.error.outcome = outcome
                self._record(outcome, registry)
                raise outcome.error

            deadline = (
                request.deadline_seconds
                if request.deadline_seconds is not None
                else self.config.default_deadline
            )
            budget = Budget(
                max_output_bytes=request.max_output_bytes, check_every=16
            )
            if deadline is not None:
                # Absolute, armed at admission: queue wait spends it.
                budget.arm_deadline(deadline)
            ticket = _Ticket()
            self._queue.append((request, ticket, budget, occupancy, probe))
            self.peak_queue = max(self.peak_queue, len(self._queue))
            registry.service_pressure(
                len(self._queue), self.config.queue_depth, None
            )
        self._available.release()
        return ticket

    def serve(self, requests) -> list[RequestOutcome]:
        """Submit a batch, absorbing typed rejections into outcomes.

        Returns one outcome per request, in input order.
        """
        entries: list[Union[_Ticket, RequestOutcome]] = []
        for request in requests:
            try:
                entries.append(self.submit(request))
            except (AdmissionRejectedError, CircuitOpenError) as exc:
                # submit() recorded the typed outcome and attached it to
                # the exception — no audit-trail scan, so caller-supplied
                # duplicate request ids cannot alias outcomes.
                entries.append(exc.outcome)
        return [
            entry.wait() if isinstance(entry, _Ticket) else entry
            for entry in entries
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _executor_loop(self) -> None:
        while True:
            self._available.acquire()
            with self._lock:
                if self._closed and not self._queue:
                    return
                if not self._queue:
                    continue
                request, ticket, budget, occupancy, probe = self._queue.popleft()
                queue_len = len(self._queue)
                pressure = queue_len / self.config.queue_depth
            started = time.perf_counter()
            try:
                outcome = self._execute(request, budget, occupancy, pressure)
            except BaseException as exc:  # noqa: BLE001 - ticket must resolve
                outcome = RequestOutcome(
                    request.request_id, "failed", error=exc, occupancy=occupancy
                )
            if probe:
                # This request owned the half-open probe slot.  If it
                # actually exercised the pool, record_success /
                # record_failure already moved the breaker out of
                # half-open and this release is a no-op; on every other
                # terminal path (degraded, budget breach, failed) the
                # slot is returned so the circuit can never wedge
                # half-open with zero probes left.
                self.pool_breaker.release_probe()
            elapsed = time.perf_counter() - started
            with self._lock:
                self._ewma_service = 0.8 * self._ewma_service + 0.2 * elapsed
                self._record(outcome, get_registry())
            ticket._resolve(outcome)

    def _execute(
        self,
        request: JoinRequest,
        budget: Budget,
        occupancy: float,
        pressure: float,
    ) -> RequestOutcome:
        registry = get_registry()
        slack = budget.remaining_seconds()
        registry.service_pressure(
            int(pressure * self.config.queue_depth),
            self.config.queue_depth,
            slack,
        )
        # Cache fast path: an exact hit needs no tree descent and no
        # ladder — it is the cold run's bytes, served again.  Checked
        # before the estimator rung because a hit *relieves* pressure.
        cache_key = None
        if self.cache is not None:
            cache_key = ResultCache.key_for(
                request.points,
                request.eps,
                request.g,
                request.algorithm,
                request.metric,
            )
            hit = self.cache.get(cache_key)
            if hit is not None:
                return RequestOutcome(
                    request.request_id,
                    "admitted",
                    result=hit,
                    deadline_slack=slack,
                    occupancy=occupancy,
                )
        # Estimator rung: an expired-or-hopeless deadline, or severe queue
        # pressure, goes straight to the estimator answer.
        if (slack is not None and slack <= 0) or (
            pressure >= self.config.degrade_threshold
        ):
            return self._degrade(request, occupancy, slack, JoinStats())

        try:
            if self.chaos is not None:
                self.chaos.before_execute(request.request_id)
            result = self._run_join(request, budget)
            # Serial runs never touch the breaker; report pool health
            # here so a half-open circuit can close again.
            self.pool_breaker.record_success()
        except BudgetExceededError as exc:
            # Admitted but over budget (deadline or bytes): degrade.
            partial_stats = (
                exc.partial.stats if exc.partial is not None else JoinStats()
            )
            return self._degrade(request, occupancy, slack, partial_stats)
        except CircuitOpenError as exc:
            return RequestOutcome(
                request.request_id,
                "breaker_open",
                error=exc,
                retry_after=exc.retry_after,
                deadline_slack=slack,
                occupancy=occupancy,
            )
        except WorkerPoolError:
            # A failing pool browns the request out: degraded beats dead.
            self.pool_breaker.record_failure()
            return self._degrade(request, occupancy, slack, JoinStats())
        except ReproError as exc:
            return RequestOutcome(
                request.request_id, "failed", error=exc,
                deadline_slack=slack, occupancy=occupancy,
            )
        if result.estimated:
            # The algorithm's own crash protocol fired (byte budget):
            # the answer is an estimate, so the outcome is degraded.
            result.degraded = True
            return RequestOutcome(
                request.request_id,
                "degraded",
                result=result,
                deadline_slack=slack,
                occupancy=occupancy,
            )
        # Only exact runs reach here: fold their counters into the
        # repro_join_* metrics (a later cache hit leaves them untouched,
        # which is how tests assert the descent was skipped) and retain
        # the result for future hits.
        registry.record_join_stats(result.stats)
        if self.cache is not None and cache_key is not None:
            self.cache.put(cache_key, result)
        return RequestOutcome(
            request.request_id,
            "admitted",
            result=result,
            deadline_slack=slack,
            occupancy=occupancy,
        )

    # ------------------------------------------------------------------
    # Dataset registration (cross-request index reuse)
    # ------------------------------------------------------------------
    def register_dataset(
        self, points: np.ndarray, metric: object = None
    ) -> SpatialIndex:
        """Build and pack one tree over ``points`` now, for every later request.

        The tree is the one a request would build (an STR-loaded R*-tree
        of fanout 64), so registration saves the build and never changes
        an answer.  A tree-join request whose ``points`` is this same
        array and whose metric equals the tree's runs over the registered
        tree, on the serial and the pool path alike, instead of building
        its own; any other request takes the ordinary path.  Returns the
        tree (``tree.points`` is the registered array); the service drops
        it on :meth:`close`.
        """
        from repro.api import build_index  # deferred: api imports service
        from repro.index.packed import pack_index

        tree = build_index(points, metric=metric, bulk="str")
        pack_index(tree)  # memoized on the tree: requests reuse the pack
        with self._lock:
            if self._closed:
                raise RuntimeError("JoinService is closed")
            self._registered.append(tree)
        logger.info(
            "dataset registered",
            extra={"n": int(tree.size), "index": type(tree).name},
        )
        return tree

    def _find_registered(self, request: JoinRequest) -> Optional[SpatialIndex]:
        """The registered tree for a tree-join ``request``, if any.

        Matches the request's array by identity and its metric by
        equality, so a request never runs under another metric's tree.
        """
        family = FAMILIES.get(str(request.algorithm).lower(), (None, None))[0]
        if family != "tree":
            return None
        metric = get_metric(request.metric)
        with self._lock:
            for tree in self._registered:
                if tree.points is request.points and tree.metric == metric:
                    return tree
        return None

    def _run_join(self, request: JoinRequest, budget: Budget) -> JoinResult:
        from repro.api import similarity_join  # deferred: api imports service

        index = self._find_registered(request) or "rstar"
        if self.config.workers > 1:
            return parallel_join(
                request.points,
                request.eps,
                algorithm=request.algorithm,
                g=request.g,
                index=index,
                metric=request.metric,
                budget=budget,
                task_timeout=self.config.task_timeout,
                breaker=self.pool_breaker,
            )
        return similarity_join(
            request.points,
            request.eps,
            algorithm=request.algorithm,
            g=request.g,
            index=index,
            metric=request.metric,
            budget=budget,
        )

    def _degrade(
        self,
        request: JoinRequest,
        occupancy: float,
        slack: Optional[float],
        partial_stats: JoinStats,
    ) -> RequestOutcome:
        """Brown the request out: stale cached result, else the estimator.

        A retained cached result for the same parameters — even for an
        older dataset state — is a recently-true exact answer, which
        beats the analytic estimate; it slots in as the first fallback
        and is marked both ``stale`` and ``degraded``.
        """
        from repro.experiments.estimate import estimate_ssj  # deferred

        if self.cache is not None and self.config.serve_stale:
            stale = self.cache.get_stale(
                request.eps, request.g, request.algorithm, request.metric
            )
            if stale is not None:
                stale.degraded = True
                return RequestOutcome(
                    request.request_id,
                    "degraded",
                    result=stale,
                    deadline_slack=slack,
                    occupancy=occupancy,
                )

        id_width = width_for(len(request.points))
        estimate = estimate_ssj(
            request.points, request.eps, id_width, metric=request.metric
        )
        stats = JoinStats()
        stats.links_emitted = estimate.links
        stats.bytes_written = estimate.output_bytes
        # Keep honest measurements from any partial run before the breach.
        stats.compute_time = partial_stats.compute_time
        stats.write_time = partial_stats.write_time
        stats.distance_computations = partial_stats.distance_computations
        result = JoinResult(
            eps=request.eps,
            algorithm=request.algorithm,
            stats=stats,
            estimated=True,
            degraded=True,
        )
        return RequestOutcome(
            request.request_id,
            "degraded",
            result=result,
            deadline_slack=slack,
            occupancy=occupancy,
        )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record(self, outcome: RequestOutcome, registry) -> None:
        # Caller holds the lock (submit) or takes it (executor loop).
        self.outcomes.append(outcome)
        registry.service_outcome(outcome.status)
        logger.info(
            "request finished",
            extra={
                "request": outcome.request_id,
                "status": outcome.status,
                "occupancy": round(outcome.occupancy, 3),
                "retry_after": outcome.retry_after,
            },
        )

    def counts(self) -> dict[str, int]:
        """Terminal-outcome histogram of everything served so far."""
        out = {status: 0 for status in OUTCOMES}
        with self._lock:
            for outcome in self.outcomes:
                out[outcome.status] += 1
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the service.  ``drain=False`` sheds everything queued."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                registry = get_registry()
                while self._queue:
                    request, ticket, _, occupancy, probe = self._queue.popleft()
                    if probe:
                        self.pool_breaker.release_probe()
                    outcome = RequestOutcome(
                        request.request_id,
                        "shed",
                        error=AdmissionRejectedError(
                            self.config.queue_depth, retry_after=0.0,
                            message="service shutting down",
                        ),
                        retry_after=0.0,
                        occupancy=occupancy,
                    )
                    self._record(outcome, registry)
                    ticket._resolve(outcome)
        # Wake every executor so it can observe the closed flag.
        for _ in self._threads:
            self._available.release()
        for t in self._threads:
            t.join(timeout=60.0)
        with self._lock:
            self._registered = []
        get_registry().service_pressure(0, self.config.queue_depth, None)

    def __enter__(self) -> "JoinService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # Valid algorithms for requests mirror the parallel families.
    ALGORITHMS = tuple(FAMILIES)
