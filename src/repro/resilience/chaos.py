"""Deterministic fault injection for recovery testing.

Real fault tolerance claims need failures on demand.  This module raises
them *deterministically*: every injected failure comes from a seeded
:class:`FailurePlan`, so a test that proves "run, crash at op 137,
resume, byte-identical output" reproduces exactly under the same seed.

* :class:`FlakySink` wraps any sink and raises ``OSError`` before
  selected write operations — the write never happens, mimicking a full
  disk or yanked volume at the syscall boundary.
* :class:`FlakyIndex` wraps a tree and raises ``OSError`` on selected
  node accesses, mimicking a failed page read while the join descends
  the index.
* :class:`FlakyWorker` injects *worker-level* faults into a pooled
  request: SIGKILL of the worker's own process, a hang, or an
  exception, keyed on the **attempt number** the parent passes, so a
  test picks which attempts of the request fail.

Both wrappers delegate everything else untouched, so a plan with no
scheduled failures is an identity wrapper (tests assert this too).
"""

from __future__ import annotations

import os
import random
import signal
import time
from typing import Iterable, Optional, Sequence

from repro.core.results import JoinSink
from repro.index.base import IndexNode, SpatialIndex

__all__ = [
    "FailurePlan",
    "FlakySink",
    "FlakyIndex",
    "FlakyWorker",
    "OverloadInjector",
]


class FailurePlan:
    """A seeded schedule deciding which operation indices fail.

    An operation fails when its index is in ``fail_at``, or with
    probability ``rate`` drawn from a ``random.Random(seed)`` stream —
    the same seed always yields the same failure sequence.  At most
    ``max_failures`` failures are injected (unlimited when ``None``);
    afterwards the plan is exhausted and everything succeeds, which lets
    a retry loop demonstrably recover.

    ``errno`` puts a specific error number on every injected ``OSError``
    (e.g. ``errno.ENOSPC`` for a full disk), so wrappers that *classify*
    errnos — retry transient ones, fail fast on fatal ones — can be
    driven down either path deterministically.  ``None`` (the default)
    raises the historical errno-less ``OSError``, which classifiers must
    treat as transient.
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.0,
        fail_at: Iterable[int] = (),
        max_failures: Optional[int] = None,
        errno: Optional[int] = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self._rng = random.Random(seed)
        self.rate = rate
        self.fail_at = frozenset(int(i) for i in fail_at)
        self.max_failures = max_failures
        self.errno = errno
        #: Operations observed and failures injected so far.
        self.ops = 0
        self.failures = 0

    def tick(self, what: str = "operation") -> None:
        """Account one operation; raise ``OSError`` if it is scheduled to fail."""
        op = self.ops
        self.ops += 1
        # Draw unconditionally so the random stream position depends only
        # on the op index, not on earlier outcomes.
        roll = self._rng.random() if self.rate > 0.0 else 1.0
        if self.max_failures is not None and self.failures >= self.max_failures:
            return
        if op in self.fail_at or roll < self.rate:
            self.failures += 1
            message = f"injected {what} failure (op {op}, seed plan)"
            if self.errno is not None:
                raise OSError(self.errno, message)
            raise OSError(message)


class FlakyWorker:
    """Deterministic worker-process fault injection, keyed on the attempt.

    :func:`~repro.parallel.parallel_join` forks one worker per attempt
    and passes it the attempt number (0 for the first, 1 for the retry);
    the worker calls :meth:`maybe_fail` before running the join.  Fault
    modes, each a set of attempt numbers:

    * ``kill_at`` — the worker SIGKILLs its own process (a hard crash:
      no exception, no cleanup), so ``kill_at={0}`` kills the first
      attempt only;
    * ``hang_at`` — the worker sleeps ``hang_seconds`` first (exercises
      the request timeout; heartbeats continue);
    * ``error_at`` — the worker raises ``OSError`` (an ordinary failure,
      reported to the parent).
    """

    def __init__(
        self,
        kill_at: Iterable[int] = (),
        hang_at: Iterable[int] = (),
        error_at: Iterable[int] = (),
        hang_seconds: float = 3600.0,
    ):
        self.kill_at = frozenset(int(i) for i in kill_at)
        self.hang_at = frozenset(int(i) for i in hang_at)
        self.error_at = frozenset(int(i) for i in error_at)
        self.hang_seconds = float(hang_seconds)

    def maybe_fail(self, attempt: int) -> None:
        """Inject this attempt's scheduled fault, if any (called in the worker)."""
        if attempt in self.kill_at:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - process dies
        if attempt in self.hang_at:
            time.sleep(self.hang_seconds)
        if attempt in self.error_at:
            raise OSError(f"injected worker failure on attempt {attempt}")


class FlakySink(JoinSink):
    """A sink whose writes fail on a deterministic schedule.

    The failure is raised *before* delegating, so a failed operation
    stores nothing and charges nothing — exactly the semantics a retry
    wrapper or a resumed checkpoint run needs to recover losslessly.
    """

    def __init__(self, inner: JoinSink, plan: Optional[FailurePlan] = None, **plan_kwargs):
        super().__init__(inner.stats, inner.id_width)
        self.inner = inner
        self.plan = plan if plan is not None else FailurePlan(**plan_kwargs)

    def write_link(self, i: int, j: int) -> None:
        self.plan.tick("sink write")
        self.inner.write_link(i, j)

    def write_link_raw(self, i: int, j: int) -> None:
        self.plan.tick("sink write")
        self.inner.write_link_raw(i, j)

    def write_links(self, ids_i: Sequence[int], ids_j: Sequence[int]) -> None:
        self.plan.tick("sink write")
        self.inner.write_links(ids_i, ids_j)

    def write_group(self, ids: Sequence[int]) -> None:
        self.plan.tick("sink write")
        self.inner.write_group(ids)

    def write_group_pair(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> None:
        self.plan.tick("sink write")
        self.inner.write_group_pair(ids_a, ids_b)

    def close(self) -> None:
        # Closing never fails: recovery tests need to release the file.
        self.inner.close()


class _FlakyNode:
    """Node proxy that ticks the failure plan on child/entry access."""

    __slots__ = ("_node", "_plan")

    def __init__(self, node: IndexNode, plan: FailurePlan):
        self._node = node
        self._plan = plan

    @property
    def children(self):
        self._plan.tick("index page read")
        return [_FlakyNode(child, self._plan) for child in self._node.children]

    @property
    def entry_ids(self):
        self._plan.tick("index page read")
        return self._node.entry_ids

    def __getattr__(self, attr: str):
        return getattr(self._node, attr)

    def __repr__(self) -> str:
        return f"FlakyNode({self._node!r})"


class FlakyIndex:
    """A spatial index whose node accesses fail on a deterministic schedule.

    Wraps a built tree; descending through :attr:`root` yields proxy
    nodes that raise ``OSError`` when the plan schedules a failure on a
    ``children`` / ``entry_ids`` access — a simulated failed page read.
    A join reads every page once, when it packs the index
    (:func:`~repro.index.packed.pack_index`).  All other attributes
    (``points``, ``metric``, ``size``, queries) delegate to the wrapped
    tree.
    """

    name = "flaky"
    #: No pack memo: every join re-reads the pages through the proxies.
    _structure_version = None

    def __init__(self, tree: SpatialIndex, plan: Optional[FailurePlan] = None, **plan_kwargs):
        self._tree = tree
        self.plan = plan if plan is not None else FailurePlan(**plan_kwargs)

    @property
    def root(self):
        if self._tree.root is None:
            return None
        return _FlakyNode(self._tree.root, self.plan)

    def __getattr__(self, attr: str):
        return getattr(self._tree, attr)

    def __repr__(self) -> str:
        return f"FlakyIndex({self._tree!r}, failures={self.plan.failures})"


class OverloadInjector:
    """Seeded request storms and dependency brownouts for the serving layer.

    Two roles, both deterministic under one seed:

    * :meth:`storm` builds a request storm — typically sized at a
      multiple of the service's admission capacity — over seeded slices
      of one base dataset, so every storm request is reproducible
      offline (the overload gate reruns each admitted request solo and
      compares bytes).
    * :meth:`before_execute` is the injection hook the
      :class:`~repro.service.JoinService` calls as each request starts
      executing: selected requests stall (a slow dependency browning the
      service out) or raise a worker-pool failure (tripping the pool's
      circuit breaker).  Decisions are fixed per request id when the
      storm is built — re-executions misbehave identically.
    """

    def __init__(
        self,
        seed: int = 0,
        slow_every: int = 0,
        slow_seconds: float = 0.05,
        fail_at: Iterable[int] = (),
        sleep=time.sleep,
    ):
        self.seed = int(seed)
        self.slow_every = int(slow_every)
        self.slow_seconds = float(slow_seconds)
        self.fail_at = frozenset(int(i) for i in fail_at)
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._decisions: dict[str, tuple[str, float]] = {}
        #: Injected events, for test assertions: (request_id, kind).
        self.injected: list[tuple[str, str]] = []

    def storm(
        self,
        points,
        eps: float,
        requests: int = 32,
        algorithm: str = "csj",
        g: int = 10,
        deadline_seconds: Optional[float] = None,
        max_output_bytes: Optional[int] = None,
        min_fraction: float = 0.4,
    ) -> list:
        """Build ``requests`` seeded join requests over slices of ``points``.

        Each request joins a contiguous slice (at least ``min_fraction``
        of the base set) at a jittered query range, so sizes and costs
        vary the way real traffic does while staying byte-reproducible:
        request ``i`` of seed ``s`` is always the same join.
        """
        from repro.service import JoinRequest  # deferred: no import cycle

        n = len(points)
        lo = max(2, int(n * min_fraction))
        out = []
        for i in range(int(requests)):
            size = self._rng.randint(lo, n)
            start = self._rng.randint(0, n - size)
            request_id = f"storm-{self.seed}-{i}"
            out.append(
                JoinRequest(
                    points=points[start : start + size],
                    eps=eps * self._rng.uniform(0.8, 1.2),
                    algorithm=algorithm,
                    g=g,
                    deadline_seconds=deadline_seconds,
                    max_output_bytes=max_output_bytes,
                    request_id=request_id,
                )
            )
            if i in self.fail_at:
                self._decisions[request_id] = ("fail", 0.0)
            elif self.slow_every and i % self.slow_every == self.slow_every - 1:
                self._decisions[request_id] = ("slow", self.slow_seconds)
        return out

    def before_execute(self, request_id: Optional[str]) -> None:
        """Injection hook: stall or fail this request, per the plan."""
        decision = self._decisions.get(request_id or "")
        if decision is None:
            return
        kind, value = decision
        if kind == "slow":
            self.injected.append((request_id, "slow"))
            self._sleep(value)
            return
        self.injected.append((request_id, "fail-pool"))
        from repro.errors import WorkerPoolError

        raise WorkerPoolError(
            f"injected worker-pool failure (chaos, request {request_id})"
        )
