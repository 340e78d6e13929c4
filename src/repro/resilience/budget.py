"""Cooperative resource guards for join runs.

A :class:`Budget` bounds a join along up to three dimensions — wall-clock
deadline, output bytes, emitted groups — and is checked *cooperatively*:
the algorithms call :meth:`Budget.check` once per tree node, node pair,
grid cell or partition.  The check is deliberately cheap (an attribute
test and a modulo on the fast path) so an unlimited budget costs nothing
measurable; the clock is only read every ``check_every`` calls.

On breach the guard raises
:class:`~repro.errors.BudgetExceededError`.  Callers with a fallback
degrade gracefully instead of propagating — SSJ over its byte cap
switches to the analytic estimator (the paper's crash protocol,
Section VI) — while callers without one flush what they have so the
partial output stays valid, attach it to the exception, and re-raise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import BudgetExceededError
from repro.stats.counters import JoinStats

__all__ = ["Budget"]


@dataclass
class Budget:
    """Resource limits for one join run.

    Any limit left ``None`` is unenforced; a default-constructed budget
    never trips.  Counter limits (bytes, groups) are plain integer
    comparisons and are evaluated on *every* :meth:`check` call — a small
    tree with huge leaves must not slip past the cap between sparse
    checks.  Only the deadline clock read is amortised: it happens every
    ``check_every``-th call.

    >>> b = Budget(max_output_bytes=10_000)
    >>> b.start()
    >>> b.check(JoinStats())  # far under budget: no-op
    """

    #: Wall-clock limit in seconds, measured from :meth:`start`.
    deadline_seconds: Optional[float] = None
    #: Cap on ``stats.bytes_written``.
    max_output_bytes: Optional[int] = None
    #: Cap on ``stats.groups_emitted``.
    max_groups: Optional[int] = None
    #: Read the deadline clock every this many :meth:`check` calls.
    check_every: int = 64
    #: Absolute request deadline as a ``time.monotonic()`` timestamp.
    #: Unlike :attr:`deadline_seconds` it is *not* reset by :meth:`start`,
    #: so it survives retries, kill-and-resume cycles and forked worker
    #: processes on the same host (CLOCK_MONOTONIC is system-wide on
    #: Linux).  Set it with :meth:`arm_deadline`.
    deadline_at: Optional[float] = None

    _started_at: Optional[float] = field(default=None, repr=False, compare=False)
    _calls: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")

    @property
    def active(self) -> bool:
        """Whether any limit is set."""
        return (
            self.deadline_seconds is not None
            or self.deadline_at is not None
            or self.max_output_bytes is not None
            or self.max_groups is not None
        )

    def start(self) -> "Budget":
        """Start (or restart) the deadline clock; returns ``self``.

        Only the *relative* deadline clock restarts; an armed absolute
        :attr:`deadline_at` keeps binding across restarts.
        """
        self._started_at = time.monotonic()
        self._calls = 0
        return self

    def arm_deadline(self, seconds: Optional[float] = None) -> "Budget":
        """Pin the deadline to an absolute point ``seconds`` from now.

        With no argument, uses :attr:`deadline_seconds`.  After arming,
        the deadline is measured from *this* moment — queue wait, retries
        and resumed runs all consume the same allowance — and
        :meth:`start` cannot extend it.  Returns ``self``.
        """
        span = self.deadline_seconds if seconds is None else float(seconds)
        if span is not None:
            self.deadline_at = time.monotonic() + span
            if self.deadline_seconds is None:
                self.deadline_seconds = span
        return self

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 if never started)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def remaining_seconds(self) -> Optional[float]:
        """Seconds left before the deadline, or ``None`` if unlimited.

        Composes the relative and absolute deadlines: the tighter bound
        wins.  Reading it starts the relative clock if needed, so an
        unstarted budget cannot report a full allowance forever.
        """
        remaining: Optional[float] = None
        if self.deadline_seconds is not None:
            if self._started_at is None:
                self.start()
            remaining = self.deadline_seconds - self.elapsed()
        if self.deadline_at is not None:
            absolute = self.deadline_at - time.monotonic()
            remaining = absolute if remaining is None else min(remaining, absolute)
        return remaining

    def cap_timeout(self, timeout: Optional[float]) -> Optional[float]:
        """Cap a timeout at the remaining deadline slack.

        This is how a request deadline propagates into the time a pool
        worker gets before the parent kills it
        (:func:`~repro.parallel.parallel_join`) and into
        :class:`~repro.resilience.sinks.RetryingSink` sleep caps: no
        subordinate wait may outlive the request.  Returns
        ``timeout`` unchanged when no deadline is set; never returns a
        negative value.
        """
        remaining = self.remaining_seconds()
        if remaining is None:
            return timeout
        remaining = max(0.0, remaining)
        if timeout is None:
            return remaining
        return min(float(timeout), remaining)

    def check(self, stats: JoinStats) -> None:
        """Cooperative checkpoint: cheap on the fast path, raises on breach.

        Counters are compared every call; the wall clock is only read on
        the first call and every ``check_every``-th call after it.
        """
        if (
            self.max_output_bytes is not None
            and stats.bytes_written > self.max_output_bytes
        ):
            raise BudgetExceededError(
                "output_bytes", self.max_output_bytes, stats.bytes_written
            )
        if self.max_groups is not None and stats.groups_emitted > self.max_groups:
            raise BudgetExceededError("groups", self.max_groups, stats.groups_emitted)
        if self.deadline_seconds is not None or self.deadline_at is not None:
            calls = self._calls
            self._calls = calls + 1
            if calls % self.check_every == 0:
                self._check_deadline()

    def enforce(self, stats: JoinStats) -> None:
        """Evaluate every limit now, regardless of the clock cadence."""
        if (
            self.max_output_bytes is not None
            and stats.bytes_written > self.max_output_bytes
        ):
            raise BudgetExceededError(
                "output_bytes", self.max_output_bytes, stats.bytes_written
            )
        if self.max_groups is not None and stats.groups_emitted > self.max_groups:
            raise BudgetExceededError("groups", self.max_groups, stats.groups_emitted)
        if self.deadline_seconds is not None or self.deadline_at is not None:
            self._check_deadline()

    def _check_deadline(self) -> None:
        if self._started_at is None:
            self.start()
        if self.deadline_at is not None:
            now = time.monotonic()
            if now > self.deadline_at:
                limit = (
                    self.deadline_seconds
                    if self.deadline_seconds is not None
                    else 0.0
                )
                raise BudgetExceededError(
                    "deadline", limit, limit + (now - self.deadline_at)
                )
        if self.deadline_seconds is not None:
            elapsed = self.elapsed()
            if elapsed > self.deadline_seconds:
                raise BudgetExceededError("deadline", self.deadline_seconds, elapsed)
