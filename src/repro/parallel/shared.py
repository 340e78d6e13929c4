"""Cross-process budget enforcement for the parallel executor.

A :class:`~repro.resilience.budget.Budget` is a single-process object:
its counters live in the parent's ``JoinStats`` and its deadline clock in
the parent's memory.  :class:`SharedCounters` projects the budget-relevant
totals into shared memory so *workers* can refuse work the moment any
limit is breached, instead of burning CPU on tasks whose results the
parent will discard:

* the parent publishes ``bytes_written`` / ``groups_emitted`` after every
  merged task (it is the only writer, so plain unlocked stores suffice);
* the deadline is shared as an *absolute* ``time.monotonic()`` timestamp —
  on Linux ``CLOCK_MONOTONIC`` is system-wide, so parent and children
  compare against the same clock.

Workers poll :meth:`breached` before each task; the authoritative breach
(with the exception and the partial result) is still raised by the
parent from its own ``Budget``.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.resilience.budget import Budget
from repro.stats.counters import JoinStats

__all__ = ["SharedCounters"]


class SharedCounters:
    """Shared-memory mirror of a budget's limits and live totals."""

    def __init__(self, ctx, budget: Budget):
        self.max_output_bytes = budget.max_output_bytes
        self.max_groups = budget.max_groups
        self.deadline_seconds = budget.deadline_seconds
        # An armed absolute deadline composes with the relative one: the
        # tighter bound is what :meth:`start` publishes to workers.
        self.armed_deadline_at = budget.deadline_at
        self._bytes = ctx.Value("q", 0, lock=False)
        self._groups = ctx.Value("q", 0, lock=False)
        # 0.0 = deadline clock not started (or no deadline at all).
        self._deadline_at = ctx.Value("d", 0.0, lock=False)

    @classmethod
    def from_budget(cls, ctx, budget: Optional[Budget]) -> Optional["SharedCounters"]:
        """A shared mirror for an active budget, else ``None``."""
        if budget is None or not budget.active:
            return None
        return cls(ctx, budget)

    def start(self) -> None:
        """Fix the absolute deadline (parent, at run start).

        The tighter of the relative deadline (measured from now) and an
        armed absolute request deadline wins, so queue wait and resumed
        runs cannot stretch the workers' allowance.
        """
        candidates = []
        if self.deadline_seconds is not None:
            candidates.append(time.monotonic() + self.deadline_seconds)
        if self.armed_deadline_at is not None:
            candidates.append(self.armed_deadline_at)
        if candidates:
            self._deadline_at.value = min(candidates)

    def publish(self, stats: JoinStats) -> None:
        """Publish the merged totals (parent is the single writer)."""
        self._bytes.value = stats.bytes_written
        self._groups.value = stats.groups_emitted

    def breached(self) -> Optional[str]:
        """The first breached dimension, or ``None`` (workers poll this)."""
        if self.max_output_bytes is not None and self._bytes.value > self.max_output_bytes:
            return "output_bytes"
        if self.max_groups is not None and self._groups.value > self.max_groups:
            return "groups"
        deadline_at = self._deadline_at.value
        if deadline_at and time.monotonic() > deadline_at:
            return "deadline"
        return None
