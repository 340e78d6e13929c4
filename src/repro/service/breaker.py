"""A generic circuit breaker: closed → open → half-open → closed.

The breaker protects a dependency (the service's worker pool) from
retry storms.  While *closed* every call passes and consecutive failures
are counted; at ``failure_threshold`` the circuit *opens* and calls fail
fast with :class:`~repro.errors.CircuitOpenError` for a cooldown period.
When the cooldown expires the circuit goes *half-open*: a bounded number
of probe calls are admitted — one success closes the circuit, one
failure re-opens it with a longer cooldown.

Cooldowns follow *decorrelated jitter* (the same schedule as
:class:`~repro.resilience.sinks.RetryingSink` backoff): each is drawn
uniformly from ``[cooldown_base, 3 * previous]``, capped at
``cooldown_max``.  Many breakers opened by one incident therefore probe
at decorrelated times instead of hammering the dependency in lockstep.  The draw uses a
private ``random.Random(seed)`` — breaker timing never touches global
randomness, so seeded runs stay reproducible.

Thread-safe: the service's executor threads and the admission path share
one breaker.  ``clock`` is injectable so tests drive the
state machine without sleeping.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

from repro.errors import CircuitOpenError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry

__all__ = ["CircuitBreaker"]

logger = get_logger("service.breaker")


class CircuitBreaker:
    """Failure-counting circuit with decorrelated-jitter probe cooldowns.

    The object is duck-type compatible with the hooks
    :func:`~repro.parallel.parallel_join` calls: it exposes
    ``allow()``, ``record_success()``, ``record_failure()``,
    ``retry_after()`` and ``state``.

    >>> br = CircuitBreaker("demo", failure_threshold=1, cooldown_base=0.0)
    >>> br.record_failure(); br.state
    'open'
    """

    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 3,
        cooldown_base: float = 0.25,
        cooldown_max: float = 30.0,
        half_open_probes: int = 1,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.name = str(name)
        self.failure_threshold = int(failure_threshold)
        self.cooldown_base = float(cooldown_base)
        self.cooldown_max = float(cooldown_max)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._cooldown = self.cooldown_base
        self._reopen_at: Optional[float] = None
        self._probes_left = 0
        #: Lifetime transition count, mostly for tests and reports.
        self.transitions = 0

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (non-consuming)."""
        with self._lock:
            return self._state

    def allow(self, consume: bool = True) -> bool:
        """Whether a call may proceed now.

        In the half-open state each ``True`` consumes one probe slot, so
        at most ``half_open_probes`` callers hit the dependency while
        its health is still in question.  ``consume=False`` is a pure
        health check — it refuses an open circuit (and still drives the
        open → half-open transition once the cooldown expires) but never
        burns a probe slot; use it when the caller already holds the
        probe for this piece of work (``parallel_join``'s entry gate
        under the serving layer).
        """
        with self._lock:
            return self._admit(consume)[0]

    def acquire(self) -> tuple[bool, bool]:
        """Like :meth:`allow`, but also reports probe consumption.

        Returns ``(allowed, consumed_probe)``.  A caller that receives
        ``consumed_probe=True`` owns a half-open probe slot and must
        resolve it on *every* terminal path: :meth:`record_success` or
        :meth:`record_failure` when the guarded dependency was actually
        exercised, :meth:`release_probe` otherwise.  Leaking the slot
        would wedge the circuit half-open with no probes left — nothing
        could ever close it again.
        """
        with self._lock:
            return self._admit(True)

    def release_probe(self) -> None:
        """Return an unused half-open probe slot without a health signal.

        For callers that consumed a probe via :meth:`acquire` but ended
        up not exercising the guarded dependency (the request degraded,
        failed validation, or was shed at shutdown).  A no-op unless the
        circuit is still half-open — after ``record_success`` /
        ``record_failure`` moved it on, the slot accounting was already
        reset by the transition.
        """
        with self._lock:
            if self._state == "half_open":
                self._probes_left = min(
                    self.half_open_probes, self._probes_left + 1
                )

    def record_success(self) -> None:
        """A guarded call succeeded: close the circuit, reset the budget."""
        with self._lock:
            self._failures = 0
            if self._state != "closed":
                self._transition("closed")
            self._cooldown = self.cooldown_base
            self._reopen_at = None

    def record_failure(self) -> None:
        """A guarded call failed: count it; open at the threshold."""
        with self._lock:
            self._failures += 1
            if self._state == "half_open":
                # The probe failed: re-open with a longer cooldown.
                self._open()
            elif self._state == "closed" and self._failures >= self.failure_threshold:
                self._open()

    def retry_after(self) -> float:
        """Suggested wait in seconds before retrying (0 when closed).

        While *open* this is the remaining cooldown before the next
        half-open probe window.  While *half-open with every probe slot
        taken* it is roughly one cooldown — the probes' verdict is still
        pending, so shed clients must not be told to hammer the
        dependency again immediately.
        """
        with self._lock:
            if self._state == "open" and self._reopen_at is not None:
                return max(0.0, self._reopen_at - self._clock())
            if self._state == "half_open" and self._probes_left <= 0:
                return self._cooldown
            return 0.0

    def call(self, fn: Callable, *args: object, **kwargs: object):
        """Run ``fn`` through the breaker.

        Raises :class:`~repro.errors.CircuitOpenError` without calling
        ``fn`` when the circuit is open; otherwise records the outcome.
        Exceptions from ``fn`` count as failures and propagate.
        """
        if not self.allow():
            raise CircuitOpenError(self.name, retry_after=self.retry_after())
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    # ------------------------------------------------------------------
    # Internals (lock held)
    # ------------------------------------------------------------------
    def _admit(self, consume: bool) -> tuple[bool, bool]:
        if self._state == "closed":
            return True, False
        if self._state == "open":
            if (
                self._reopen_at is not None
                and self._clock() >= self._reopen_at
            ):
                self._transition("half_open")
                self._probes_left = self.half_open_probes
            else:
                return False, False
        # half-open: admit while probe slots remain
        if not consume:
            return True, False
        if self._probes_left > 0:
            self._probes_left -= 1
            return True, True
        return False, False

    def _open(self) -> None:
        # Decorrelated jitter: cooldown ~ U(base, 3 * previous), capped.
        self._cooldown = min(
            self.cooldown_max,
            self._rng.uniform(
                self.cooldown_base, max(self._cooldown, self.cooldown_base) * 3
            ),
        )
        self._reopen_at = self._clock() + self._cooldown
        self._transition("open")

    def _transition(self, state: str) -> None:
        previous, self._state = self._state, state
        self.transitions += 1
        get_registry().breaker_state(self.name, state)
        logger.warning(
            "circuit breaker transition",
            extra={
                "breaker": self.name,
                "from": previous,
                "to": state,
                "failures": self._failures,
                "cooldown_seconds": round(self._cooldown, 4),
            },
        )
