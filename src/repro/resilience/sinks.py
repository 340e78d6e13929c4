"""Crash-safe output sinks.

Three sinks with increasing guarantees:

* :class:`DurableTextSink` — a :class:`~repro.core.results.TextSink` that
  can append to an existing file and force written bytes to stable
  storage on demand; the building block of checkpointed execution.
* :class:`AtomicTextSink` — all-or-nothing publication.  Output is
  written to a temporary sibling file and moved into place with the
  classic write → flush → fsync → rename sequence only on a clean close;
  a crash (or an exception propagating through the ``with`` block) leaves
  the destination untouched.
* :class:`RetryingSink` — wraps any sink and absorbs *transient*
  ``OSError`` s with bounded exponential backoff, raising
  :class:`~repro.errors.SinkIOError` only after the retry budget is
  exhausted.  Errnos are classified first: failures no retry can fix
  (``ENOSPC``/``EDQUOT``/``EROFS``) fail fast with
  :class:`~repro.errors.DiskFullError` instead of burning the budget.

All durable file operations (open, fsync, rename, parent-directory
fsync) go through the seam in :mod:`repro.io.durable`, so the
crash-consistency harness can record and fault-inject every one.

Accounting note: the wrappers delegate to the inner sink's public
methods, so bytes, counters and write timing are charged exactly once, on
the inner sink's shared :class:`~repro.stats.counters.JoinStats`.
"""

from __future__ import annotations

import os
import random
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.results import JoinSink, TextSink
from repro.errors import DiskFullError, SinkIOError, errno_name, is_disk_full
from repro.io.durable import best_effort_fsync_dir
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.stats.counters import JoinStats

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = ["AtomicTextSink", "DurableTextSink", "RetryingSink"]

logger = get_logger("resilience.sinks")


class DurableTextSink(TextSink):
    """A text sink with append support and explicit durability control."""

    def __init__(
        self,
        path: str,
        stats: Optional[JoinStats] = None,
        id_width: int = 8,
        append: bool = False,
    ):
        mode = "a" if append else "w"
        super().__init__(os.fspath(path), stats, id_width, mode=mode)

    def sync(self) -> None:
        """Flush and fsync: everything written so far survives a crash."""
        self._flush()
        self._writer.sync()

    def tell(self) -> int:
        """Current byte offset in the output file."""
        self._flush()
        return self._writer.tell()


class AtomicTextSink(TextSink):
    """All-or-nothing text output: temp file, fsync, then rename.

    The destination path either holds the complete join output or is
    untouched — never a torn prefix.  Used as a context manager, an
    exception aborts the write and removes the temporary file; a clean
    exit publishes.  :attr:`committed` records which happened.
    """

    def __init__(self, path: str, stats: Optional[JoinStats] = None, id_width: int = 8):
        self._tmp_path = os.fspath(path) + ".part"
        self.committed = False
        self._closed = False
        super().__init__(self._tmp_path, stats, id_width)
        # After the super() call: TextSink recorded the temp file as the
        # destination; the published path is what callers should see.
        self.path = os.fspath(path)

    def close(self) -> None:
        """Publish atomically: flush → fsync → rename over the target."""
        if self._closed:
            return
        # Before marking closed: a retried close must still write the
        # pending lines.
        self._flush()
        self._closed = True
        fs = self._writer.fs
        self._writer.sync()
        self._writer.close()
        fs.replace(self._tmp_path, self.path)
        # Make the rename itself durable; a platform that cannot fsync
        # directories downgrades to best effort — with a structured
        # warning and a metric, never silently.
        best_effort_fsync_dir(os.path.dirname(os.path.abspath(self.path)), fs)
        self.committed = True

    def abort(self) -> None:
        """Discard the temporary file; the destination stays untouched."""
        if self._closed:
            return
        self._closed = True
        self._drop_pending()
        fs = self._writer.fs
        self._writer.close()
        try:
            fs.unlink(self._tmp_path)
        except FileNotFoundError:
            pass

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


class RetryingSink(JoinSink):
    """Bounded-backoff retries around a flaky inner sink.

    Each write is attempted up to ``1 + max_retries`` times; transient
    ``OSError`` s (``EIO``, ``EAGAIN``, ...) are swallowed and retried
    after a backoff pause, and when the budget is exhausted the last
    error is wrapped in :class:`~repro.errors.SinkIOError`.  Errnos that
    retrying cannot fix — ``ENOSPC``, ``EDQUOT``, ``EROFS`` — fail fast
    with :class:`~repro.errors.DiskFullError` on the first attempt.
    Every observed errno is exported as a labelled
    ``repro_sink_errno_total`` counter.

    With ``jitter`` (the default) pauses follow *decorrelated jitter*:
    each is drawn uniformly from ``[base_delay, 3 * previous_pause]``,
    capped at ``max_delay``.  Synchronized retry storms from many
    writers decorrelate while the expected pause still grows
    geometrically.  The draw uses a private ``random.Random(seed)`` —
    backoff timing never touches global randomness or join output.
    With ``jitter=False`` the pause is the deterministic
    ``base_delay * 2**k`` (capped), which tests pin down exactly.

    Two clocks bound the *total* time spent retrying, so retries can
    never outlive the run's deadline: ``max_elapsed`` caps the seconds a
    single ``_attempt`` may accumulate sleeping, and ``budget`` (a
    :class:`~repro.resilience.budget.Budget` with a deadline) trims every
    pause to the deadline's remaining seconds — once nothing remains,
    the sink gives up immediately instead of sleeping through it.  The
    budget's *composed* deadline applies: an absolute request deadline
    armed with :meth:`~repro.resilience.budget.Budget.arm_deadline`
    binds even when the relative clock was restarted, so a late retry
    can never sleep past the request deadline.

    ``sleep`` is injectable so tests (and the chaos harness) run at full
    speed.  Retrying re-invokes the inner sink's public method, which is
    exact when the failed attempt wrote nothing (the inner sink updates
    its accounting only after a successful store); a torn partial line
    from a genuine mid-write crash is the checkpoint journal's job to
    truncate, not this wrapper's.
    """

    def __init__(
        self,
        inner: JoinSink,
        max_retries: int = 4,
        base_delay: float = 0.01,
        max_delay: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
        jitter: bool = True,
        seed: int = 0,
        max_elapsed: Optional[float] = None,
        budget: Optional["Budget"] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if max_elapsed is not None and max_elapsed < 0:
            raise ValueError(f"max_elapsed must be >= 0, got {max_elapsed}")
        super().__init__(inner.stats, inner.id_width)
        self.inner = inner
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.max_elapsed = max_elapsed
        self.budget = budget
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._clock = clock
        #: Transient failures absorbed so far.
        self.retries = 0

    def _time_left(self, started: float) -> Optional[float]:
        """Seconds of retry headroom remaining, or ``None`` if unbounded."""
        left: Optional[float] = None
        if self.max_elapsed is not None:
            left = self.max_elapsed - (self._clock() - started)
        if self.budget is not None:
            remaining = self.budget.remaining_seconds()
            if remaining is not None:
                left = remaining if left is None else min(left, remaining)
        return left

    def _attempt(self, fn: Callable, *args: object) -> None:
        delay = self.base_delay
        started = self._clock()
        for attempt in range(self.max_retries + 1):
            try:
                fn(*args)
                return
            except SinkIOError:
                raise  # already final: do not re-wrap or re-retry
            except OSError as exc:
                get_registry().counter(
                    "repro_sink_errno_total",
                    "Sink write OSErrors by errno",
                    labels={"errno": errno_name(getattr(exc, "errno", None))},
                ).inc()
                if is_disk_full(exc):
                    # No backoff schedule fixes a full or read-only disk:
                    # fail fast, leaving the checkpoint journal (and the
                    # output's durable prefix) intact for a later resume.
                    raise DiskFullError.wrap(
                        exc, "durable storage exhausted; sink write failed"
                    ) from exc
                if attempt == self.max_retries:
                    raise SinkIOError(
                        f"sink write failed after {attempt + 1} attempts: {exc}"
                    ) from exc
                if self.jitter:
                    pause = min(
                        self.max_delay,
                        self._rng.uniform(self.base_delay, max(delay, self.base_delay) * 3),
                    )
                    delay = pause
                else:
                    pause = min(delay, self.max_delay)
                    delay *= 2
                left = self._time_left(started)
                if left is not None:
                    if left <= 0:
                        raise SinkIOError(
                            f"sink write failed after {attempt + 1} attempts "
                            f"and the retry time budget is exhausted: {exc}"
                        ) from exc
                    pause = min(pause, left)
                self.retries += 1
                get_registry().counter(
                    "repro_sink_retries_total",
                    "Transient sink write failures absorbed by retry",
                ).inc()
                logger.warning(
                    "sink write failed, retrying",
                    extra={
                        "attempt": attempt + 1,
                        "pause_seconds": round(pause, 4),
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
                self._sleep(pause)

    # -- delegation: accounting happens once, in the inner sink ------------
    def write_link(self, i: int, j: int) -> None:
        self._attempt(self.inner.write_link, i, j)

    def write_link_raw(self, i: int, j: int) -> None:
        self._attempt(self.inner.write_link_raw, i, j)

    def write_links(self, ids_i: Sequence[int], ids_j: Sequence[int]) -> None:
        self._attempt(self.inner.write_links, ids_i, ids_j)

    def write_group(self, ids: Sequence[int]) -> None:
        self._attempt(self.inner.write_group, ids)

    def write_group_pair(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> None:
        self._attempt(self.inner.write_group_pair, ids_a, ids_b)

    def close(self) -> None:
        self._attempt(self.inner.close)
