"""Typed exception hierarchy and input validation.

Every failure the library raises deliberately derives from
:class:`ReproError`, so callers (and the CLI) can catch one base class and
map each failure kind to a meaningful exit code instead of letting a deep
``IndexError`` or an unpickling traceback leak out.  Each subclass also
keeps compatibility with the builtin exception callers historically
caught: :class:`InvalidInputError` is a ``ValueError``,
:class:`BudgetExceededError` a ``RuntimeError``, and :class:`SinkIOError`
an ``OSError``.

:func:`validate_points` and :func:`validate_eps` enforce the input
contract (2-D finite float array, positive finite range) at the public
API boundary — the tree and grid internals may assume clean input.
"""

from __future__ import annotations

import errno as _errno
import math
from typing import Optional

import numpy as np

__all__ = [
    "ReproError",
    "InvalidInputError",
    "ValidationError",
    "BudgetExceededError",
    "SinkIOError",
    "DiskFullError",
    "CheckpointCorruptError",
    "PoisonTaskError",
    "WorkerPoolError",
    "AdmissionRejectedError",
    "CircuitOpenError",
    "EXIT_CODES",
    "exit_code_registry",
    "FATAL_STORAGE_ERRNOS",
    "errno_name",
    "is_disk_full",
    "validate_points",
    "validate_eps",
]


class ReproError(Exception):
    """Base class for all deliberate library failures.

    ``exit_code`` is the process exit status the CLI maps the failure to.
    """

    exit_code = 1


class InvalidInputError(ReproError, ValueError):
    """The caller's input violates the API contract.

    Raised for empty or non-2-D point arrays, NaN/inf coordinates,
    non-numeric dtypes, and non-positive query ranges.
    """

    exit_code = 2


class ValidationError(InvalidInputError):
    """An internal consistency precondition does not hold for the call.

    A narrower :class:`InvalidInputError` (same exit code) raised when
    structured data reaching a library routine — replayed task events, a
    maintained-join update — references machinery the caller did not
    provide, e.g. a group event replayed without a group window.
    """


class BudgetExceededError(ReproError, RuntimeError):
    """A resource budget was breached during a join run.

    ``kind`` names the breached dimension (``"deadline"``,
    ``"output_bytes"`` or ``"groups"``); ``limit`` and ``actual`` quantify
    it.  When the run produced durable partial output before stopping, the
    raiser attaches it as :attr:`partial` (a
    :class:`~repro.core.results.JoinResult` holding a valid prefix of the
    full output — Theorem 2 still holds for every emitted link and group).
    """

    def __init__(self, kind: str, limit: float, actual: float, message: Optional[str] = None):
        self.kind = kind
        self.limit = limit
        self.actual = actual
        #: Partial result (valid output prefix), attached by the algorithm.
        self.partial = None
        super().__init__(
            message or f"{kind} budget exceeded: {actual:g} > limit {limit:g}"
        )

    exit_code = 3


class SinkIOError(ReproError, OSError):
    """Writing join output failed and retries (if any) were exhausted."""

    exit_code = 4


#: Errnos no retry can fix: the storage itself is out of space or
#: read-only.  Retrying burns the backoff budget for nothing; callers
#: fail fast with :class:`DiskFullError` instead.
FATAL_STORAGE_ERRNOS = frozenset(
    code
    for code in (
        _errno.ENOSPC,
        _errno.EROFS,
        getattr(_errno, "EDQUOT", None),
    )
    if code is not None
)


def errno_name(code: Optional[int]) -> str:
    """The symbolic name of an errno (``"enospc"``), or ``"unknown"``."""
    if code is None:
        return "unknown"
    return _errno.errorcode.get(int(code), f"errno_{int(code)}").lower()


def is_disk_full(exc: BaseException) -> bool:
    """Whether an ``OSError`` signals exhausted/read-only storage."""
    return (
        isinstance(exc, OSError)
        and getattr(exc, "errno", None) in FATAL_STORAGE_ERRNOS
    )


class DiskFullError(SinkIOError):
    """Durable storage is exhausted (``ENOSPC``/``EDQUOT``) or read-only.

    Raised *without* burning the retry budget — no backoff schedule fixes
    a full disk.  A checkpointed run that hits it leaves the journal and
    the output's durable prefix intact, so after space is freed the run
    resumes from the last checkpoint.  As a :class:`SinkIOError`
    subclass it stays catchable by existing ``SinkIOError`` handlers
    while mapping to its own CLI exit code.
    """

    exit_code = 8

    @classmethod
    def wrap(cls, exc: OSError, context: str) -> "DiskFullError":
        wrapped = cls(f"{context}: {exc}")
        wrapped.errno = getattr(exc, "errno", None)
        return wrapped


class CheckpointCorruptError(ReproError):
    """A persisted artifact (index file or join journal) failed to load.

    ``path`` is the offending file.  Raised instead of whatever low-level
    exception the truncated or corrupt bytes produced.
    """

    def __init__(self, path: str, reason: str = "corrupt or truncated file"):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")

    exit_code = 5


class PoisonTaskError(ReproError):
    """A pooled request failed on every attempt its worker was given.

    Each attempt ran the whole join in a fresh forked worker, and each
    one died, was killed at its timeout, stopped heartbeating or
    reported an exception.  ``attempts`` counts the attempts made;
    ``last_error`` describes the final failure.
    """

    exit_code = 6

    def __init__(
        self,
        attempts: int,
        last_error: Optional[str] = None,
        message: Optional[str] = None,
    ):
        self.attempts = int(attempts)
        self.last_error = last_error
        detail = f": {last_error}" if last_error else ""
        super().__init__(
            message or f"request failed on all {attempts} worker attempts{detail}"
        )


class WorkerPoolError(ReproError):
    """The worker pool itself failed, not the request it was running.

    Raised when a worker process cannot be started, including where the
    ``fork`` start method does not exist.
    """

    exit_code = 7


class AdmissionRejectedError(ReproError):
    """The serving layer shed a request before admitting it.

    Raised by :class:`~repro.service.JoinService` when the bounded
    admission queue is full (backpressure) — the request was never
    started, so retrying after :attr:`retry_after` seconds is always
    safe.  ``queue_depth`` is the configured bound that was hit.
    """

    exit_code = 9

    def __init__(
        self,
        queue_depth: int,
        retry_after: float = 0.0,
        message: Optional[str] = None,
    ):
        self.queue_depth = int(queue_depth)
        #: Suggested wait before resubmitting, in seconds (``Retry-After``).
        self.retry_after = float(retry_after)
        #: The serving layer's ``RequestOutcome`` for this rejection,
        #: attached by ``JoinService.submit`` so batch callers get the
        #: exact outcome object without scanning the audit trail.
        self.outcome = None
        super().__init__(
            message
            or (
                f"admission queue full (depth {queue_depth}); "
                f"retry after {self.retry_after:.3f}s"
            )
        )


class CircuitOpenError(ReproError):
    """A circuit breaker is open and the guarded component was not called.

    ``component`` names the guarded dependency (``"worker-pool"``,
    ``"sink"``); :attr:`retry_after` is the remaining cooldown before the
    breaker will admit a half-open probe.  Failing fast here protects a
    struggling dependency from a retry storm.
    """

    exit_code = 10

    def __init__(
        self,
        component: str,
        retry_after: float = 0.0,
        message: Optional[str] = None,
    ):
        self.component = str(component)
        #: Remaining cooldown before a half-open probe, in seconds.
        self.retry_after = float(retry_after)
        #: The serving layer's ``RequestOutcome`` for this rejection,
        #: attached by ``JoinService.submit`` (``None`` when raised
        #: outside the serving layer, e.g. by ``parallel_join``'s gate).
        self.outcome = None
        super().__init__(
            message
            or (
                f"circuit breaker for {component!r} is open; "
                f"retry after {self.retry_after:.3f}s"
            )
        )


#: The single source of truth for process exit codes.  The CLI, the chaos
#: demo, and the DESIGN.md failure table must all agree with this mapping
#: (``tests/test_errors.py`` enforces it).  Exit code 0 is success and 1
#: is the catch-all ``ReproError``; codes 2-10 identify specific typed
#: failures.
EXIT_CODES: dict[int, type] = {
    1: ReproError,
    2: InvalidInputError,
    3: BudgetExceededError,
    4: SinkIOError,
    5: CheckpointCorruptError,
    6: PoisonTaskError,
    7: WorkerPoolError,
    8: DiskFullError,
    9: AdmissionRejectedError,
    10: CircuitOpenError,
}


def exit_code_registry() -> dict[int, type]:
    """A copy of the exit-code registry, validated for consistency.

    Every entry's class attribute must match its registry key — a
    mismatch means someone edited one side without the other.
    """
    for code, cls in EXIT_CODES.items():
        if cls.exit_code != code:
            raise AssertionError(
                f"exit-code registry mismatch: {cls.__name__}.exit_code "
                f"is {cls.exit_code}, registry says {code}"
            )
    return dict(EXIT_CODES)


def validate_points(points: object, name: str = "points") -> np.ndarray:
    """Validate and normalise a point array at the API boundary.

    Returns the input as a float64 ``(n, d)`` array.  Raises
    :class:`InvalidInputError` for non-numeric dtypes, wrong rank, empty
    arrays, and non-finite coordinates.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be numeric: {exc}") from None
    if arr.ndim != 2:
        raise InvalidInputError(
            f"{name} must be a 2-D (n, d) array, got shape {arr.shape}"
        )
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise InvalidInputError(
            f"{name} contains NaN or infinite coordinates (first bad row: {bad})"
        )
    return arr


def validate_eps(eps: float, name: str = "eps") -> float:
    """Validate a query range: a positive, finite number."""
    try:
        value = float(eps)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be a number: {exc}") from None
    if not math.isfinite(value) or value <= 0:
        raise InvalidInputError(f"{name} must be positive and finite, got {eps!r}")
    return value
