"""One supervised attempt: fork a worker, wait for its answer, reap it.

:func:`run_attempt` runs one pooled join whole in one forked worker.
The worker is forked after the parent has built the join's
:class:`~repro.parallel.tasks.TaskState`, so it inherits that state and
nothing is pickled or rebuilt; a retry forks again over the same
object.  The worker (:func:`_worker_main`) runs the join serially into
a collecting sink and sends back one message: the
:class:`~repro.core.results.JoinResult`, the budget breach with its
partial result, or the error.  A daemon thread heartbeats over the same
pipe, so the parent tells a *frozen* process (no heartbeats, e.g.
SIGSTOP or a stuck syscall) from a *slow* one (heartbeats continue;
the attempt's timeout governs instead).

Whatever ends the attempt — the answer, the worker's death, a kill at
the timeout or after heartbeat silence, or an exception in the parent —
the worker is SIGKILLed if still running and reaped before
:func:`run_attempt` returns, so no worker outlives its call.  The
retry policy lives in :func:`repro.parallel.parallel_join`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from typing import Optional

from repro.errors import BudgetExceededError, WorkerPoolError
from repro.obs.logging import bind_context, get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracing import drop_tracer, trace_event
from repro.parallel.tasks import TaskState
from repro.resilience.budget import Budget
from repro.resilience.chaos import FlakyWorker

__all__ = ["MAX_ATTEMPTS", "mp_context", "run_attempt"]

logger = get_logger("parallel.supervisor")

#: Worker heartbeat period (seconds).
HEARTBEAT_INTERVAL = 0.1
#: Silence longer than this (seconds) marks a worker frozen and gets it killed.
HEARTBEAT_GRACE = 5.0
#: Attempts per request: a failed attempt is retried once on a fresh fork.
MAX_ATTEMPTS = 2


def mp_context():
    """The pool's multiprocessing context: ``fork``.

    Workers inherit the parent's :class:`TaskState` through fork, so
    where the start method does not exist a pool run raises
    :class:`~repro.errors.WorkerPoolError` before any process starts.
    """
    if "fork" not in mp.get_all_start_methods():
        raise WorkerPoolError(
            "the worker pool needs the 'fork' start method, which this "
            "platform does not provide"
        )
    return mp.get_context("fork")


def _worker_main(
    conn,
    state: TaskState,
    budget: Optional[Budget],
    fault: Optional[FlakyWorker],
    attempt: int,
) -> None:
    """Entry point of one forked worker; ``state`` is the parent's, inherited."""
    # The inherited tracer's buffer may hold the parent's unflushed
    # lines; writing through it would flush them a second time.
    drop_tracer()
    bind_context(worker=attempt)  # stamps every log record from this process
    send_lock = threading.Lock()
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            try:
                with send_lock:
                    conn.send(("hb",))
            except OSError:  # parent gone; nothing left to do
                return

    threading.Thread(target=beat, daemon=True).start()
    try:
        if fault is not None:
            fault.maybe_fail(attempt)
        message = ("ok", state.run(budget))
    except BudgetExceededError as exc:
        message = ("breach", exc.kind, exc.limit, exc.actual, str(exc), exc.partial)
    except Exception as exc:  # noqa: BLE001 - reported as a failed attempt
        message = ("err", f"{type(exc).__name__}: {exc}")
    stop.set()
    try:
        with send_lock:
            conn.send(message)
    finally:
        # No interpreter teardown: nothing the parent left buffered in
        # this copy of its memory is flushed from here.
        os._exit(0)


def run_attempt(
    ctx,
    state: TaskState,
    budget: Optional[Budget],
    timeout: Optional[float],
    fault: Optional[FlakyWorker],
    attempt: int,
) -> tuple:
    """Run the join in one forked worker; return how the attempt ended.

    Returns the worker's message — ``("ok", result)``, ``("breach",
    kind, limit, actual, message, partial)`` or ``("err", reason)`` —
    or ``("died", reason)`` / ``("killed", reason)`` when the worker
    died, overran ``timeout`` seconds or stopped heartbeating.  A worker
    that cannot be started raises :class:`~repro.errors.WorkerPoolError`.
    """
    conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_worker_main,
        args=(child_conn, state, budget, fault, attempt),
        daemon=True,
    )
    try:
        proc.start()
    except OSError as exc:
        conn.close()
        raise WorkerPoolError(f"cannot start a worker process: {exc}") from exc
    finally:
        child_conn.close()
    get_registry().counter("repro_pool_spawns_total", "Worker processes started").inc()
    logger.debug("worker started", extra={"worker": attempt, "pid": proc.pid})
    trace_event("worker-spawn", worker=attempt)
    answered = False
    try:
        outcome = _wait(proc, conn, timeout)
        answered = outcome[0] != "killed"
        return outcome
    finally:
        _reap(proc, conn, attempt, answered)


def _wait(proc, conn, timeout: Optional[float]) -> tuple:
    """Wait for the worker's one message, its death, or a reason to kill it."""
    started = last_seen = time.monotonic()
    while True:
        now = time.monotonic()
        if timeout is not None and now - started >= timeout:
            return ("killed", f"request timeout ({timeout:g}s)")
        if now - last_seen >= HEARTBEAT_GRACE:
            return ("killed", "worker stopped heartbeating")
        wait = HEARTBEAT_GRACE - (now - last_seen)
        if timeout is not None:
            wait = min(wait, timeout - (now - started))
        ready = mp.connection.wait([conn, proc.sentinel], timeout=wait)
        try:
            # Drain the pipe before trusting the sentinel: the answer may
            # land in the same wake-up as the exit.
            while conn.poll():
                message = conn.recv()
                last_seen = time.monotonic()
                if message[0] != "hb":
                    return message
        except (EOFError, OSError):
            ready = [proc.sentinel]
        if proc.sentinel in ready:
            proc.join(timeout=HEARTBEAT_GRACE)
            return ("died", f"worker died (exit code {proc.exitcode})")


def _reap(proc, conn, attempt: int, answered: bool) -> None:
    """SIGKILL the worker if it is still running, then reap it.

    A worker that answered gets :data:`HEARTBEAT_GRACE` to exit on its
    own first.  Only a SIGKILL actually sent counts as a kill.
    """
    if answered:
        proc.join(timeout=HEARTBEAT_GRACE)
    killed = False
    if proc.is_alive():
        try:
            os.kill(proc.pid, signal.SIGKILL)
            killed = True
        except OSError:  # pragma: no cover - exited in between
            pass
    proc.join()
    conn.close()
    if killed:
        get_registry().counter(
            "repro_pool_kills_total", "Worker processes hard-killed by the parent"
        ).inc()
        logger.warning("worker killed", extra={"worker": attempt})
        trace_event("worker-kill", worker=attempt)
