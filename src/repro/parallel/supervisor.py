"""Worker-pool supervision: spawn, heartbeat, detect, kill, respawn.

The :class:`Supervisor` owns the *processes* of the parallel executor —
the dispatch/retry/merge policy lives in
:class:`~repro.parallel.scheduler.WorkScheduler`.  Workers are forked
from the parent after it has built the join's :class:`TaskState`, so
each inherits that state and nothing is pickled or rebuilt; a respawn
forks again and inherits the same object.  Each worker runs
:func:`_worker_main`: it serves ``("task", id)`` requests over a duplex
pipe, replying with the task's serializable delta.  A daemon thread
heartbeats over the same pipe so the parent can distinguish a *frozen*
process (no heartbeats — e.g. SIGSTOP, a stuck syscall) from a *slow
task* (heartbeats continue; the per-task timeout governs instead).

Worker death is a normal event: the parent observes the process
sentinel / a dropped pipe, reassigns the in-flight task and respawns a
replacement.  Fault injection for tests rides along: a
:class:`~repro.resilience.chaos.FlakyWorker` is inherited by every
worker, with its kill budget bound to a shared counter so the budget
survives the very process deaths it causes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from typing import Optional

from repro.errors import WorkerPoolError
from repro.obs.logging import bind_context, get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace_event
from repro.parallel.shared import SharedCounters
from repro.parallel.tasks import TaskState
from repro.resilience.chaos import FlakyWorker

__all__ = ["Supervisor", "mp_context"]

logger = get_logger("parallel.supervisor")

#: Worker heartbeat period (seconds).
HEARTBEAT_INTERVAL = 0.1
#: Silence longer than this (seconds) marks a worker frozen and gets it killed.
HEARTBEAT_GRACE = 5.0
#: Failed executions tolerated per task before quarantine
#: (``2`` -> at most 3 attempts / worker respawns per poison task).
MAX_TASK_RETRIES = 2
#: Decorrelated-jitter retry backoff bounds (seconds).
BACKOFF_BASE = 0.05
BACKOFF_MAX = 1.0
#: Seed for the retry-jitter RNG (timing only — never affects output).
JITTER_SEED = 0


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
    shared: Optional[SharedCounters],
    fault: Optional[FlakyWorker],
    wid: int = -1,
) -> None:
    """Entry point of one forked worker; ``state`` is the parent's, inherited."""
    bind_context(worker=wid)  # stamps every log record from this process
    send_lock = threading.Lock()
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            try:
                with send_lock:
                    conn.send(("hb",))
            except OSError:  # parent gone; nothing left to do
                return

    heart = threading.Thread(target=beat, daemon=True)
    heart.start()
    with send_lock:
        conn.send(("ready",))

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        task_id = msg[1]
        if shared is not None:
            kind = shared.breached()
            if kind is not None:
                with send_lock:
                    conn.send(("breach", task_id, kind))
                continue
        try:
            if fault is not None:
                fault.maybe_fail(task_id)
            events, counters = state.execute(task_id)
        except BaseException as exc:  # noqa: BLE001 - reported as task failure
            with send_lock:
                conn.send(("err", task_id, f"{type(exc).__name__}: {exc}"))
            continue
        with send_lock:
            conn.send(("ok", task_id, events, counters))
    stop.set()


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "wid", "proc", "conn", "ready", "current", "started_at", "last_seen",
    )

    def __init__(self, wid: int, proc, conn):
        self.wid = wid
        self.proc = proc
        self.conn = conn
        self.ready = False
        #: Task id currently executing on this worker (``None`` = idle).
        self.current: Optional[int] = None
        self.started_at = 0.0
        self.last_seen = time.monotonic()

    @property
    def idle(self) -> bool:
        return self.ready and self.current is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Worker(w{self.wid}, pid={self.proc.pid}, current={self.current})"


class Supervisor:
    """Owns the worker processes: spawn, watch, kill, respawn, shut down."""

    def __init__(
        self,
        state: TaskState,
        workers: int,
        task_timeout: Optional[float] = None,
        shared: Optional[SharedCounters] = None,
        fault: Optional[FlakyWorker] = None,
    ):
        self.state = state
        self.n_workers = workers
        #: Per-task wall-clock limit; ``None`` disables the timeout.
        self.task_timeout = task_timeout
        self.ctx = mp_context()
        self.shared = shared
        self.fault = fault
        if fault is not None and fault.active and fault.max_failures is not None:
            # The kill budget must outlive the workers it kills.
            fault.bind_shared_budget(self.ctx.Value("q", int(fault.max_failures)))
        self.workers: list[_WorkerHandle] = []
        self.respawns = 0
        self._next_wid = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for _ in range(self.n_workers):
            self.workers.append(self._spawn())

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        wid = self._next_wid
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, self.state, self.shared, self.fault, wid),
            daemon=True,
        )
        try:
            proc.start()
        except OSError as exc:  # pragma: no cover - resource exhaustion
            raise WorkerPoolError(f"cannot spawn worker process: {exc}") from exc
        child_conn.close()
        handle = _WorkerHandle(wid, proc, parent_conn)
        self._next_wid += 1
        get_registry().counter(
            "repro_pool_spawns_total", "Worker processes started"
        ).inc()
        logger.debug("worker spawned", extra={"worker": wid, "pid": proc.pid})
        trace_event("worker-spawn", worker=wid)
        return handle

    def kill(self, handle: _WorkerHandle) -> None:
        """Forget one worker, SIGKILLing it first if it is still running.

        Only a SIGKILL actually sent counts as a kill: a worker that
        already exited on ``("stop",)`` is just reaped.
        """
        if handle in self.workers:
            self.workers.remove(handle)
        killed = False
        try:
            if handle.proc.is_alive():
                os.kill(handle.proc.pid, signal.SIGKILL)
                killed = True
        except (OSError, AttributeError):  # pragma: no cover - already gone
            pass
        handle.proc.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        if killed:
            get_registry().counter(
                "repro_pool_kills_total", "Worker processes hard-killed by the parent"
            ).inc()
            trace_event("worker-kill", worker=handle.wid)

    def respawn(self) -> _WorkerHandle:
        """Spawn a replacement worker and track the respawn count."""
        self.respawns += 1
        logger.warning("respawning worker", extra={"respawns": self.respawns})
        handle = self._spawn()
        self.workers.append(handle)
        return handle

    def shutdown(self) -> None:
        """Stop every worker: polite request, then SIGKILL any still running."""
        for handle in self.workers:
            try:
                handle.conn.send(("stop",))
            except OSError:
                pass
        deadline = time.monotonic() + 1.0
        for handle in self.workers:
            handle.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for handle in list(self.workers):
            self.kill(handle)
        self.workers.clear()

    # ------------------------------------------------------------------
    # Dispatch and events
    # ------------------------------------------------------------------
    def dispatch(self, handle: _WorkerHandle, task_id: int) -> bool:
        """Send one task to a worker; ``False`` if the pipe is already dead."""
        try:
            handle.conn.send(("task", task_id))
        except OSError:
            return False
        handle.current = task_id
        handle.started_at = time.monotonic()
        return True

    def poll(self, timeout: float) -> list[tuple[str, _WorkerHandle, tuple]]:
        """Collect worker events: ``("msg", handle, payload)`` / ``("died", handle, ())``.

        Waits up to ``timeout`` for pipe traffic or process death; drains
        every readable pipe completely so heartbeats never back up.
        """
        events: list[tuple[str, _WorkerHandle, tuple]] = []
        by_conn = {h.conn: h for h in self.workers}
        by_sentinel = {h.proc.sentinel: h for h in self.workers}
        try:
            ready = mp.connection.wait(
                list(by_conn) + list(by_sentinel), timeout=timeout
            )
        except OSError:  # pragma: no cover - racing close
            ready = []
        now = time.monotonic()
        dead: list[_WorkerHandle] = []
        for obj in ready:
            handle = by_conn.get(obj)
            if handle is None:
                sentinel_handle = by_sentinel.get(obj)
                if sentinel_handle is not None and sentinel_handle not in dead:
                    dead.append(sentinel_handle)
                continue
            # Drain the pipe; EOF means the process died mid-write.
            try:
                while handle.conn.poll():
                    payload = handle.conn.recv()
                    handle.last_seen = now
                    events.append(("msg", handle, payload))
            except (EOFError, OSError):
                if handle not in dead:
                    dead.append(handle)
        for handle in dead:
            if handle in self.workers:
                self.workers.remove(handle)
                handle.proc.join(timeout=5.0)
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
                events.append(("died", handle, ()))
        return events

    def reap_unresponsive(self) -> list[tuple[_WorkerHandle, str]]:
        """Kill workers that breached the task timeout or went silent.

        Returns the killed handles with the reason, so the scheduler can
        account the in-flight task as a failure.
        """
        now = time.monotonic()
        victims: list[tuple[_WorkerHandle, str]] = []
        timeout = self.task_timeout
        for handle in list(self.workers):
            if (
                timeout is not None
                and handle.current is not None
                and now - handle.started_at > timeout
            ):
                victims.append(
                    (handle, f"task timeout ({timeout:g}s) on worker w{handle.wid}")
                )
            elif now - handle.last_seen > HEARTBEAT_GRACE:
                victims.append(
                    (handle, f"worker w{handle.wid} stopped heartbeating")
                )
        for handle, reason in victims:
            logger.warning(
                "killing unresponsive worker",
                extra={"worker": handle.wid, "reason": reason},
            )
            self.kill(handle)
        return victims

    def max_heartbeat_age(self) -> float:
        """Seconds since the quietest live worker was last heard from."""
        if not self.workers:
            return 0.0
        now = time.monotonic()
        return max(now - h.last_seen for h in self.workers)
