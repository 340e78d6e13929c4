"""Lightweight trace spans for the join phases.

A *span* is a named, timed region of a run — ``descend`` (the tree /
grid traversal), ``emit`` (residual output flushes), ``checkpoint``
(journal records) — plus zero-duration *events* (worker spawned,
worker killed).  Spans nest; each record carries its ``;``-joined
ancestor path, so a flame-style summary (``scripts/trace_report.py``)
is a straight aggregation over paths.

Tracing is **off by default** and the disabled path is a single global
read returning a shared no-op context manager, so instrumented code
costs nothing measurable when nobody is looking
(``benchmarks/bench_obs_overhead.py`` proves the bound).  Enable with
:func:`configure_tracing`, which writes one JSON line per finished span
to a per-run trace file::

    {"name": "descend", "path": "join;descend", "ts": 0.0012,
     "dur": 0.83, "depth": 1, "algorithm": "csj"}

``ts`` is seconds since the tracer was created, ``dur`` the span's
duration in seconds.  Records appear in *completion* order (children
before parents), which aggregation does not care about.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO, Optional, Union

__all__ = [
    "Tracer",
    "configure_tracing",
    "disable_tracing",
    "drop_tracer",
    "get_tracer",
    "span",
    "trace_event",
    "tracing_enabled",
]


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._tracer._push(self.name)
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = self._tracer._clock()
        self._tracer._pop(self.name, self._start, end - self._start, self.attrs)


class Tracer:
    """Writes span records as JSON lines to a file or stream.

    ``target`` is a path (opened for writing, closed by :meth:`close`)
    or any writable text stream (left open).  Thread-safe: the span
    stack is thread-local and record writes are serialised.
    """

    def __init__(self, target: Union[str, IO[str]], clock=time.perf_counter):
        if isinstance(target, (str, bytes)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
            self.path: Optional[str] = str(target)
        else:
            self._stream = target
            self._owns_stream = False
            self.path = getattr(target, "name", None)
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._closed = False
        #: Spans and events written so far.
        self.records = 0

    # -- span stack (per thread) ----------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name: str) -> None:
        self._stack().append(name)

    def _pop(self, name: str, start: float, dur: float, attrs: dict) -> None:
        stack = self._stack()
        if stack and stack[-1] == name:
            stack.pop()
        record = {
            "name": name,
            "path": ";".join(stack + [name]),
            "ts": round(start - self._epoch, 6),
            "dur": round(dur, 6),
            "depth": len(stack),
        }
        if attrs:
            record.update(attrs)
        self._write(record)

    def _write(self, record: dict) -> None:
        line = json.dumps(record, default=str, separators=(",", ":"))
        with self._lock:
            if self._closed:
                return
            self._stream.write(line + "\n")
            self.records += 1

    # -- public API ------------------------------------------------------
    def span(self, name: str, **attrs: object) -> _Span:
        """A context manager timing one named region."""
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """A zero-duration point record (worker spawned, task retried)."""
        stack = self._stack()
        record = {
            "name": name,
            "path": ";".join(stack + [name]),
            "ts": round(self._clock() - self._epoch, 6),
            "dur": 0.0,
            "depth": len(stack),
            "event": True,
        }
        if attrs:
            record.update(attrs)
        self._write(record)

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()


_tracer: Optional[Tracer] = None
#: The tracer :func:`drop_tracer` forgot, kept from collection.
_dropped: Optional[Tracer] = None


def configure_tracing(target: Union[str, IO[str]]) -> Tracer:
    """Install the global tracer (closing any previous one)."""
    global _tracer
    if _tracer is not None:
        _tracer.close()
    _tracer = Tracer(target)
    return _tracer


def disable_tracing() -> None:
    """Close and remove the global tracer; ``span()`` becomes a no-op."""
    global _tracer
    if _tracer is not None:
        _tracer.close()
        _tracer = None


def drop_tracer() -> None:
    """Forget the global tracer without flushing or closing it.

    For a forked worker: its copy of the parent's tracer shares the
    parent's file, and flushing the copied buffer would write the
    parent's pending lines a second time.  The tracer stays referenced,
    because collecting it would close its stream, which flushes.
    """
    global _tracer, _dropped
    _dropped, _tracer = _tracer, None


def get_tracer() -> Optional[Tracer]:
    return _tracer


def tracing_enabled() -> bool:
    return _tracer is not None


def span(name: str, **attrs: object):
    """A span on the global tracer — or the shared no-op when disabled.

    This is the function instrumented code calls; keep using it (rather
    than holding a tracer) so enabling/disabling tracing mid-process
    takes effect everywhere at once.
    """
    tracer = _tracer
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


def trace_event(name: str, **attrs: object) -> None:
    """A point event on the global tracer; no-op when disabled."""
    tracer = _tracer
    if tracer is not None:
        tracer.event(name, **attrs)
