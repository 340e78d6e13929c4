"""Span recording around the program's layer boundaries, for traced runs.

:class:`Tracer` wraps the public entry points below, records one span per
call -- ``[name, start, end, parent]`` -- in memory, and removes the
wrappers again, so one process can alternate untraced and traced
operations and report what tracing costs.  Spans are kept in one list per
thread (the serving layer runs joins on its executor thread).  A layer's
self time is its spans' duration minus the time their child spans cover
(:meth:`SpanLog.summary`).

Span name -> wrapped callable:

* ``kernels`` -- ``PackedIndex.prune_self`` / ``prune_cross`` / ``union_diag``
* ``leaf`` -- ``repro.core.csj.leaf_self_delta`` / ``leaf_cross_delta``
* ``groups`` -- ``apply_events`` (in-process joins, and the worker pool's
  canonical merge) and ``GroupBuffer.flush``
* ``sink`` -- a child of each ``groups`` span holding the
  ``stats.write_time`` the sink measured during it; the benchmark adds one
  around the closing flush of the output file
* ``cache.key`` -- ``ResultCache.key_for``
* ``parallel.join`` -- the ``parallel_join`` the service calls on a miss,
  with ``parallel.state`` (``JoinSpec.build_state``) inside it
* ``dynamic.insert`` / ``dynamic.delete`` -- ``MaintainedJoin`` updates

The benchmark opens a root span per batch join; what no child covers is
the frontier loop's own time, reported as a remainder.
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from time import perf_counter


class SpanLog:
    """In-memory spans, one list per recording thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append(local.spans)
        return local

    def begin(self, name: str) -> int:
        local = self._state()
        idx = len(local.spans)
        parent = local.stack[-1] if local.stack else -1
        local.spans.append([name, perf_counter(), 0.0, parent])
        local.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        local = self._local
        local.spans[idx][2] = perf_counter()
        local.stack.pop()

    def measured_child(self, parent: int, name: str, seconds: float) -> None:
        """A child of ``parent`` whose duration the program measured itself."""
        spans = self._local.spans
        start = spans[parent][1]
        spans.append([name, start, start + seconds, parent])

    def clear(self) -> None:
        with self._lock:
            for spans in self._threads:
                spans.clear()

    def snapshot(self) -> list:
        """Copies of every thread's spans."""
        with self._lock:
            return [[list(s) for s in spans] for spans in self._threads if spans]

    def summary(self) -> dict:
        """``name -> [calls, total seconds, self seconds]`` over all spans."""
        out: dict = {}
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            covered = [0.0] * len(spans)
            for _, start, end, parent in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for (name, start, end, _), cov in zip(spans, covered):
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - cov
        return out


def _size(selection) -> int:
    if isinstance(selection, slice):
        return selection.stop - selection.start
    return len(selection)


class Tracer:
    """Installs and removes the span-recording wrappers."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.counts: dict = defaultdict(float)
        self._saved: list = []

    def reset(self) -> None:
        self.log.clear()
        self.counts.clear()

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        wrapped = make(getattr(owner, attr))
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from repro.core.groups import GroupBuffer
        from repro.dynamic import MaintainedJoin
        from repro.index import PackedIndex
        from repro.service import ResultCache

        # By module path: the package attribute ``repro.core.csj`` is the
        # csj function, not the module whose globals the runners read.
        csj_module = importlib.import_module("repro.core.csj")
        tasks_module = importlib.import_module("repro.parallel.tasks")
        service_module = importlib.import_module("repro.service.service")
        log, counts = self.log, self.counts

        def span(name):
            def make(fn):
                def wrapper(*args, **kwargs):
                    idx = log.begin(name)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        log.end(idx)
                return wrapper
            return make

        def prune_self(fn):
            def wrapper(packed, beg, end, eps):
                idx = log.begin("kernels")
                try:
                    rows, cols = fn(packed, beg, end, eps)
                finally:
                    log.end(idx)
                k = end - beg
                counts["kernels.calls"] += 1
                counts["kernels.candidates"] += k * (k - 1) // 2
                counts["kernels.survivors"] += len(rows)
                return rows, cols
            return wrapper

        def prune_cross(fn):
            def wrapper(packed, ids1, ids2, eps, other=None):
                idx = log.begin("kernels")
                try:
                    rows, cols = fn(packed, ids1, ids2, eps, other)
                finally:
                    log.end(idx)
                counts["kernels.calls"] += 1
                counts["kernels.candidates"] += _size(ids1) * _size(ids2)
                counts["kernels.survivors"] += len(rows)
                return rows, cols
            return wrapper

        def union_diag(fn):
            def wrapper(packed, ids1, ids2, other=None):
                idx = log.begin("kernels")
                try:
                    return fn(packed, ids1, ids2, other)
                finally:
                    log.end(idx)
                    counts["kernels.calls"] += 1
                    counts["kernels.bounds"] += len(ids1)
            return wrapper

        def leaf(fn):
            def wrapper(*args):
                idx = log.begin("leaf")
                try:
                    events, dc = fn(*args)
                finally:
                    log.end(idx)
                counts["leaf.calls"] += 1
                counts["leaf.distance_computations"] += dc
                counts["leaf.hits"] += sum(len(event[1]) for event in events)
                return events, dc
            return wrapper

        def groups(sink_of):
            def make(fn):
                def wrapper(*args):
                    stats = sink_of(args).stats
                    before = stats.write_time
                    idx = log.begin("groups")
                    try:
                        return fn(*args)
                    finally:
                        log.end(idx)
                        written = stats.write_time - before
                        if written > 0.0:
                            log.measured_child(idx, "sink", written)
                return wrapper
            return make

        def build_state(fn):
            def wrapper(spec):
                idx = log.begin("parallel.state")
                try:
                    state = fn(spec)
                finally:
                    log.end(idx)
                counts["parallel.states"] += 1
                counts["parallel.tasks"] += len(state)
                return state
            return wrapper

        def events_sink(args):
            return args[1]

        def buffer_sink(args):
            return args[0].sink

        self._patch(PackedIndex, "prune_self", prune_self)
        self._patch(PackedIndex, "prune_cross", prune_cross)
        self._patch(PackedIndex, "union_diag", union_diag)
        self._patch(csj_module, "leaf_self_delta", leaf)
        self._patch(csj_module, "leaf_cross_delta", leaf)
        self._patch(csj_module, "apply_events", groups(events_sink))
        self._patch(tasks_module, "apply_events", groups(events_sink))
        self._patch(GroupBuffer, "flush", groups(buffer_sink))
        self._patch(ResultCache, "key_for", span("cache.key"))
        self._patch(service_module, "parallel_join", span("parallel.join"))
        self._patch(tasks_module.JoinSpec, "build_state", build_state)
        self._patch(MaintainedJoin, "insert", span("dynamic.insert"))
        self._patch(MaintainedJoin, "delete", span("dynamic.delete"))
