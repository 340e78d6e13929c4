"""A zero-dependency metrics registry: counters, gauges, histograms.

The registry is the numeric side of the observability layer.  Library
code records into the process-global registry (:func:`get_registry`)
through three primitives with Prometheus semantics:

* :class:`Counter` — monotonically increasing total (``_total`` names);
* :class:`Gauge` — a value that goes up and down (queue depth,
  heartbeat age);
* :class:`Histogram` — cumulative bucket counts plus sum/count, for
  durations.

Snapshots export two ways: :meth:`MetricsRegistry.to_json` (one object,
machine-consumable) and :meth:`MetricsRegistry.to_prometheus` (the text
exposition format, scrape-ready).  :meth:`MetricsRegistry.record_join_stats`
folds a finished run's :class:`~repro.stats.counters.JoinStats` — including
the derived ``total_time`` / ``pairs_reported`` values — into
``repro_join_*`` metrics, and :meth:`MetricsRegistry.record_budget`
captures budget state, so one snapshot carries the paper's whole
measurement protocol (runtime split, output bytes, page accesses) next
to the execution-health counters (pool spawns/kills, sink retries,
checkpoint records).

Everything is plain Python with a single lock around metric creation;
``inc``/``set``/``observe`` are lock-free (single bytecode-level updates
under the GIL, and worker processes keep their own registries).
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import fields as dataclass_fields
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.resilience.budget import Budget
    from repro.stats.counters import JoinStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
]

#: Default histogram buckets (seconds): micro-joins to minutes.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


def _labelled(name: str, labels: Optional[dict]) -> str:
    """Canonical registry key for a labelled metric.

    One formatting path for every labelled series: label pairs are
    sorted, values escaped per the Prometheus text format, and the
    result is ``name{key="value",...}`` — the shape
    :meth:`MetricsRegistry.to_prometheus` groups into one metric family
    per base name.  Callers pass ``labels=`` instead of hand-building
    the brace syntax.
    """
    if not labels:
        return name
    pairs = ",".join(
        '{}="{}"'.format(
            key,
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"),
        )
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{pairs}}}"


class Counter:
    """Monotonically increasing counter."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """Instantaneous value; may move in both directions."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram with sum and count."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class MetricsRegistry:
    """Named metrics with get-or-create registration and two exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[dict] = None
    ) -> Counter:
        return self._get_or_create(Counter, _labelled(name, labels), help)

    def gauge(
        self, name: str, help: str = "", labels: Optional[dict] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, _labelled(name, labels), help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[dict] = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, _labelled(name, labels), help, buckets=buckets
        )

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Domain recorders
    # ------------------------------------------------------------------
    def record_join_stats(self, stats: "JoinStats", prefix: str = "repro_join_") -> None:
        """Fold a run's counters — including derived values — into metrics.

        Integer counters become :class:`Counter` s, the time fields
        become counters of seconds (``*_seconds_total``); the derived
        ``total_time`` and ``pairs_reported`` properties are recorded
        explicitly so exported snapshots carry the paper's headline
        runtime number.
        """
        for f in dataclass_fields(stats):
            value = getattr(stats, f.name)
            if isinstance(value, float):
                self.counter(
                    f"{prefix}{f.name}_seconds_total", f"JoinStats.{f.name} (seconds)"
                ).inc(value)
            else:
                self.counter(f"{prefix}{f.name}_total", f"JoinStats.{f.name}").inc(value)
        self.counter(
            f"{prefix}total_time_seconds_total", "compute plus write seconds"
        ).inc(stats.total_time)
        self.counter(
            f"{prefix}pairs_reported_total", "links implied by the output"
        ).inc(stats.pairs_reported)

    def record_budget(self, budget: Optional["Budget"]) -> None:
        """Capture a budget's limits and consumption as gauges."""
        if budget is None:
            return
        self.gauge("repro_budget_active", "1 when any limit is set").set(
            1 if budget.active else 0
        )
        self.gauge("repro_budget_elapsed_seconds", "seconds since Budget.start").set(
            budget.elapsed()
        )
        if budget.deadline_seconds is not None:
            self.gauge("repro_budget_deadline_seconds", "wall-clock limit").set(
                budget.deadline_seconds
            )
        if budget.max_output_bytes is not None:
            self.gauge("repro_budget_max_output_bytes", "output byte cap").set(
                budget.max_output_bytes
            )
        if budget.max_groups is not None:
            self.gauge("repro_budget_max_groups", "emitted-group cap").set(
                budget.max_groups
            )

    def service_outcome(self, outcome: str) -> None:
        """Count one serving-layer request outcome.

        ``outcome`` is one of the ladder's terminal states: ``admitted``
        (served exactly), ``degraded`` (estimator answer), ``shed``
        (admission queue full) or ``breaker_open`` (failed fast).  Each
        request increments exactly one of these, so the four counters
        partition the request stream — the overload gate audits that.
        """
        self.counter(
            f"repro_service_{outcome}_total",
            f"Requests that ended {outcome.replace('_', ' ')}",
        ).inc()

    def cache_event(self, kind: str) -> None:
        """Count one result-cache event.

        ``kind`` is one of ``hit`` (fresh entry served), ``miss`` (no
        usable entry), ``eviction`` (LRU/byte-budget displacement) or
        ``patched`` (entry refreshed incrementally by the dynamic layer
        instead of a from-scratch join).
        """
        names = {
            "hit": "hits",
            "miss": "misses",
            "eviction": "evictions",
            "patched": "patched",
        }
        plural = names.get(kind)
        if plural is None:
            raise ValueError(f"unknown cache event {kind!r}; known: {sorted(names)}")
        self.counter(
            f"repro_cache_{plural}_total", f"Result-cache {kind} events"
        ).inc()

    def service_pressure(
        self, queue_len: int, queue_depth: int, deadline_slack: Optional[float]
    ) -> None:
        """Publish the serving layer's live pressure gauges."""
        self.gauge(
            "repro_service_queue_depth", "Requests waiting for an executor"
        ).set(queue_len)
        self.gauge(
            "repro_service_queue_limit", "Configured admission queue bound"
        ).set(queue_depth)
        if deadline_slack is not None:
            self.gauge(
                "repro_service_deadline_slack_seconds",
                "Remaining deadline of the request now starting",
            ).set(deadline_slack)

    def breaker_state(self, name: str, state: str) -> None:
        """Export a circuit breaker's state (0 closed, 1 half-open, 2 open)."""
        value = {"closed": 0, "half_open": 1, "open": 2}.get(state, -1)
        self.gauge(
            "repro_service_breaker_state",
            "Circuit state: 0 closed, 1 half-open, 2 open",
            labels={"breaker": name},
        ).set(value)
        self.counter(
            "repro_service_breaker_transitions_total",
            "Circuit breaker state transitions",
            labels={"breaker": name, "to": state},
        ).inc()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All metrics as one plain dictionary (stable name order)."""
        out: dict = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": {
                        ("+Inf" if math.isinf(le) else repr(le)): n
                        for le, n in metric.cumulative()
                    },
                }
            else:
                out[name] = metric.value
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The snapshot in the Prometheus text exposition format.

        Labelled metrics (registered through the ``labels=`` argument,
        stored under canonical keys like
        ``repro_sink_errno_total{errno="enospc"}``) share one metric
        family: ``HELP``/``TYPE`` are emitted once per base name, and
        each labelled sample on its own line — exactly how a Prometheus
        scraper expects label sets of the same family to arrive.
        """
        lines: list[str] = []
        described: set[str] = set()
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            base = name.split("{", 1)[0]
            if base not in described:
                described.add(base)
                if metric.help:
                    lines.append(f"# HELP {base} {metric.help}")
                lines.append(f"# TYPE {base} {metric.kind}")
            if isinstance(metric, Histogram):
                for le, n in metric.cumulative():
                    label = "+Inf" if math.isinf(le) else repr(le)
                    lines.append(f'{name}_bucket{{le="{label}"}} {n}')
                lines.append(f"{name}_sum {metric.sum!r}")
                lines.append(f"{name}_count {metric.count}")
            else:
                lines.append(f"{name} {metric.value}")
        return "\n".join(lines) + "\n"


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry the library records into."""
    return _registry


def reset_registry() -> MetricsRegistry:
    """Replace the global registry with a fresh one (start of a run)."""
    global _registry
    _registry = MetricsRegistry()
    return _registry
