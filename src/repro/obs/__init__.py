"""Observability: structured logs, metrics, trace spans, progress.

A zero-dependency cross-cutting layer over the join library:

* :mod:`repro.obs.logging` — JSON-lines (or plain) logging with
  run-scoped context behind a ``NullHandler``-safe ``repro`` logger
  hierarchy; silent until :func:`configure_logging` opts in.
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry
  exportable as JSON or Prometheus text; snapshots
  :class:`~repro.stats.counters.JoinStats`, budget state, sink retries,
  checkpoint journal events and worker-pool health.
* :mod:`repro.obs.tracing` — phase-level trace spans (``descend``,
  ``emit``, ``checkpoint``) written as JSON lines to a
  per-run trace file; a no-op until :func:`configure_tracing` opts in.
  Summarise with ``scripts/trace_report.py``.
* :mod:`repro.obs.progress` — a periodic heartbeat logging live
  counters of a long run.

Everything is opt-in and the disabled paths are designed to cost
nothing measurable (``benchmarks/bench_obs_overhead.py`` enforces
< 5 % on a paper-scale workload); the CLI wires the layer to the
``--log-json`` / ``--log-level`` / ``--trace`` / ``--metrics-out`` /
``--progress`` flags.
"""

from repro.obs.logging import (
    JsonFormatter,
    bind_context,
    configure_logging,
    current_context,
    get_logger,
    log_mode,
    reset_logging,
    run_context,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.obs.progress import ProgressHeartbeat
from repro.obs.tracing import (
    Tracer,
    configure_tracing,
    disable_tracing,
    get_tracer,
    span,
    trace_event,
    tracing_enabled,
)

__all__ = [
    # logging
    "JsonFormatter",
    "bind_context",
    "configure_logging",
    "current_context",
    "get_logger",
    "log_mode",
    "reset_logging",
    "run_context",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    # tracing
    "Tracer",
    "configure_tracing",
    "disable_tracing",
    "get_tracer",
    "span",
    "trace_event",
    "tracing_enabled",
    # progress
    "ProgressHeartbeat",
]
