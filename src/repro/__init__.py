"""Compact Similarity Joins — a full reproduction of Bryan, Eberhardt &
Faloutsos, ICDE 2008.

A similarity join reports every pair of points within a query range; in
locally dense data its output explodes quadratically.  This library
implements the paper's lossless *compact* join output — groups of mutually
qualifying points — together with every substrate the paper relies on:
R-tree / R*-tree / M-tree indexes, bulk loaders, the epsilon-grid-order
join, dataset generators, and the full experiment harness reproducing the
paper's figures.

Quickstart::

    import numpy as np
    from repro import similarity_join

    points = np.random.default_rng(0).random((10_000, 2))
    result = similarity_join(points, eps=0.01, algorithm="csj", g=10)
    print(result.stats.groups_emitted, "groups,",
          result.stats.links_emitted, "residual links,",
          result.output_bytes, "output bytes")

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record.
"""

from repro.api import (
    build_index,
    maintained_join,
    open_service,
    similarity_join,
    spatial_join_datasets,
)
from repro.dynamic import MaintainedJoin
from repro.core import (
    CallbackSink,
    CollectSink,
    CountingSink,
    EquivalenceReport,
    JoinResult,
    JoinSink,
    TextSink,
    brute_force_links,
    check_equivalence,
    compact_spatial_join,
    connected_components,
    count_links,
    csj,
    expand_result,
    find_outliers,
    group_size_profile,
    make_sink,
    metric_similarity_join,
    ncsj,
    rank_by_isolation,
    spatial_hash_join,
    spatial_join,
    ssj,
)
from repro.errors import (
    EXIT_CODES,
    AdmissionRejectedError,
    BudgetExceededError,
    CheckpointCorruptError,
    CircuitOpenError,
    InvalidInputError,
    PoisonTaskError,
    ReproError,
    SinkIOError,
    WorkerPoolError,
)
from repro.obs import (
    MetricsRegistry,
    ProgressHeartbeat,
    Tracer,
    configure_logging,
    configure_tracing,
    get_logger,
    get_registry,
    run_context,
)
from repro.parallel import parallel_join
from repro.geometry import MBR, Ball, Metric, get_metric
from repro.index import (
    MTree,
    RStarTree,
    RTree,
    SpatialIndex,
    bulk_load,
    load_index,
    save_index,
)
from repro.service import (
    CircuitBreaker,
    JoinRequest,
    JoinService,
    RequestOutcome,
    ResultCache,
    ServiceConfig,
)
from repro.resilience import (
    AtomicTextSink,
    Budget,
    CheckpointedJoin,
    FlakyIndex,
    FlakySink,
    FlakyWorker,
    RetryingSink,
)
from repro.stats import JoinStats, correlation_dimension

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # high-level API
    "similarity_join",
    "spatial_join_datasets",
    "build_index",
    "maintained_join",
    "MaintainedJoin",
    "ResultCache",
    "open_service",
    "JoinService",
    "JoinRequest",
    "RequestOutcome",
    "ServiceConfig",
    "CircuitBreaker",
    "parallel_join",
    # algorithms
    "ssj",
    "ncsj",
    "csj",
    "spatial_join",
    "compact_spatial_join",
    "spatial_hash_join",
    "metric_similarity_join",
    "brute_force_links",
    "count_links",
    # verification and mining
    "check_equivalence",
    "expand_result",
    "EquivalenceReport",
    "find_outliers",
    "group_size_profile",
    "rank_by_isolation",
    "connected_components",
    "correlation_dimension",
    # results and sinks
    "JoinResult",
    "JoinSink",
    "CollectSink",
    "CountingSink",
    "CallbackSink",
    "TextSink",
    "make_sink",
    "JoinStats",
    # geometry and indexes
    "MBR",
    "Ball",
    "Metric",
    "get_metric",
    "SpatialIndex",
    "RTree",
    "RStarTree",
    "MTree",
    "bulk_load",
    "save_index",
    "load_index",
    # errors and resilience
    "ReproError",
    "InvalidInputError",
    "BudgetExceededError",
    "SinkIOError",
    "CheckpointCorruptError",
    "PoisonTaskError",
    "WorkerPoolError",
    "AdmissionRejectedError",
    "CircuitOpenError",
    "EXIT_CODES",
    "Budget",
    "CheckpointedJoin",
    "AtomicTextSink",
    "RetryingSink",
    "FlakySink",
    "FlakyIndex",
    "FlakyWorker",
    # observability
    "configure_logging",
    "get_logger",
    "run_context",
    "MetricsRegistry",
    "get_registry",
    "Tracer",
    "configure_tracing",
    "ProgressHeartbeat",
]
