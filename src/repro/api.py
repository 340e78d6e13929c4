"""High-level convenience API.

One call builds the index and runs the chosen join:

>>> import numpy as np
>>> from repro import similarity_join
>>> pts = np.random.default_rng(0).random((500, 2))
>>> result = similarity_join(pts, eps=0.05, algorithm="csj", g=10)
>>> result.stats.groups_emitted + result.stats.links_emitted > 0
True

For repeated joins over the same data build the index once with
:func:`build_index` and call :func:`repro.core.ssj.ssj` /
:func:`repro.core.csj.csj` directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.core.csj import csj as _csj
from repro.core.csj import ncsj as _ncsj
from repro.core.dual import compact_spatial_join, spatial_join
from repro.core.egrid import egrid_join
from repro.core.metricspace import check_object_metric
from repro.core.partitioned import pbsm_join
from repro.core.results import JoinResult, JoinSink
from repro.core.ssj import ssj as _ssj
from repro.errors import (
    InvalidInputError,
    validate_eps,
    validate_execution,
    validate_points,
)
from repro.index import SpatialIndex, bulk_load, get_index_class
from repro.obs.logging import get_logger

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = [
    "build_index",
    "similarity_join",
    "spatial_join_datasets",
    "maintained_join",
    "open_service",
]

logger = get_logger("api")

ALGORITHMS = ("ssj", "ncsj", "csj", "egrid", "egrid-csj", "pbsm", "pbsm-csj")


def build_index(
    points: np.ndarray,
    index: Union[str, SpatialIndex] = "rstar",
    metric: object = None,
    max_entries: int = 64,
    bulk: Optional[str] = None,
) -> SpatialIndex:
    """Build (or pass through) a spatial index over ``points``.

    ``index`` may be an index name (``"rtree"``, ``"rstar"``, ``"mtree"``)
    or an already-built :class:`~repro.index.base.SpatialIndex`.  ``bulk``
    selects a bulk-loading method (``"str"``, ``"hilbert"``, ``"omt"``) for
    the R-tree family instead of one-by-one insertion.
    """
    if isinstance(index, SpatialIndex):
        return index
    points = validate_points(points)
    cls = get_index_class(index)
    from repro.index.rtree import RTree

    if bulk is not None and issubclass(cls, RTree):
        return bulk_load(
            points, method=bulk, tree_class=cls, metric=metric, max_entries=max_entries
        )
    # The M-tree (and any non-rectangle index) is built by insertion.
    return cls(points, metric=metric, max_entries=max_entries)


def similarity_join(
    points: np.ndarray,
    eps: float,
    algorithm: str = "csj",
    g: int = 10,
    index: Union[str, SpatialIndex] = "rstar",
    metric: object = None,
    sink: Optional[JoinSink] = None,
    max_entries: int = 64,
    bulk: Optional[str] = "str",
    budget: Optional["Budget"] = None,
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> JoinResult:
    """Similarity self-join of ``points`` with query range ``eps``.

    ``algorithm`` is one of

    * ``"ssj"`` — standard join, every qualifying pair individually;
    * ``"ncsj"`` — naive compact join (tree-node early stopping);
    * ``"csj"`` — compact join with a ``g``-recent-group merge window;
    * ``"egrid"`` / ``"egrid-csj"`` — the index-free epsilon-grid-order
      join, plain or with the compact extension;
    * ``"pbsm"`` / ``"pbsm-csj"`` — the partition-based spatial-merge
      join, plain or compact.

    Tree algorithms build the index named by ``index`` (bulk-loaded with
    ``bulk`` by default); pass a prebuilt index to amortise that cost.

    Inputs are validated here — empty, non-2-D or non-finite point arrays
    and non-positive ranges raise
    :class:`~repro.errors.InvalidInputError` before any tree code runs.
    ``budget`` bounds the run cooperatively; see
    :class:`~repro.resilience.budget.Budget`.

    ``workers`` > 1 executes the join across a supervised worker pool
    (:func:`repro.parallel.parallel_join`) with ``task_timeout`` as the
    per-task wall-clock limit; output is byte-identical to the serial
    run.  ``workers`` of ``None``, 0 or 1 stays in-process.  Both
    settings are validated up front, on the serial path too.

    ``metric`` may be an :class:`~repro.core.metricspace.ObjectMetric`
    for the tree joins (``ssj``, ``ncsj``, ``csj``) on an M-tree, whose
    compact groups are then balls; every other combination raises
    :class:`~repro.errors.InvalidInputError` before any index is built.
    :func:`~repro.core.metricspace.metric_similarity_join` builds the
    M-tree over arbitrary objects and runs this join on it.
    """
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    points = validate_points(points)
    eps = validate_eps(eps)
    if g < 0:
        raise InvalidInputError(f"window size g must be >= 0, got {g}")
    validate_execution(workers, task_timeout)
    check_object_metric(
        index.metric if isinstance(index, SpatialIndex) else metric, algorithm, index
    )
    logger.debug(
        "similarity join starting",
        extra={
            "algorithm": algorithm,
            "points": int(points.shape[0]),
            "eps": eps,
            "g": g,
            "workers": workers,
        },
    )
    if workers is not None and workers > 1:
        from repro.parallel import parallel_join  # deferred: heavy machinery

        if isinstance(index, SpatialIndex):
            raise InvalidInputError(
                "parallel execution rebuilds the index per worker; pass the "
                "index *name*, not a prebuilt index"
            )
        return parallel_join(
            points,
            eps,
            algorithm=algorithm,
            g=g,
            workers=workers,
            sink=sink,
            index=index,
            metric=metric,
            max_entries=max_entries,
            bulk=bulk,
            budget=budget,
            task_timeout=task_timeout,
        )
    if algorithm == "egrid":
        return egrid_join(
            points, eps, compact=False, sink=sink, metric=metric, budget=budget
        )
    if algorithm == "egrid-csj":
        return egrid_join(
            points, eps, compact=True, g=g, sink=sink, metric=metric, budget=budget
        )
    if algorithm == "pbsm":
        return pbsm_join(
            points, eps, compact=False, sink=sink, metric=metric, budget=budget
        )
    if algorithm == "pbsm-csj":
        return pbsm_join(
            points, eps, compact=True, g=g, sink=sink, metric=metric, budget=budget
        )
    tree = build_index(points, index, metric=metric, max_entries=max_entries, bulk=bulk)
    if algorithm == "ssj":
        return _ssj(tree, eps, sink=sink, budget=budget)
    if algorithm == "ncsj":
        return _ncsj(tree, eps, sink=sink, budget=budget)
    return _csj(tree, eps, g=g, sink=sink, budget=budget)


def maintained_join(
    points: np.ndarray,
    eps: float,
    g: int = 10,
    index: Union[str, SpatialIndex] = "rstar",
    metric: object = None,
    max_entries: int = 64,
):
    """Materialize a compact join and keep it consistent under updates.

    Returns a :class:`~repro.dynamic.MaintainedJoin`: call ``insert`` /
    ``delete`` to update it, ``result()`` for the current output, and
    ``expanded_links()`` for verification — expansion-equivalent to a
    from-scratch :func:`similarity_join` over the live points after any
    update sequence.
    """
    from repro.dynamic import MaintainedJoin  # deferred: imports core.csj

    return MaintainedJoin(
        points,
        eps,
        g=g,
        metric=metric,
        index=index,
        max_entries=max_entries,
    )


def open_service(
    queue_depth: int = 8,
    deadline_ms: Optional[float] = None,
    executors: int = 1,
    workers: int = 1,
    **config_kwargs,
):
    """Open an overload-resilient :class:`~repro.service.JoinService`.

    The serving counterpart of :func:`similarity_join`: submit
    :class:`~repro.service.JoinRequest` s (or a whole batch via
    ``serve``) and get exactly one typed outcome per request — served
    exactly, degraded to the analytic estimator (``degraded=True``),
    shed with a ``Retry-After`` hint
    (:class:`~repro.errors.AdmissionRejectedError`, exit 9), or failed
    fast on an open circuit (:class:`~repro.errors.CircuitOpenError`,
    exit 10).

    ``queue_depth`` bounds the admission queue; ``deadline_ms`` is the
    default per-request deadline in **milliseconds** (matching the CLI's
    ``--deadline-ms``), measured from submission and propagated
    end-to-end.  Close the service (it is a context manager) to drain
    the executors.
    """
    from repro.service import JoinService, ServiceConfig  # deferred: threads

    return JoinService(
        ServiceConfig(
            queue_depth=queue_depth,
            executors=executors,
            default_deadline=None if deadline_ms is None else deadline_ms / 1000.0,
            workers=workers,
            **config_kwargs,
        )
    )


def spatial_join_datasets(
    points_a: np.ndarray,
    points_b: np.ndarray,
    eps: float,
    compact: bool = True,
    g: int = 10,
    index: str = "rstar",
    metric: object = None,
    sink: Optional[JoinSink] = None,
    max_entries: int = 64,
    bulk: Optional[str] = "str",
) -> JoinResult:
    """Spatial join between two datasets (Section IV-D).

    Builds one index per dataset and runs the dual-tree join; with
    ``compact`` the output uses group pairs, otherwise individual links.
    """
    tree_a = build_index(points_a, index, metric=metric, max_entries=max_entries, bulk=bulk)
    tree_b = build_index(points_b, index, metric=metric, max_entries=max_entries, bulk=bulk)
    if compact:
        return compact_spatial_join(tree_a, tree_b, eps, g=g, sink=sink)
    return spatial_join(tree_a, tree_b, eps, sink=sink)
