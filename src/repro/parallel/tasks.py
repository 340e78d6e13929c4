"""The one recipe for a self-join, and its materialised work units.

Every supported self-join is a deterministic, flat sequence of *work
units* (leaf self/cross joins, early-stopped subtree groups, grid cells,
PBSM partitions) whose canonical order is fixed by the data and the
configuration alone: :func:`repro.core.frontier.traverse` enumerates the
tree sequence, :func:`repro.core.egrid.grid_tasks` the grid sequence,
and :func:`repro.core.partitioned.pbsm_plan` fixes the partition order.

:class:`JoinSpec` is the recipe for one join, and the one place where a
self-join is named, validated and labelled: :func:`repro.api.similarity_join`,
:func:`repro.parallel.parallel_join`,
:class:`~repro.resilience.checkpoint.CheckpointedJoin` and the serving
layer all build one, and :data:`FAMILIES` is the one list of algorithm
names.  :class:`TaskState` is its materialisation: the index, grid or
partition plan plus the listed units.  :meth:`TaskState.plan` hands the
units from any cursor to the serial join loop,
:func:`repro.core.csj.run_batches`, batched as the serial joins batch
them.  Two runners share that loop: serial tree joins walk the tree
lazily (:func:`repro.core.csj.tree_join`), and everything else runs the
listed units: serial grid and PBSM joins and pool workers with
:meth:`TaskState.run`, checkpointed runs with a journal around the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

import numpy as np

from repro.core.csj import (
    make_window,
    run_batches,
    serial_join,
    tree_plan,
    tree_task_delta,
    unit_batches,
)
from repro.core.egrid import grid_task_delta, grid_tasks
from repro.core.frontier import traverse

# Not called here: perfbench's tracer patches this module attribute by name.
from repro.core.groups import apply_events  # noqa: F401
from repro.core.metricspace import check_object_metric
from repro.core.partitioned import partition_delta, pbsm_plan
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import InvalidInputError, validate_eps, validate_points
from repro.geometry.metrics import get_metric
from repro.index.base import SpatialIndex
from repro.io.writer import width_for
from repro.obs.tracing import span as trace_span
from repro.stats.counters import JoinStats

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = ["FAMILIES", "JoinSpec", "TaskState"]

#: algorithm name -> (family, compact)
FAMILIES = {
    "ssj": ("tree", False),
    "ncsj": ("tree", True),
    "csj": ("tree", True),
    "egrid": ("egrid", False),
    "egrid-csj": ("egrid", True),
    "pbsm": ("pbsm", False),
    "pbsm-csj": ("pbsm", True),
}


@dataclass
class JoinSpec:
    """Everything that fixes one join's task sequence.

    Construction validates the whole request: an unknown algorithm, bad
    points or range, a negative ``g`` or an object metric where a join
    needs coordinates raise :class:`~repro.errors.InvalidInputError`
    before any index, file or process exists.

    ``index`` is an index name or a prebuilt
    :class:`~repro.index.base.SpatialIndex`.  A prebuilt index brings its
    own points and metric to the tree joins, as on the serial path, and
    the grid and partition joins ignore it.
    """

    points: np.ndarray
    eps: float
    algorithm: str = "csj"
    g: int = 10
    index: Union[str, SpatialIndex] = "rstar"
    max_entries: int = 64
    bulk: Optional[str] = "str"
    metric: object = None

    def __post_init__(self) -> None:
        self.algorithm = str(self.algorithm).lower()
        if self.algorithm not in FAMILIES:
            raise InvalidInputError(
                f"unknown algorithm {self.algorithm!r}; known: {tuple(FAMILIES)}"
            )
        prebuilt = isinstance(self.index, SpatialIndex)
        if prebuilt and self.family == "tree":
            self.points = self.index.points
            self.metric = self.index.metric
        self.points = validate_points(self.points)
        self.eps = validate_eps(self.eps)
        if self.g < 0:
            raise InvalidInputError(f"window size g must be >= 0, got {self.g}")
        if self.algorithm == "ncsj":
            self.g = 0
        self.g = int(self.g)
        check_object_metric(
            self.index.metric if prebuilt else self.metric, self.algorithm, self.index
        )

    @property
    def family(self) -> str:
        return FAMILIES[self.algorithm][0]

    @property
    def compact(self) -> bool:
        return FAMILIES[self.algorithm][1]

    def label(self) -> str:
        """The algorithm label recorded on the JoinResult (matches serial)."""
        if self.algorithm == "csj":
            return f"csj({self.g})" if self.g else "ncsj"
        if self.algorithm == "egrid-csj":
            return f"egrid-csj({self.g})" if self.g else "egrid-ncsj"
        if self.algorithm == "pbsm-csj":
            return f"pbsm-csj({self.g})" if self.g else "pbsm-ncsj"
        return self.algorithm

    def build_state(self) -> "TaskState":
        """Materialise the canonical task sequence (deterministic)."""
        return TaskState(self)


class TaskState:
    """One run's materialisation of a :class:`JoinSpec`.

    Holds the data structures tasks execute against (packed tree / grid
    cells / partition plan) and the canonical task list.  Serial grid
    and PBSM joins run it in place; for a pool run the parent builds it
    and a forked worker inherits it and only reads it.
    :meth:`execute` is pure with respect to shared join state: it
    touches no sink and no group window.
    """

    def __init__(self, spec: JoinSpec):
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "repro_taskstate_rebuilds_total",
            "TaskStates built (index build + task enumeration)",
        ).inc()
        self.spec = spec
        self.points = spec.points
        self.metric = get_metric(spec.metric)
        self.eps = spec.eps
        self.compact = spec.compact
        self.family = spec.family
        # Effective merge window: non-compact algorithms never merge.
        self.g = spec.g if spec.compact else 0
        self.home_of: Optional[np.ndarray] = None
        self.packed = None
        self.walk = JoinStats()  # the listing walk's counters: charge_walk

        if self.family == "tree":
            from repro.api import build_index  # deferred: api imports this module
            from repro.index.packed import pack_index

            tree = build_index(
                spec.points,
                spec.index,
                metric=self.metric,
                max_entries=spec.max_entries,
                bulk=spec.bulk,
            )
            self.packed = pack_index(tree)
            if self.packed is not None and len(self.packed.entries) > 1:
                self.tasks = list(
                    traverse(self.packed, self.eps, self.compact, self.walk)
                )
            else:
                self.tasks = []
            self.index_name = type(tree).name
        elif self.family == "egrid":
            with trace_span("grid", algorithm="egrid", points=len(spec.points)):
                self.tasks = grid_tasks(spec.points, self.eps)
            self.index_name = "egrid"
        else:  # pbsm
            self.tasks = []
            if len(spec.points) > 1:
                with trace_span("plan", algorithm="pbsm", points=len(spec.points)):
                    self.tasks, self.home_of = pbsm_plan(spec.points, self.eps)
            self.index_name = "pbsm"

    def __len__(self) -> int:
        return len(self.tasks)

    # ------------------------------------------------------------------
    # Pure execution
    # ------------------------------------------------------------------
    def execute(self, task_id: int) -> tuple[list, tuple[int, int, int]]:
        """Run one task; returns ``(events, (dc, mbr_checks, early_stops))``.

        Pure: no sink writes, no window mutation, no stats mutation, so
        a run resumed at any cursor gets identical results.
        """
        task = self.tasks[task_id]
        if self.family == "tree":
            return tree_task_delta(
                self.points, self.metric, self.eps, self.g, self.packed, task
            )
        if self.family == "egrid":
            return grid_task_delta(
                self.points, self.metric, self.eps, self.compact, task
            )
        return partition_delta(
            self.points, self.metric, self.eps, self.compact, self.home_of, task
        )

    def plan(self, cursor: int = 0) -> tuple[Iterator[list], Callable]:
        """The tasks from ``cursor`` on as ``(batches, execute)`` for
        :func:`repro.core.csj.run_batches`, batched as the serial joins
        batch them (:func:`repro.core.csj.tree_plan`; grid and partition
        units one at a time).  Pure, like :meth:`execute`."""
        if self.family == "tree":
            units = islice(self.tasks, cursor, None)
            return tree_plan(
                units, self.points, self.metric, self.eps, self.g, self.packed
            )
        return unit_batches(range(cursor, len(self.tasks)), self.execute)

    def make_buffer(self, sink: JoinSink, stats: JoinStats):
        """The CSJ(g) merge window over ``sink`` (``None`` for plain-link joins)."""
        if not self.compact:
            return None
        return make_window(
            self.g, self.eps, sink, self.metric, stats=stats, dim=self.points.shape[1]
        )

    def run(
        self, budget: Optional["Budget"] = None, sink: Optional[JoinSink] = None
    ) -> JoinResult:
        """Run the whole join serially into ``sink`` (default: collecting).

        The body of serial grid and PBSM joins and of a pool worker:
        :meth:`plan` through :func:`~repro.core.csj.run_batches` inside
        :func:`~repro.core.csj.serial_join`, as
        :class:`~repro.resilience.checkpoint.CheckpointedJoin` runs it
        minus the journal.  ``budget`` is checked before each batch; a
        breach raises :class:`~repro.errors.BudgetExceededError` with
        the valid prefix attached as ``partial``.
        """
        spec = self.spec
        if sink is None:
            sink = CollectSink(id_width=width_for(len(self.points)))
        stats = sink.stats
        buffer = self.make_buffer(sink, stats)

        def body() -> None:
            with trace_span(
                "descend", algorithm=self.index_name, tasks=len(self.tasks)
            ):
                run_batches(*self.plan(), sink, buffer, stats, budget)
            self.charge_walk(stats)

        result = dict(
            eps=spec.eps, algorithm=spec.label(),
            g=spec.g if spec.compact else None, index_name=self.index_name,
        )
        return serial_join(body, sink, buffer, budget, result, self.index_name)

    def charge_walk(self, stats: JoinStats) -> None:
        """Charge the listing walk's counters to ``stats``.

        Called once per run, after its last unit lands, so no cursor
        splits them and a resumed run ends with the serial totals.
        """
        stats.nodes_visited += self.walk.nodes_visited
        stats.node_pairs_visited += self.walk.node_pairs_visited
        stats.mbr_checks += self.walk.mbr_checks
