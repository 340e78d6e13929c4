"""Join specifications and pure per-task execution.

The parallel executor rests on one structural fact: every supported join
is a deterministic, flat sequence of *work units* (leaf self/cross
joins, early-stopped subtree groups, grid cells, PBSM partitions) whose
canonical order is fixed by the data and the configuration alone —
:func:`repro.core.frontier.traverse` enumerates the tree sequence,
:func:`repro.core.egrid.grid_tasks` the grid sequence, and
:func:`repro.core.partitioned.pbsm_plan` fixes the partition order.

:class:`JoinSpec` is the recipe for one join.  The parent materialises
its :class:`TaskState` once per run, before the first worker starts;
workers are forked and inherit that state, so a task is fully identified
by its integer position in the canonical sequence and nothing but task
ids crosses to a worker.  Workers call :meth:`TaskState.execute` — a
pure function returning serializable events (the
:func:`repro.core.groups.apply_events` vocabulary) plus counter charges
— and the parent replays the deltas *in canonical task order* through
the single sink / CSJ merge window.  Output is therefore byte-identical
for any worker count, including 1, by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Union

import numpy as np

from repro.core.csj import make_window, tree_plan, tree_task_delta, unit_batches
from repro.core.egrid import grid_task_delta, grid_tasks
from repro.core.frontier import traverse
from repro.core.groups import apply_events
from repro.core.metricspace import check_object_metric
from repro.core.partitioned import partition_delta, pbsm_plan
from repro.core.results import JoinSink
from repro.errors import InvalidInputError, validate_eps, validate_points
from repro.geometry.metrics import get_metric
from repro.index.base import SpatialIndex
from repro.stats.counters import JoinStats

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
    partitions_per_axis: Optional[int] = None

    def __post_init__(self) -> None:
        self.algorithm = str(self.algorithm).lower()
        if self.algorithm not in FAMILIES:
            raise InvalidInputError(
                f"unknown or unsupported algorithm {self.algorithm!r}; "
                f"supported: {tuple(FAMILIES)}"
            )
        if isinstance(self.index, SpatialIndex) and self.family == "tree":
            self.points = self.index.points
            self.metric = self.index.metric
        self.points = validate_points(self.points)
        self.eps = validate_eps(self.eps)
        if self.g < 0:
            raise InvalidInputError(f"window size g must be >= 0, got {self.g}")
        if self.algorithm == "ncsj":
            self.g = 0
        self.g = int(self.g)
        check_object_metric(self.metric, self.algorithm, self.index)

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
    cells / partition plan) and the canonical task list.  The parent
    builds it; forked workers inherit it and only read it.
    :meth:`execute` is pure with respect to shared join state: it
    touches no sink and no group window, so any process may run any task
    in any order.
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
            from repro.api import build_index  # deferred: api imports core
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
            self.tasks = grid_tasks(spec.points, self.eps)
            self.index_name = "egrid"
        else:  # pbsm
            if len(spec.points) > 1:
                self.tasks, self.home_of = pbsm_plan(
                    spec.points, self.eps, spec.partitions_per_axis
                )
            else:
                self.tasks = []
            self.index_name = "pbsm"

    def __len__(self) -> int:
        return len(self.tasks)

    # ------------------------------------------------------------------
    # Pure execution
    # ------------------------------------------------------------------
    def execute(self, task_id: int) -> tuple[list, tuple[int, int, int]]:
        """Run one task; returns ``(events, (dc, mbr_checks, early_stops))``.

        Pure: no sink writes, no window mutation, no stats mutation —
        safe to run in any process and to run again on retry with
        identical results.
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

    # ------------------------------------------------------------------
    # Ordered replay (parent)
    # ------------------------------------------------------------------
    def make_buffer(self, sink: JoinSink, stats: JoinStats):
        """The parent-side merge window (``None`` for plain-link joins)."""
        if not self.compact:
            return None
        return make_window(
            self.g, self.eps, sink, self.metric, stats=stats, dim=self.points.shape[1]
        )

    @staticmethod
    def apply(
        events: list,
        counters: tuple[int, int, int],
        sink: JoinSink,
        buffer,
        stats: JoinStats,
    ) -> None:
        """Replay one task's delta into the shared join state (parent only)."""
        dc, mbr, stops = counters
        stats.distance_computations += dc
        stats.mbr_checks += mbr
        stats.early_stops += stops
        apply_events(events, sink, buffer)

    def charge_walk(self, stats: JoinStats) -> None:
        """Charge the listing walk's counters to ``stats``.

        Called once per run, after its last unit lands, so no cursor
        splits them and a resumed run ends with the serial totals.
        """
        stats.nodes_visited += self.walk.nodes_visited
        stats.node_pairs_visited += self.walk.node_pairs_visited
        stats.mbr_checks += self.walk.mbr_checks
