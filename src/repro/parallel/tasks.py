"""Serializable join specifications and pure per-task execution.

The parallel executor rests on one structural fact: every supported join
is a deterministic, flat sequence of *work units* (leaf self/cross
joins, early-stopped subtree groups, grid cells, PBSM partitions) whose
canonical order is fixed by the data and the configuration alone —
:func:`repro.core.frontier.traverse` enumerates the tree sequence,
:func:`repro.core.egrid.grid_tasks` the grid sequence, and
:func:`repro.core.partitioned.pbsm_plan` fixes the partition order.

:class:`JoinSpec` is the picklable recipe for one join.  Every process —
the parent and each worker — independently materialises the *same*
:class:`TaskState` from it (index builds, grid bucketing and partition
planning are all deterministic), so a task is fully identified by its
integer position in the canonical sequence.  Workers call
:meth:`TaskState.execute` — a pure function returning serializable
events (the :func:`repro.core.groups.apply_events` vocabulary) plus
counter charges — and the parent replays the deltas *in canonical task
order* through the single sink / CSJ merge window.  Output is therefore
byte-identical for any worker count, including 1, by construction.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Optional

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
    """Everything needed to rebuild one join's task sequence anywhere.

    All fields are plain picklable values (the metric is kept as its
    *specification*, not a metric object) so the spec crosses process
    boundaries under both the ``fork`` and ``spawn`` start methods.
    """

    points: np.ndarray
    eps: float
    algorithm: str = "csj"
    g: int = 10
    index: str = "rstar"
    max_entries: int = 64
    bulk: Optional[str] = "str"
    metric: object = None
    partitions_per_axis: Optional[int] = None
    #: Shared-memory reference to the published ``points`` segment.  When
    #: set, pickling this spec ships the ~200-byte ref instead of the
    #: array and the receiving process re-attaches in ``__setstate__``.
    #: Set means the spec is on the shm data plane; it never affects the
    #: task sequence or the output bytes.
    dataset_ref: Optional[object] = None
    #: Shared-memory reference to the published packed-index arrays
    #: (set lazily by the first ``build_state`` on the owner side).
    packed_ref: Optional[object] = None

    def __post_init__(self) -> None:
        if self.points is None and self.dataset_ref is not None:
            from repro.parallel.shm import attach_points

            self.points = attach_points(self.dataset_ref)
        self.points = validate_points(self.points)
        self.eps = validate_eps(self.eps)
        self.algorithm = str(self.algorithm).lower()
        if self.algorithm not in FAMILIES:
            raise InvalidInputError(
                f"unknown or unsupported algorithm {self.algorithm!r}; "
                f"supported: {tuple(FAMILIES)}"
            )
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

    # ------------------------------------------------------------------
    # Data plane: what crosses the process boundary
    # ------------------------------------------------------------------
    #: Attributes that never cross a process boundary: the owning
    #: :class:`~repro.parallel.shm.SharedDataset` (workers must not
    #: inherit ownership) and the cached pickle of this spec.
    _TRANSIENT = ("_shared", "_spec_bytes")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._TRANSIENT:
            state.pop(name, None)
        if self.dataset_ref is not None:
            # The ref is the dataset: ship ~200 bytes, not the array.
            state["points"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.points is None and self.dataset_ref is not None:
            from repro.parallel.shm import attach_points

            self.points = attach_points(self.dataset_ref)

    def to_bytes(self) -> bytes:
        """This spec pickled once; cached so respawns reuse the bytes."""
        cached = getattr(self, "_spec_bytes", None)
        if cached is None:
            cached = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
            self._spec_bytes = cached
        return cached

    def state_key(self) -> Optional[tuple]:
        """Warm-cache key: dataset fingerprint + join configuration.

        ``None`` (no caching) when the dataset has no fingerprint — i.e.
        neither a :class:`~repro.parallel.shm.SharedDataset` owner nor a
        :class:`~repro.parallel.shm.DatasetRef` is involved, so there is
        no cheap identity to key on.  Which data plane the spec rides
        has no effect on the task sequence and is deliberately absent.
        """
        if self.dataset_ref is not None:
            fingerprint = self.dataset_ref.fingerprint
        else:
            shared = getattr(self, "_shared", None)
            if shared is None:
                return None
            fingerprint = shared.fingerprint
        return (
            fingerprint,
            repr(self.eps),
            self.algorithm,
            self.g,
            self.index,
            self.max_entries,
            self.bulk,
            get_metric(self.metric).name,
            repr(self.metric),
            self.partitions_per_axis,
        )

    def build_state(self) -> "TaskState":
        """Materialise the canonical task sequence (deterministic).

        When the spec is tied to a fingerprinted dataset, built states
        are cached per process: a respawned worker (or the next request
        against a registered dataset) adopts the existing state instead
        of re-attaching and re-enumerating.
        """
        from repro.parallel import shm

        key = self.state_key()
        if key is not None:
            cached = shm.warm_state_get(key)
            if cached is not None:
                state = cached.rebind(self)
                self._restore_packed_ref(state)
                return state
        state = TaskState(self)
        if key is not None:
            shm.warm_state_put(key, state)
        return state

    def _restore_packed_ref(self, state: "TaskState") -> None:
        """Re-derive :attr:`packed_ref` after a warm-cache hit.

        The warm state was built (and its pack possibly published) under
        an earlier spec; this spec must carry its own ref so workers
        spawned for it can adopt instead of rebuilding.  Publishing is
        idempotent for an already-published pack on the same
        ``SharedDataset`` and a single memcpy on a fresh one.
        """
        if (
            self.packed_ref is not None
            or self.dataset_ref is None
            or state.packed is None
        ):
            return
        shared = getattr(self, "_shared", None)
        if shared is None:
            return
        self.packed_ref = shared.publish_packed(
            (self.index, self.max_entries, self.bulk, repr(self.metric)),
            state.packed,
        )


class TaskState:
    """One process's materialisation of a :class:`JoinSpec`.

    Holds the data structures tasks execute against (tree / grid cells /
    partition plan) and the canonical task list.  :meth:`execute` is pure
    with respect to shared join state: it touches no sink and no group
    window, so any process may run any task in any order.
    """

    def __init__(self, spec: JoinSpec):
        from repro.obs.metrics import get_registry

        get_registry().data_plane_event("rebuild")
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
            self.tree = None
            if spec.packed_ref is not None:
                # Zero-copy path: adopt the published packed arrays —
                # no tree is ever built in this process.
                from repro.parallel.shm import attach_packed

                self.packed = attach_packed(spec.packed_ref, self.points, self.metric)
            if self.packed is None:
                self._build_packed(spec)
            if self.packed is not None and len(self.packed.entries) > 1:
                self.tasks = list(
                    traverse(self.packed, self.eps, self.compact, self.walk)
                )
            else:
                self.tasks = []
            if self.tree is not None:
                self.index_name = type(self.tree).name
            else:
                from repro.index import get_index_class

                self.index_name = get_index_class(spec.index).name
        elif self.family == "egrid":
            self.tree = None
            self.tasks = grid_tasks(spec.points, self.eps)
            self.index_name = "egrid"
        else:  # pbsm
            self.tree = None
            if len(spec.points) > 1:
                self.tasks, self.home_of = pbsm_plan(
                    spec.points, self.eps, spec.partitions_per_axis
                )
            else:
                self.tasks = []
            self.index_name = "pbsm"

    def _build_packed(self, spec: JoinSpec) -> None:
        """Build (or reuse) the tree and pack it; publish the pack once."""
        from repro.api import build_index  # deferred: api imports core
        from repro.index.packed import pack_index

        shared = getattr(spec, "_shared", None)
        if shared is not None:
            self.tree = shared.get_tree(
                spec.index,
                max_entries=spec.max_entries,
                bulk=spec.bulk,
                metric=spec.metric,
            )
        else:
            self.tree = build_index(
                spec.points,
                spec.index,
                metric=self.metric,
                max_entries=spec.max_entries,
                bulk=spec.bulk,
            )
        self.packed = pack_index(self.tree)
        if (
            self.packed is not None
            and shared is not None
            and spec.dataset_ref is not None
            and spec.packed_ref is None
        ):
            # Publish once so workers can adopt instead of rebuilding;
            # must happen before the supervisor pickles the spec
            # (build_state precedes start).
            spec.packed_ref = shared.publish_packed(
                (spec.index, spec.max_entries, spec.bulk, repr(spec.metric)),
                self.packed,
            )

    def __len__(self) -> int:
        return len(self.tasks)

    def rebind(self, spec: JoinSpec) -> "TaskState":
        """A shallow clone of this state bound to ``spec``.

        Used by the warm cache: the task sequence and data structures
        are fully determined by the cache key, but the spec carries
        per-request shared-memory references (``dataset_ref``,
        ``packed_ref``) that workers of the *current* request must
        receive.  Everything here is read-only during execution, so
        clones may share it freely.
        """
        if spec is self.spec:
            return self
        clone = object.__new__(TaskState)
        clone.__dict__ = self.__dict__.copy()
        clone.spec = spec
        return clone

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
