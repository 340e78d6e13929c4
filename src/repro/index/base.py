"""The index contract that the join algorithms rely on.

A tree index satisfies the contract if

1. every node exposes a *bounding shape* obeying the inclusion property
   (parents cover children), and
2. the shape supports three bounds, each computable in constant time:
   an upper bound on the pairwise distance of covered points
   (:meth:`IndexNode.diameter`), a lower bound on the distance between two
   nodes (:meth:`IndexNode.min_dist`), and an upper bound on the pairwise
   distance of points covered by either of two nodes
   (:meth:`IndexNode.union_diameter`).

Those three bounds are the *only* geometric operations in
:mod:`repro.core.ssj` and :mod:`repro.core.csj`; this is what makes the
algorithms index-independent (Experiment 4 of the paper).
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from typing import Iterator, Optional

import numpy as np

from repro.errors import InvalidInputError
from repro.geometry.metrics import Metric, get_metric

__all__ = ["IndexNode", "SpatialIndex", "IndexInvariantError"]


class IndexInvariantError(AssertionError):
    """Raised by :meth:`SpatialIndex.validate` when a tree is malformed."""


class IndexNode(ABC):
    """A node of a spatial index tree.

    ``level`` is 0 for leaves and increases toward the root.  Leaves hold
    ``entry_ids`` (indices into the tree's point array); internal nodes
    hold ``children``.
    """

    __slots__ = ("level", "children", "entry_ids", "_subtree_ids")

    def __init__(self, level: int):
        self.level = level
        self.children: list["IndexNode"] = []
        self.entry_ids: list[int] = []
        self._subtree_ids: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def fanout(self) -> int:
        """Number of direct children (entries for a leaf)."""
        return len(self.entry_ids) if self.is_leaf else len(self.children)

    def subtree_ids(self) -> np.ndarray:
        """All point ids stored in this subtree, cached after first use.

        Caches are invalidated along the insertion path by the trees, so it
        is safe to interleave queries and updates.
        """
        if self._subtree_ids is None:
            if self.is_leaf:
                self._subtree_ids = np.asarray(self.entry_ids, dtype=np.intp)
            else:
                parts = [child.subtree_ids() for child in self.children]
                self._subtree_ids = (
                    np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
                )
        return self._subtree_ids

    def invalidate_cache(self) -> None:
        """Drop the cached subtree-id array (after structural changes)."""
        self._subtree_ids = None

    def subtree_count(self) -> int:
        """Number of points stored in this subtree."""
        return int(self.subtree_ids().shape[0])

    # -- geometric contract -------------------------------------------------
    @abstractmethod
    def diameter(self, metric: Metric) -> float:
        """Upper bound on the distance between any two covered points."""

    @abstractmethod
    def min_dist(self, other: "IndexNode", metric: Metric) -> float:
        """Lower bound on the distance between points of the two nodes."""

    @abstractmethod
    def union_diameter(self, other: "IndexNode", metric: Metric) -> float:
        """Upper bound on pairwise distances over the union of both nodes."""

    @abstractmethod
    def min_dist_point(self, point: np.ndarray, metric: Metric) -> float:
        """Lower bound on the distance from ``point`` to any covered point."""

    @abstractmethod
    def covers(self, child: "IndexNode") -> bool:
        """Inclusion property check: does this node's shape cover ``child``'s?"""

    @abstractmethod
    def covers_point(self, point: np.ndarray, metric: Metric) -> bool:
        """Does this node's bounding shape contain ``point``?"""


class SpatialIndex(ABC):
    """Base class for the tree indexes.

    Subclasses implement :meth:`_build` (and optionally incremental
    maintenance); queries, traversal, statistics and invariant validation
    are provided generically on top of the :class:`IndexNode` contract.
    """

    #: Name used by CLI / experiment tables.
    name: str = "abstract"

    #: Tombstone fraction beyond which :meth:`need_compact` reports True.
    compact_threshold: float = 0.5
    #: Minimum tombstone count before compaction is ever suggested —
    #: small trees are cheaper to carry than to rebuild.
    compact_min_deleted: int = 64

    def __init__(
        self,
        points: np.ndarray,
        metric: object = None,
        max_entries: int = 64,
        min_fill: float = 0.4,
    ):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a (n, d) array, got shape {pts.shape}")
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError(f"min_fill must be in (0, 0.5], got {min_fill}")
        self.metric = get_metric(metric)
        self.max_entries = int(max_entries)
        self.min_entries = max(1, int(max_entries * min_fill))
        self.root: Optional[IndexNode] = None
        self._init_dynamic_state(pts)
        if len(pts):
            self._build()

    def _init_dynamic_state(
        self, points: np.ndarray, deleted: Optional[set[int]] = None
    ) -> None:
        """Install the mutable point-store state.

        Shared by ``__init__`` and the bypass constructors
        (``from_packed_root``, the persistence loader) so every tree —
        however it was built — carries identical update bookkeeping.
        """
        #: Logical point array: row index is the point id.  A view of
        #: :attr:`_backing` so appends are amortised O(1).
        self.points = np.asarray(points, dtype=float)
        self._backing = self.points
        #: Until the first mutating insert the backing array may be the
        #: caller's own array; writes must copy-on-first-write so updates
        #: never corrupt data the caller (or a sibling index) still holds.
        self._owns_backing = False
        #: Row ids removed by delete(); validate() excludes them from the
        #: partition check and add_point() reuses them as free slots.
        self._deleted: set[int] = set(deleted) if deleted else set()
        #: Min-heap mirror of :attr:`_deleted` giving deterministic
        #: (lowest-id-first) slot reuse.  May hold stale entries for ids
        #: resurrected by a direct ``insert``; consumers re-check
        #: membership in :attr:`_deleted`.
        self._free_slots: list[int] = sorted(self._deleted)
        #: Monotonic counter of structural mutations (insert / delete /
        #: add_point / compact / rebuild).  Derived flattened views — the
        #: memoized :func:`repro.index.packed.pack_index` result — key on
        #: it, so a stale pack can never be served after the tree changes
        #: shape.
        self._structure_version = getattr(self, "_structure_version", 0) + 1
        #: ``(structure_version, PackedIndex | None)`` memo; see
        #: :func:`repro.index.packed.pack_index`.
        self._packed_cache: Optional[tuple[int, object]] = None

    # -- construction -------------------------------------------------------
    @abstractmethod
    def _build(self) -> None:
        """Populate :attr:`root` from :attr:`points`."""

    # -- incremental maintenance --------------------------------------------
    def insert(self, pid: int) -> None:
        """Insert the point with id ``pid`` (a row of :attr:`points`).

        Template method, like :meth:`delete`: the concrete tree's
        :meth:`_insert` does the structural work, while the tombstone is
        cleared and the structure version bumped here, so a direct insert
        (the resurrection of a deleted id) never leaves a stale memoized
        pack behind.
        """
        pid = int(pid)
        self._deleted.discard(pid)
        self._structure_version += 1
        self._insert(pid)

    def _insert(self, pid: int) -> None:  # pragma: no cover - interface
        """Physically insert ``pid`` into the tree."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental insertion"
        )

    def _remove(self, pid: int) -> bool:
        """Physically remove ``pid`` from the tree; return whether found.

        Subclasses implement the structural surgery only — tombstone
        bookkeeping is handled uniformly by :meth:`delete`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support deletion"
        )

    def delete(self, pid: int) -> bool:
        """Remove point id ``pid``; returns whether it was found.

        Template method: the concrete tree's :meth:`_remove` does the
        structural work, while the tombstone (:attr:`_deleted`) and the
        free-slot heap are recorded here so every index — R-tree, R*-tree,
        M-tree, and anything future — keeps identical delete bookkeeping.
        """
        pid = int(pid)
        if pid < 0 or pid >= len(self.points) or pid in self._deleted:
            return False
        if not self._remove(pid):
            return False
        self._deleted.add(pid)
        heapq.heappush(self._free_slots, pid)
        self._structure_version += 1
        return True

    def add_point(self, coords: np.ndarray, pid: Optional[int] = None) -> int:
        """Insert a *new* point and return its id.

        Reuses the lowest tombstoned row when one exists (so sustained
        insert/delete churn does not grow the point array without bound);
        otherwise appends with amortised-O(1) capacity doubling.  An
        explicit ``pid`` must name a reusable slot or the append position.
        """
        coords = np.asarray(coords, dtype=float).ravel()
        if len(self.points) and coords.shape != (self.points.shape[1],):
            raise InvalidInputError(
                f"point has dimension {coords.shape[0]}, index holds "
                f"{self.points.shape[1]}-dimensional points"
            )
        if not np.isfinite(coords).all():
            raise InvalidInputError("point coordinates must be finite")
        if pid is not None:
            pid = int(pid)
            if pid != len(self.points) and pid not in self._deleted:
                raise InvalidInputError(
                    f"pid {pid} is neither a free slot nor the append "
                    f"position {len(self.points)}"
                )
        else:
            while self._free_slots:
                candidate = heapq.heappop(self._free_slots)
                if candidate in self._deleted:  # skip stale heap entries
                    pid = candidate
                    break
        if pid is None or pid == len(self.points):
            pid = len(self.points)
            self._grow(pid + 1)
        if not self._owns_backing:
            self._own_backing()
        self.points[pid] = coords
        self.insert(pid)
        return pid

    def _grow(self, n: int) -> None:
        """Extend the logical point array to ``n`` rows."""
        capacity = len(self._backing)
        if n > capacity:
            new_cap = max(n, 2 * capacity, 8)
            dim = self.points.shape[1] if self.points.ndim == 2 else 1
            backing = np.empty((new_cap, dim), dtype=float)
            backing[: len(self.points)] = self.points
            self._backing = backing
            self.points = self._backing[:n]
            self._owns_backing = True
            self._points_rebound()
        else:
            self.points = self._backing[:n]

    def _own_backing(self) -> None:
        """Copy-on-first-write: take ownership of the backing buffer.

        Constructors adopt the caller's array without copying (queries
        never mutate it); the first slot write must detach from it, or
        reusing a tombstoned row would silently corrupt the caller's
        data.
        """
        n = len(self.points)
        self._backing = self.points.copy()
        self.points = self._backing[:n]
        self._owns_backing = True
        self._points_rebound()

    def _points_rebound(self) -> None:
        """Hook: the backing buffer was reallocated (or replaced).

        Trees that cache views into :attr:`points` (the M-tree's node
        centers) refresh them here so the old buffer can be collected.
        """

    def need_compact(self) -> bool:
        """Whether tombstones warrant a physical :meth:`compact`."""
        n_deleted = len(self._deleted)
        return (
            n_deleted >= self.compact_min_deleted
            and n_deleted >= self.compact_threshold * len(self.points)
        )

    def compact(self) -> dict[int, int]:
        """Drop tombstoned rows, rebuild, and return the id remapping.

        Live rows keep their relative order but are renumbered densely
        from 0, so *every external id reference must be remapped* with
        the returned ``{old_id: new_id}`` dictionary.  Clears
        :attr:`_deleted` and releases the freed memory.
        """
        live = [i for i in range(len(self.points)) if i not in self._deleted]
        mapping = {old: new for new, old in enumerate(live)}
        pts = np.ascontiguousarray(self.points[live])
        self.root = None
        self._init_dynamic_state(pts)
        self._owns_backing = True  # fancy indexing above made a fresh copy
        self._points_rebound()
        if len(pts):
            self._build()
        return mapping

    # -- generic queries ----------------------------------------------------
    def range_query(self, point: np.ndarray, radius: float) -> np.ndarray:
        """Ids of stored points with distance strictly below ``radius``.

        Strict inequality matches the join semantics used throughout the
        paper's pseudo-code ("distance ... < range").
        """
        p = np.asarray(point, dtype=float)
        if self.root is None:
            return np.empty(0, dtype=np.intp)
        hits: list[np.ndarray] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.min_dist_point(p, self.metric) >= radius:
                continue
            if node.is_leaf:
                ids = np.asarray(node.entry_ids, dtype=np.intp)
                dists = self.metric.point_to_points(p, self.points[ids])
                hits.append(ids[dists < radius])
            else:
                stack.extend(node.children)
        if not hits:
            return np.empty(0, dtype=np.intp)
        return np.sort(np.concatenate(hits))

    def nearest(self, point: np.ndarray, k: int = 1) -> np.ndarray:
        """Ids of the ``k`` nearest stored points, closest first.

        Classic best-first (branch-and-bound) search: nodes are expanded
        in order of their minimum possible distance and pruned once ``k``
        candidates closer than the node's bound are known.  Ties are
        broken by id for determinism.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if self.root is None:
            return np.empty(0, dtype=np.intp)
        p = np.asarray(point, dtype=float)
        counter = itertools.count()
        frontier = [(self.root.min_dist_point(p, self.metric), next(counter), self.root)]
        # Max-heap of the best k candidates as (-distance, id).
        best: list[tuple[float, int]] = []
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            # Prune only on a strictly larger bound: a node at exactly the
            # worst distance may still hold an equal-distance smaller id,
            # which the deterministic tie-break prefers.
            if len(best) == k and bound > -best[0][0]:
                break
            if node.is_leaf:
                ids = np.asarray(node.entry_ids, dtype=np.intp)
                if not len(ids):
                    continue
                dists = self.metric.point_to_points(p, self.points[ids])
                for dist, pid in zip(dists.tolist(), ids.tolist()):
                    if len(best) < k:
                        heapq.heappush(best, (-dist, -pid))
                    elif (dist, pid) < (-best[0][0], -best[0][1]):
                        heapq.heapreplace(best, (-dist, -pid))
            else:
                for child in node.children:
                    child_bound = child.min_dist_point(p, self.metric)
                    if len(best) < k or child_bound <= -best[0][0]:
                        heapq.heappush(frontier, (child_bound, next(counter), child))
        ordered = sorted((-nd, -nid) for nd, nid in best)
        return np.array([pid for _, pid in ordered], dtype=np.intp)

    # -- traversal and statistics --------------------------------------------
    def nodes(self) -> Iterator[IndexNode]:
        """Pre-order iterator over all nodes."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def leaves(self) -> Iterator[IndexNode]:
        """Iterator over leaf nodes."""
        return (node for node in self.nodes() if node.is_leaf)

    @property
    def size(self) -> int:
        """Number of rows in the backing point array."""
        return len(self.points)

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self.points.shape[1] if self.points.ndim == 2 else 0

    @property
    def height(self) -> int:
        """Number of levels; a single-leaf tree has height 1."""
        return self.root.level + 1 if self.root is not None else 0

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        return sum(1 for _ in self.nodes())

    def leaf_count(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for _ in self.leaves())

    # -- invariant checking ---------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`IndexInvariantError`.

        Checks: the inclusion property, consistent levels, fanout limits
        (root excepted), and that leaf entries exactly partition the point
        ids.  Used heavily by the test suite after random update sequences.
        """
        if len(self.points) - len(self._deleted) == 0:
            # No *live* points: deleting every entry legitimately leaves a
            # tombstoned backing array with no root (or an empty one).
            if self.root is not None and self.root.subtree_count() != 0:
                raise IndexInvariantError("empty index with a non-empty root")
            return
        if self.root is None:
            raise IndexInvariantError("non-empty index without a root")

        seen: list[int] = []
        for node in self.nodes():
            if node.is_leaf:
                if node.children:
                    raise IndexInvariantError("leaf node with children")
                if not node.entry_ids and node is not self.root:
                    raise IndexInvariantError("empty non-root leaf")
                seen.extend(node.entry_ids)
                if node is not self.root and not (
                    self.min_entries <= len(node.entry_ids) <= self.max_entries
                ):
                    raise IndexInvariantError(
                        f"leaf fanout {len(node.entry_ids)} outside "
                        f"[{self.min_entries}, {self.max_entries}]"
                    )
                for pid in node.entry_ids:
                    if not node.covers_point(self.points[pid], self.metric):
                        raise IndexInvariantError(
                            f"leaf does not cover its entry {pid}"
                        )
            else:
                if node.entry_ids:
                    raise IndexInvariantError("internal node with entry ids")
                if not node.children:
                    raise IndexInvariantError("internal node without children")
                if node is not self.root and not (
                    self.min_entries <= len(node.children) <= self.max_entries
                ):
                    raise IndexInvariantError(
                        f"internal fanout {len(node.children)} outside "
                        f"[{self.min_entries}, {self.max_entries}]"
                    )
                for child in node.children:
                    if child.level != node.level - 1:
                        raise IndexInvariantError(
                            f"child level {child.level} under level {node.level}"
                        )
                    if not node.covers(child):
                        raise IndexInvariantError(
                            "inclusion property violated: parent does not "
                            "cover child"
                        )
        expected = set(range(len(self.points))) - self._deleted
        if len(seen) != len(set(seen)) or set(seen) != expected:
            missing = expected - set(seen)
            dupes = len(seen) - len(set(seen))
            raise IndexInvariantError(
                f"leaf entries do not partition the ids: {len(missing)} "
                f"missing, {dupes} duplicated"
            )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.size}, dim={self.dim}, "
            f"height={self.height}, nodes={self.node_count()})"
        )
