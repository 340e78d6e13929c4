"""Incremental maintenance of a materialized compact join.

:class:`MaintainedJoin` materializes one compact self-join — CSJ(g)
groups plus residual links — and keeps it consistent under point
updates without re-running the join:

* **insert** — one ε-range probe against the live index classifies the
  new point.  If some existing group's MBR, extended to cover the
  point, keeps its diagonal strictly below ε, the point is *absorbed*:
  every group member is then provably within ε of it (the diagonal
  bounds all pairwise distances inside the box), so group expansion
  covers those pairs for free.  Neighbors outside the absorbing group
  become residual links.
* **delete** — the point leaves the index, its residual links are
  dropped, and each group containing it shrinks in place (the
  survivors were mutually qualifying before, and removing a member
  cannot break that); degenerate groups dissolve.

**Correctness contract (expansion-equivalence).**  After any sequence
of updates, ``result().expanded_links()`` equals the expanded links of
a from-scratch join over the current live points.  Insert adds exactly
the probe's qualifying pairs (absorbed members via the group, the rest
as links); delete removes exactly the pairs involving the departed
point.  Both directions are property-tested against brute force in
``tests/test_dynamic.py``.

The maintained state is *a* valid compact representation, not
necessarily the byte-identical output CSJ(g) would produce from
scratch — the merge window's history-dependence makes that impossible
to preserve under updates (and irrelevant: the paper's Theorems 1 and 2
speak about the expansion, which is preserved exactly).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Union

import numpy as np

from repro.core.csj import csj as _csj
from repro.core.groups import Group
from repro.core.metricspace import ObjectMetric
from repro.core.results import CollectSink, JoinResult, normalized_link
from repro.errors import InvalidInputError, validate_eps, validate_points
from repro.geometry.metrics import get_metric
from repro.index import SpatialIndex, get_index_class
from repro.io.writer import width_for
from repro.obs.logging import get_logger

__all__ = ["MaintainedJoin", "dataset_fingerprint"]

logger = get_logger("dynamic")


def dataset_fingerprint(points: np.ndarray, live_ids: Iterable[int]) -> str:
    """Content hash of a dataset state: live ids plus their coordinates.

    Two states with the same fingerprint hold the same points under the
    same ids, so any join over them is interchangeable — this is the
    dataset component of the result-cache key.
    """
    ids = np.asarray(sorted(int(i) for i in live_ids), dtype=np.int64)
    digest = hashlib.sha256()
    digest.update(ids.tobytes())
    digest.update(np.ascontiguousarray(points[ids], dtype=float).tobytes())
    return digest.hexdigest()


def _check_vector_metric(metric, index) -> None:
    """Reject an object metric: maintenance keeps rectangle groups."""
    for candidate in (metric, getattr(index, "metric", None)):
        if isinstance(candidate, ObjectMetric):
            raise InvalidInputError(
                f"object metric {candidate.name!r} has no coordinates: a "
                "maintained join bounds its groups by rectangles"
            )


class MaintainedJoin:
    """A compact self-join kept consistent under point updates.

    Parameters mirror :func:`repro.api.similarity_join`'s compact path:
    ``eps`` is the query range, ``g`` the merge-window length used for
    the initial materialization, ``index`` the backing tree (it must
    support ``insert``/``delete``; all three bundled trees do).

    The instance owns its index and point store.  Point ids are stable
    across updates — :meth:`insert` returns the id it assigned (reusing
    tombstoned slots), and ids only move when the caller explicitly
    invokes :meth:`compact`, which returns the remapping.
    """

    def __init__(
        self,
        points: np.ndarray,
        eps: float,
        g: int = 10,
        metric: object = None,
        index: Union[str, SpatialIndex] = "rstar",
        max_entries: int = 64,
    ):
        points = validate_points(points)
        self.eps = validate_eps(eps)
        if g < 0:
            raise InvalidInputError(f"window size g must be >= 0, got {g}")
        _check_vector_metric(metric, index)
        self.g = int(g)
        self.metric = get_metric(metric)
        if isinstance(index, SpatialIndex):
            self.tree = index
        else:
            self.tree = get_index_class(index)(
                points, metric=self.metric, max_entries=max_entries
            )
        #: gid -> Group; gids are never reused.
        self._groups: dict[int, Group] = {}
        self._next_gid = 0
        #: pid -> gids of the groups containing it.
        self._pid_groups: dict[int, set[int]] = {}
        #: Residual links as canonical (min, max) pairs.
        self._links: set[tuple[int, int]] = set()
        #: pid -> ids it is residually linked to.
        self._pid_links: dict[int, set[int]] = {}
        #: Update counters (feed the service metrics).
        self.counts = {"inserts": 0, "deletes": 0, "absorbed": 0, "residual": 0}
        self._materialize()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        """From-scratch CSJ(g) run seeding the maintained state."""
        sink = CollectSink(id_width=width_for(len(self.tree.points)))
        result = _csj(self.tree, self.eps, self.g, sink)
        self._seed(result)

    @classmethod
    def from_result(
        cls,
        points: np.ndarray,
        result: JoinResult,
        metric: object = None,
        index: Union[str, SpatialIndex] = "rstar",
        max_entries: int = 64,
    ) -> "MaintainedJoin":
        """Adopt an already-computed compact join instead of recomputing.

        ``result`` must be a *compact self-join* result over exactly
        ``points`` (links + groups; group pairs are a spatial-join
        artifact and rejected).  The index is still built — updates need
        it — but the O(n log n + output) join phase is skipped.
        """
        if result.group_pairs:
            raise InvalidInputError(
                "from_result needs a self-join result; group pairs imply "
                "a two-dataset spatial join"
            )
        _check_vector_metric(metric, index)
        self = cls.__new__(cls)
        points = validate_points(points)
        self.eps = validate_eps(result.eps)
        self.g = int(result.g) if result.g is not None else 10
        self.metric = get_metric(metric)
        if isinstance(index, SpatialIndex):
            self.tree = index
        else:
            self.tree = get_index_class(index)(
                points, metric=self.metric, max_entries=max_entries
            )
        self._groups = {}
        self._next_gid = 0
        self._pid_groups = {}
        self._links = set()
        self._pid_links = {}
        self.counts = {"inserts": 0, "deletes": 0, "absorbed": 0, "residual": 0}
        self._seed(result)
        return self

    def _seed(self, result: JoinResult) -> None:
        pts = self.tree.points
        for ids in result.groups:
            members = set(int(i) for i in ids)
            coords = pts[np.asarray(sorted(members), dtype=np.intp)]
            self._new_group(
                members, coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
            )
        for i, j in result.links:
            i, j = int(i), int(j)
            # Links already implied by a shared group would double-count
            # on later deletes; the maintained state keeps them disjoint.
            shared = self._pid_groups.get(i, set()) & self._pid_groups.get(j, set())
            if not shared:
                self._add_link(i, j)

    # ------------------------------------------------------------------
    # State primitives
    # ------------------------------------------------------------------
    def _new_group(self, ids: set[int], lo: list[float], hi: list[float]) -> int:
        gid = self._next_gid
        self._next_gid += 1
        self._groups[gid] = Group(ids, lo, hi)
        for pid in ids:
            self._pid_groups.setdefault(pid, set()).add(gid)
        return gid

    def _drop_group(self, gid: int) -> None:
        group = self._groups.pop(gid)
        for pid in group.ids:
            members = self._pid_groups.get(pid)
            if members is not None:
                members.discard(gid)
                if not members:
                    del self._pid_groups[pid]

    def _add_link(self, i: int, j: int) -> None:
        self._links.add(normalized_link(i, j))
        self._pid_links.setdefault(i, set()).add(j)
        self._pid_links.setdefault(j, set()).add(i)

    def _drop_links_of(self, pid: int) -> None:
        for other in self._pid_links.pop(pid, set()):
            self._links.discard(normalized_link(pid, other))
            peers = self._pid_links.get(other)
            if peers is not None:
                peers.discard(pid)
                if not peers:
                    del self._pid_links[other]

    def _diagonal_ok(self, lo: list[float], hi: list[float]) -> bool:
        """Strict diagonal-below-ε test, deciding as the merge window does.

        ``metric.norm_seq`` is the expression of
        :class:`repro.core.groups.GroupBuffer`'s merge test: Euclidean
        takes ``sqrt`` of the scalar squared sum, which the window's
        ``squared sum <= limit`` matches exactly
        (:func:`~repro.core.groups.sqrt_limit`); comparing squares
        against ``eps**2`` can flip strictness on exact-distance ties.
        """
        return self.metric.norm_seq([h - l for l, h in zip(lo, hi)]) < self.eps

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, coords: np.ndarray, pid: Optional[int] = None) -> int:
        """Add one point; returns its id.

        A single ε-range probe classifies the point: absorbed into the
        first (lowest-gid) group whose extended MBR keeps its diagonal
        below ε, with the remaining qualifying neighbors as residual
        links; or, with no absorbing group, all neighbors become links.
        """
        coords = np.asarray(coords, dtype=float).ravel()
        pid = self.tree.add_point(coords, pid=pid)
        point = self.tree.points[pid]
        neighbors = set(
            int(n) for n in self.tree.range_query(point, self.eps) if int(n) != pid
        )
        self.counts["inserts"] += 1
        absorbed: Optional[Group] = None
        candidate_gids = sorted(
            {gid for n in neighbors for gid in self._pid_groups.get(n, ())}
        )
        for gid in candidate_gids:
            group = self._groups[gid]
            lo = [min(l, c) for l, c in zip(group.lo, point.tolist())]
            hi = [max(h, c) for h, c in zip(group.hi, point.tolist())]
            if self._diagonal_ok(lo, hi):
                group.ids.add(pid)
                group.lo, group.hi = lo, hi
                self._pid_groups.setdefault(pid, set()).add(gid)
                absorbed = group
                self.counts["absorbed"] += 1
                break
        residual = neighbors - absorbed.ids if absorbed is not None else neighbors
        for other in residual:
            self._add_link(pid, other)
        self.counts["residual"] += len(residual)
        return pid

    def delete(self, pid: int) -> bool:
        """Remove one point; returns whether it was present."""
        if not self.tree.delete(pid):
            return False
        self.counts["deletes"] += 1
        self._drop_links_of(pid)
        for gid in list(self._pid_groups.pop(pid, set())):
            group = self._groups[gid]
            group.ids.discard(pid)
            if len(group.ids) < 2:
                self._drop_group(gid)
            else:
                # Tighten: survivors were mutually qualifying before, so
                # the shrunk box's diagonal stays below ε; tightening only
                # improves later absorption.
                coords = self.tree.points[
                    np.asarray(sorted(group.ids), dtype=np.intp)
                ]
                group.lo = coords.min(axis=0).tolist()
                group.hi = coords.max(axis=0).tolist()
        return True

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def need_compact(self) -> bool:
        """Whether delete tombstones warrant a :meth:`compact`."""
        return self.tree.need_compact()

    def compact(self) -> dict[int, int]:
        """Physically drop tombstoned rows; returns the id remapping.

        Every maintained id — group members, links — is rewritten with
        the mapping the index reports, so the join state stays
        consistent.  Callers holding ids must apply the same mapping.
        """
        mapping = self.tree.compact()
        self._links = {
            (mapping[i], mapping[j]) for i, j in self._links
        }
        self._pid_links = {
            mapping[pid]: {mapping[o] for o in others}
            for pid, others in self._pid_links.items()
        }
        self._pid_groups = {
            mapping[pid]: gids for pid, gids in self._pid_groups.items()
        }
        for group in self._groups.values():
            group.ids = {mapping[i] for i in group.ids}
        return mapping

    # ------------------------------------------------------------------
    # Introspection / output
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of live points."""
        return len(self.tree.points) - len(self.tree._deleted)

    def live_ids(self) -> list[int]:
        """Sorted ids of the live points."""
        deleted = self.tree._deleted
        return [i for i in range(len(self.tree.points)) if i not in deleted]

    def fingerprint(self) -> str:
        """Content hash of the current dataset state (cache key part)."""
        return dataset_fingerprint(self.tree.points, self.live_ids())

    def result(self) -> JoinResult:
        """The maintained join as a deterministic :class:`JoinResult`.

        Groups first (two-member groups written as plain links, exactly
        like the merge window's write-out), then residual links, each in
        sorted order — so two equal states always produce byte-identical
        output.
        """
        sink = CollectSink(id_width=width_for(len(self.tree.points)))
        two_member: list[tuple[int, int]] = []
        bigger: list[tuple[int, ...]] = []
        for group in self._groups.values():
            ids = tuple(sorted(group.ids))
            if len(ids) == 2:
                two_member.append((ids[0], ids[1]))
            else:
                bigger.append(ids)
        for ids in sorted(bigger):
            sink.write_group(ids)
        for i, j in sorted(set(two_member) | self._links):
            sink.write_link(i, j)
        label = f"csj({self.g})+dynamic" if self.g else "ncsj+dynamic"
        return JoinResult.from_sink(
            sink,
            eps=self.eps,
            algorithm=label,
            g=self.g,
            index_name=self.tree.name,
        )

    def expanded_links(self) -> set[tuple[int, int]]:
        """All links the maintained state implies (for equivalence checks)."""
        expanded = set(self._links)
        for group in self._groups.values():
            ids = sorted(group.ids)
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    expanded.add((ids[a], ids[b]))
        return expanded

    def validate(self) -> None:
        """Internal consistency checks (index + join-state invariants)."""
        self.tree.validate()
        deleted = self.tree._deleted
        for gid, group in self._groups.items():
            if len(group.ids) < 2:
                raise AssertionError(f"group {gid} degenerate: {group.ids}")
            if not self._diagonal_ok(group.lo, group.hi):
                raise AssertionError(f"group {gid} diagonal >= eps")
            for pid in group.ids:
                if pid in deleted:
                    raise AssertionError(f"group {gid} holds deleted id {pid}")
                if gid not in self._pid_groups.get(pid, set()):
                    raise AssertionError(f"group map misses {pid} -> {gid}")
        for i, j in self._links:
            if i in deleted or j in deleted:
                raise AssertionError(f"link ({i}, {j}) touches a deleted id")

    def __repr__(self) -> str:
        return (
            f"MaintainedJoin(eps={self.eps:g}, g={self.g}, points={self.size}, "
            f"groups={len(self._groups)}, links={len(self._links)})"
        )
