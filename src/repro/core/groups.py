"""Group bookkeeping for the compact similarity joins.

A *group* is a set of point ids bounded by a minimum bounding
hyper-rectangle whose maximal diagonal is strictly below the query range,
which guarantees that all members mutually satisfy the range (Section V-A
of the paper).  :class:`GroupBuffer` implements the ``g``-most-recent-group
window and the ``mergeIntoPrevGroup`` routine of CSJ(g) (Figure 3,
lines 42-50): a new link is offered to the recent groups, newest first; a
group absorbs it iff extending the group's MBR to cover both endpoints
keeps the diagonal below the range; otherwise a new group holding just the
link is created.

Groups leave the window in FIFO order; on eviction (and on the final
flush) they are written to the sink.  Groups of exactly two members are
written as plain links — the paper's output format does not distinguish
them and the byte cost is identical.

The two-dataset joins' :class:`~repro.core.dual.PairWindow` is this
window with a group-pair write-out; side b's ids enter it as ``~j``.

Performance note: this is the per-link hot path of CSJ(g), so group
bounds are kept as plain Python lists and the Euclidean diagonal test is
inlined (``sqrt`` of a scalar squared sum — comparing squares against
``eps**2`` would change strictness on exact-distance ties, since the
square can round up); other metrics go through ``metric.norm_seq``.
NumPy is deliberately absent here — dispatch overhead on 2-3 element
arrays costs more than the arithmetic.
"""

from __future__ import annotations

from collections import deque
from math import sqrt
from typing import Optional, Sequence

from repro.core.results import JoinSink
from repro.errors import ValidationError
from repro.geometry.mbr import MBR
from repro.geometry.metrics import Metric, get_metric
from repro.stats.counters import JoinStats

__all__ = ["Group", "GroupBuffer", "apply_events", "link_events"]


def link_events(
    ids_a, ids_b, pts_a, pts_b, rows, cols, merge: bool, cross: bool = False
) -> list:
    """Events for the qualifying pairs ``(ids_a[rows[k]], ids_b[cols[k]])``.

    ``pts_a`` / ``pts_b`` are the coordinate rows aligned with the id
    arrays (the same arrays for a self-join block).  Without ``merge``
    the links are one ``links`` event, written individually; with it a
    ``linkseq`` carries each endpoint's row to the merge window.  A
    ``cross`` block pairs two datasets: ``xlinks``, or side b's ids as ``~j``.
    """
    if not len(rows):
        return []
    if not merge:
        return [("xlinks" if cross else "links", ids_a[rows], ids_b[cols])]
    if cross:
        ids_b = ~ids_b
    coords_a = pts_a.tolist()
    coords_b = coords_a if pts_b is pts_a else pts_b.tolist()
    id_a = ids_a.tolist()
    id_b = id_a if ids_b is ids_a else ids_b.tolist()
    rows = rows.tolist()
    cols = cols.tolist()
    return [(
        "linkseq",
        [id_a[r] for r in rows],
        [id_b[c] for c in cols],
        [coords_a[r] for r in rows],
        [coords_b[c] for c in cols],
    )]


def apply_events(events, sink: JoinSink, buffer: Optional["GroupBuffer"]) -> None:
    """Replay a task's output events against a sink and group window.

    Events are the serializable output description produced by the pure
    per-task executors (``*_delta`` functions in the algorithm modules):

    * ``("links", ids_i, ids_j)`` — residual links written individually;
    * ``("xlinks", ids_i, ids_j)`` — cross links of two datasets, written
      by :meth:`~repro.core.results.JoinSink.write_link_raw`;
    * ``("group", ids, lo, hi)`` — an early-stopped group;
    * ``("linkseq", ids_i, ids_j, coords_i, coords_j)`` — residual links
      routed one by one through the CSJ(g) merge window.

    Because replay performs exactly the sink/window calls the in-place
    algorithms make, applying a task sequence in canonical order is
    byte-identical to executing it in place — the property the serial
    join loop, :func:`repro.core.csj.run_batches`, relies on.
    """
    for event in events:
        kind = event[0]
        if kind == "links":
            sink.write_links(event[1], event[2])
        elif kind == "xlinks":
            write_link_raw = sink.write_link_raw
            for i, j in zip(event[1].tolist(), event[2].tolist()):
                write_link_raw(i, j)
        elif kind in ("group", "linkseq"):
            if buffer is None:
                raise ValidationError(
                    f"cannot replay a {kind!r} event without a group "
                    "window: these events are produced by CSJ tasks and "
                    "need buffer= (SSJ replay emits only 'links' events)"
                )
            if kind == "group":
                buffer.create_group(event[1], event[2], event[3])
            else:
                add_link = buffer.add_link
                for i, j, p_i, p_j in zip(event[1], event[2], event[3], event[4]):
                    add_link(i, j, p_i, p_j)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown task event kind {kind!r}")


class Group:
    """A mutable in-flight group: member ids plus bounding corners."""

    __slots__ = ("ids", "lo", "hi")

    def __init__(self, ids: set[int], lo: list[float], hi: list[float]):
        self.ids = ids
        self.lo = lo
        self.hi = hi

    @property
    def mbr(self) -> MBR:
        """The group boundary as an :class:`~repro.geometry.mbr.MBR`."""
        return MBR(self.lo, self.hi)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"Group(size={len(self.ids)}, lo={self.lo}, hi={self.hi})"


class GroupBuffer:
    """The CSJ(g) window of the ``g`` most recently created groups.

    Parameters
    ----------
    g:
        Window length.  ``g = 0`` disables merging entirely: every link is
        written individually and node groups are written immediately,
        which is exactly N-CSJ's behaviour.
    eps:
        The query range; group diagonals must stay strictly below it.
    sink, metric, stats:
        Shared join machinery.  ``stats`` counts merge attempts/successes
        and defaults to the sink's.
    """

    def __init__(
        self,
        g: int,
        eps: float,
        sink: JoinSink,
        metric: Optional[Metric] = None,
        stats: Optional[JoinStats] = None,
        dim: Optional[int] = None,
    ):
        if g < 0:
            raise ValueError(f"window size g must be >= 0, got {g}")
        if eps <= 0:
            raise ValueError(f"query range must be positive, got {eps}")
        self.g = int(g)
        self.eps = float(eps)
        self.sink = sink
        self.metric = get_metric(metric)
        self.stats = stats if stats is not None else sink.stats
        self._window: deque[Group] = deque()
        self._euclidean = self.metric.name == "euclidean"
        # The merge test runs per residual link; for the common 2-D/3-D
        # Euclidean case a fully inlined scalar variant is bound here.
        if self.g > 0 and self._euclidean and dim == 2:
            self.add_link = self._add_link_2d
        elif self.g > 0 and self._euclidean and dim == 3:
            self.add_link = self._add_link_3d

    # ------------------------------------------------------------------
    # Group creation
    # ------------------------------------------------------------------
    def create_group(
        self, ids: Sequence[int], lo: Sequence[float], hi: Sequence[float]
    ) -> Group:
        """createNewGroup: start a group and enter it into the window.

        ``lo``/``hi`` are the group boundary corners (e.g. the early-
        stopped node's MBR).  With ``g = 0`` the group is written through
        immediately.
        """
        group = Group(set(ids), list(lo), list(hi))
        if self.g == 0:
            self._write_out(group)
            return group
        self._window.append(group)
        if len(self._window) > self.g:
            self._write_out(self._window.popleft())
        return group

    def add_link(
        self, i: int, j: int, p_i: Sequence[float], p_j: Sequence[float]
    ) -> None:
        """Route one qualifying link through mergeIntoPrevGroup.

        ``p_i`` / ``p_j`` are plain coordinate sequences.  Tries the
        recent groups newest-first; on failure creates a new group bounded
        by the link's own MBR (whose diagonal equals the pair distance,
        hence always below the range).
        """
        pair_lo = [a if a < b else b for a, b in zip(p_i, p_j)]
        pair_hi = [b if a < b else a for a, b in zip(p_i, p_j)]
        if self.g > 0:
            stats = self.stats
            attempts = 0
            if self._euclidean:
                eps = self.eps
                for group in reversed(self._window):
                    attempts += 1
                    glo, ghi = group.lo, group.hi
                    total = 0.0
                    for k in range(len(glo)):
                        lo = glo[k]
                        hi = ghi[k]
                        a = pair_lo[k]
                        b = pair_hi[k]
                        if a < lo:
                            lo = a
                        if b > hi:
                            hi = b
                        span = hi - lo
                        total += span * span
                    # sqrt before comparing: strictness must agree bit-for-
                    # bit with the canonical metric (eps*eps can round up).
                    if sqrt(total) < eps:
                        self._commit(group, i, j, pair_lo, pair_hi)
                        stats.merge_attempts += attempts
                        stats.mbr_checks += attempts
                        stats.merge_successes += 1
                        return
            else:
                norm_seq = self.metric.norm_seq
                for group in reversed(self._window):
                    attempts += 1
                    spans = [
                        (h if h > b else b) - (l if l < a else a)
                        for l, h, a, b in zip(group.lo, group.hi, pair_lo, pair_hi)
                    ]
                    if norm_seq(spans) < self.eps:
                        self._commit(group, i, j, pair_lo, pair_hi)
                        stats.merge_attempts += attempts
                        stats.mbr_checks += attempts
                        stats.merge_successes += 1
                        return
            stats.merge_attempts += attempts
            stats.mbr_checks += attempts
        self.create_group((i, j), pair_lo, pair_hi)

    def _add_link_2d(self, i: int, j: int, p_i, p_j) -> None:
        """Inlined 2-D Euclidean variant of :meth:`add_link`.

        Identical semantics (same scan order, same strict test); only the
        interpreter overhead differs — this path handles tens of millions
        of residual links in the large-range county experiments.
        """
        x1, y1 = p_i
        x2, y2 = p_j
        if x2 < x1:
            x1, x2 = x2, x1
        if y2 < y1:
            y1, y2 = y2, y1
        eps = self.eps
        attempts = 0
        for group in reversed(self._window):
            attempts += 1
            glo = group.lo
            ghi = group.hi
            lox = glo[0] if glo[0] < x1 else x1
            hix = ghi[0] if ghi[0] > x2 else x2
            loy = glo[1] if glo[1] < y1 else y1
            hiy = ghi[1] if ghi[1] > y2 else y2
            dx = hix - lox
            dy = hiy - loy
            if sqrt(dx * dx + dy * dy) < eps:
                glo[0] = lox
                ghi[0] = hix
                glo[1] = loy
                ghi[1] = hiy
                group.ids.add(i)
                group.ids.add(j)
                stats = self.stats
                stats.merge_attempts += attempts
                stats.mbr_checks += attempts
                stats.merge_successes += 1
                return
        stats = self.stats
        stats.merge_attempts += attempts
        stats.mbr_checks += attempts
        self.create_group((i, j), [x1, y1], [x2, y2])

    def _add_link_3d(self, i: int, j: int, p_i, p_j) -> None:
        """Inlined 3-D Euclidean variant of :meth:`add_link`."""
        x1, y1, z1 = p_i
        x2, y2, z2 = p_j
        if x2 < x1:
            x1, x2 = x2, x1
        if y2 < y1:
            y1, y2 = y2, y1
        if z2 < z1:
            z1, z2 = z2, z1
        eps = self.eps
        attempts = 0
        for group in reversed(self._window):
            attempts += 1
            glo = group.lo
            ghi = group.hi
            lox = glo[0] if glo[0] < x1 else x1
            hix = ghi[0] if ghi[0] > x2 else x2
            loy = glo[1] if glo[1] < y1 else y1
            hiy = ghi[1] if ghi[1] > y2 else y2
            loz = glo[2] if glo[2] < z1 else z1
            hiz = ghi[2] if ghi[2] > z2 else z2
            dx = hix - lox
            dy = hiy - loy
            dz = hiz - loz
            if sqrt(dx * dx + dy * dy + dz * dz) < eps:
                glo[0] = lox
                ghi[0] = hix
                glo[1] = loy
                ghi[1] = hiy
                glo[2] = loz
                ghi[2] = hiz
                group.ids.add(i)
                group.ids.add(j)
                stats = self.stats
                stats.merge_attempts += attempts
                stats.mbr_checks += attempts
                stats.merge_successes += 1
                return
        stats = self.stats
        stats.merge_attempts += attempts
        stats.mbr_checks += attempts
        self.create_group((i, j), [x1, y1, z1], [x2, y2, z2])

    @staticmethod
    def _commit(
        group: Group,
        i: int,
        j: int,
        pair_lo: Sequence[float],
        pair_hi: Sequence[float],
    ) -> None:
        glo, ghi = group.lo, group.hi
        for k in range(len(glo)):
            if pair_lo[k] < glo[k]:
                glo[k] = pair_lo[k]
            if pair_hi[k] > ghi[k]:
                ghi[k] = pair_hi[k]
        group.ids.add(i)
        group.ids.add(j)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def _write_out(self, group: Group) -> None:
        if len(group.ids) == 2:
            i, j = group.ids
            self.sink.write_link(i, j)
        elif len(group.ids) > 2:
            self.sink.write_group(group.ids)

    def flush(self) -> None:
        """Write every group still in the window (end of the join)."""
        while self._window:
            self._write_out(self._window.popleft())

    def snapshot(self) -> list[list]:
        """The window as JSON-ready ``[ids, lo, hi]`` rows (checkpoints)."""
        return [
            [sorted(int(i) for i in group.ids), list(group.lo), list(group.hi)]
            for group in self._window
        ]

    def restore(self, state: list) -> None:
        """Replace the window with a :meth:`snapshot`."""
        self._window.clear()
        for ids, lo, hi in state:
            self._window.append(
                Group(
                    set(int(i) for i in ids),
                    [float(x) for x in lo],
                    [float(x) for x in hi],
                )
            )

    def __len__(self) -> int:
        return len(self._window)
