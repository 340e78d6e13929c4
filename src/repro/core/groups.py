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
bounds are kept as plain Python lists, a ``linkseq`` event enters the
window in one :meth:`GroupBuffer.add_links` call, and the 2-D and 3-D
Euclidean loops are inlined.  The Euclidean test compares the squared
diagonal with ``limit``, the largest double whose ``sqrt`` is below the
range (:func:`sqrt_limit`, once per window): ``sqrt`` is correctly
rounded, hence monotone, so ``s <= limit`` decides exactly as
``sqrt(s) < eps`` does, ties included, where comparing against
``eps**2`` would not (the square can round either way).  A group whose
first span alone exceeds the limit is rejected without the other axes.
Other metrics go through ``metric.norm_seq``.  NumPy is deliberately
absent here — dispatch overhead on 2-3 element arrays costs more than
the arithmetic.
"""

from __future__ import annotations

from collections import deque
from math import inf, nextafter, sqrt
from typing import Optional, Sequence

from repro.core.results import JoinSink
from repro.errors import ValidationError
from repro.geometry.mbr import MBR
from repro.geometry.metrics import Metric, get_metric
from repro.stats.counters import JoinStats

__all__ = ["Group", "GroupBuffer", "apply_events", "link_events", "sqrt_limit"]


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
      for the CSJ(g) merge window, handed over in one
      :meth:`GroupBuffer.add_links` call.

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
                buffer.add_links(event[1], event[2], event[3], event[4])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown task event kind {kind!r}")


def sqrt_limit(eps: float) -> float:
    """The largest double whose ``sqrt`` is below ``eps``.

    IEEE ``sqrt`` is correctly rounded, hence monotone, so for any double
    ``s`` (ties, ``inf`` and NaN included) ``s <= sqrt_limit(eps)`` holds
    exactly when ``sqrt(s) < eps``.  ``eps * eps`` alone would not do: it
    can round to either side of the limit.
    """
    limit = eps * eps
    while limit > 0.0 and not sqrt(limit) < eps:
        limit = nextafter(limit, 0.0)
    while sqrt(nextafter(limit, inf)) < eps:
        limit = nextafter(limit, inf)
    return limit


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
        #: The Euclidean merge test is ``squared diagonal <= limit``.
        self.limit = sqrt_limit(self.eps)
        # The merge test runs per residual link; for the common 2-D/3-D
        # Euclidean case a fully inlined batch loop is bound here.
        if self.g > 0 and self._euclidean and dim == 2:
            self.add_links = self._add_links_2d
        elif self.g > 0 and self._euclidean and dim == 3:
            self.add_links = self._add_links_3d

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

        A one-link call of :meth:`add_links`, whose semantics it has.
        """
        self.add_links((i,), (j,), (p_i,), (p_j,))

    def add_links(
        self,
        ids_i: Sequence[int],
        ids_j: Sequence[int],
        coords_i: Sequence[Sequence[float]],
        coords_j: Sequence[Sequence[float]],
    ) -> None:
        """Route a ``linkseq`` event's links through mergeIntoPrevGroup.

        Link ``k`` is ``(ids_i[k], ids_j[k])`` with endpoints
        ``coords_i[k]`` / ``coords_j[k]``, plain coordinate sequences.
        Each link tries the recent groups newest-first; on failure it
        creates a new group bounded by its own MBR (whose diagonal equals
        the pair distance, hence always below the range).  The merge
        counters are charged once per call, also when an eviction's sink
        write raises, so they always count the links routed so far.
        """
        window = self._window  # stays empty when g = 0
        eps = self.eps
        limit = self.limit
        norm_seq = None if self._euclidean else self.metric.norm_seq
        attempts = successes = 0
        try:
            for i, j, p_i, p_j in zip(ids_i, ids_j, coords_i, coords_j):
                pair_lo = [a if a < b else b for a, b in zip(p_i, p_j)]
                pair_hi = [b if a < b else a for a, b in zip(p_i, p_j)]
                for group in reversed(window):
                    attempts += 1
                    spans = [
                        (h if h > b else b) - (l if l < a else a)
                        for l, h, a, b in zip(group.lo, group.hi, pair_lo, pair_hi)
                    ]
                    if norm_seq is not None:
                        fits = norm_seq(spans) < eps
                    else:  # a left fold: sum() compensates on Python 3.12+
                        total = 0.0
                        for v in spans:
                            total += v * v
                        fits = total <= limit
                    if fits:
                        self._commit(group, i, j, pair_lo, pair_hi)
                        successes += 1
                        break
                else:
                    self.create_group((i, j), pair_lo, pair_hi)
        finally:
            self._charge(attempts, successes)

    def _add_links_2d(self, ids_i, ids_j, coords_i, coords_j) -> None:
        """:meth:`add_links` for 2-D Euclidean windows, inlined.

        Same scan order and decisions; only the interpreter overhead
        differs.  A group whose x span alone exceeds the limit is
        rejected before its y span is computed: adding a non-negative
        square never lowers a float sum.
        """
        window = self._window
        limit = self.limit
        create_group = self.create_group
        attempts = successes = 0
        try:
            for i, j, (x1, y1), (x2, y2) in zip(ids_i, ids_j, coords_i, coords_j):
                if x2 < x1:
                    x1, x2 = x2, x1
                if y2 < y1:
                    y1, y2 = y2, y1
                for group in reversed(window):
                    attempts += 1
                    glo = group.lo
                    ghi = group.hi
                    lox = glo[0] if glo[0] < x1 else x1
                    hix = ghi[0] if ghi[0] > x2 else x2
                    dx = hix - lox
                    sx = dx * dx
                    if sx > limit:
                        continue
                    loy = glo[1] if glo[1] < y1 else y1
                    hiy = ghi[1] if ghi[1] > y2 else y2
                    dy = hiy - loy
                    if sx + dy * dy <= limit:
                        glo[0] = lox
                        ghi[0] = hix
                        glo[1] = loy
                        ghi[1] = hiy
                        ids = group.ids
                        ids.add(i)
                        ids.add(j)
                        successes += 1
                        break
                else:
                    create_group((i, j), [x1, y1], [x2, y2])
        finally:
            self._charge(attempts, successes)

    def _add_links_3d(self, ids_i, ids_j, coords_i, coords_j) -> None:
        """:meth:`add_links` for 3-D Euclidean windows, inlined like
        :meth:`_add_links_2d`; the sum is ``(dx² + dy²) + dz²``."""
        window = self._window
        limit = self.limit
        create_group = self.create_group
        attempts = successes = 0
        try:
            for i, j, (x1, y1, z1), (x2, y2, z2) in zip(
                ids_i, ids_j, coords_i, coords_j
            ):
                if x2 < x1:
                    x1, x2 = x2, x1
                if y2 < y1:
                    y1, y2 = y2, y1
                if z2 < z1:
                    z1, z2 = z2, z1
                for group in reversed(window):
                    attempts += 1
                    glo = group.lo
                    ghi = group.hi
                    lox = glo[0] if glo[0] < x1 else x1
                    hix = ghi[0] if ghi[0] > x2 else x2
                    dx = hix - lox
                    sx = dx * dx
                    if sx > limit:
                        continue
                    loy = glo[1] if glo[1] < y1 else y1
                    hiy = ghi[1] if ghi[1] > y2 else y2
                    loz = glo[2] if glo[2] < z1 else z1
                    hiz = ghi[2] if ghi[2] > z2 else z2
                    dy = hiy - loy
                    dz = hiz - loz
                    if sx + dy * dy + dz * dz <= limit:
                        glo[0] = lox
                        ghi[0] = hix
                        glo[1] = loy
                        ghi[1] = hiy
                        glo[2] = loz
                        ghi[2] = hiz
                        ids = group.ids
                        ids.add(i)
                        ids.add(j)
                        successes += 1
                        break
                else:
                    create_group((i, j), [x1, y1, z1], [x2, y2, z2])
        finally:
            self._charge(attempts, successes)

    def _charge(self, attempts: int, successes: int) -> None:
        stats = self.stats
        stats.merge_attempts += attempts
        stats.mbr_checks += attempts
        stats.merge_successes += successes

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
