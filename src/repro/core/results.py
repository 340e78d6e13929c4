"""Join result model: links, groups, and output sinks.

A similarity-join result is a stream of

* **links** — individual qualifying pairs ``(i, j)``, and (for the compact
  algorithms) **groups** — id sets whose members *mutually* satisfy the
  query range, each group of ``k`` points standing for all ``k(k-1)/2``
  links;
* for spatial (two-dataset) joins, **group pairs** ``(A, B)`` standing for
  all cross links ``A x B``.

Algorithms emit into a :class:`JoinSink`.  Every sink maintains the
paper's space metric — bytes of the fixed-width output text file — through
:func:`repro.io.writer.line_bytes`, and charges its writing time to
``stats.write_time`` so Experiment 3's computation/write split is
measurable with any sink.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.io.writer import FixedWidthWriter, line_bytes, read_output
from repro.stats.counters import JoinStats

__all__ = [
    "JoinSink",
    "CollectSink",
    "CountingSink",
    "CallbackSink",
    "TextSink",
    "JoinResult",
    "normalized_link",
]


#: Most links a :class:`TextSink` holds before writing them as one batch.
#: A serial tree join hands over one call per leaf window, at most 4,096
#: links (``repro.core.csj.LEAF_WINDOW``); checkpointed and pool runs
#: hand over one per unit.  Any other line ends a batch sooner.
#: Formatting 4,096 links peaks near 0.5 MB, well inside the 16 bytes per
#: implied pair that ``TestPeakMemory`` allows a 2,000-point Fig 7 join.
LINK_BATCH = 4096


def normalized_link(i: int, j: int) -> tuple[int, int]:
    """Canonical (smaller-id-first) form of a link."""
    return (i, j) if i < j else (j, i)


class JoinSink:
    """Base sink: byte/time accounting plus no-op storage.

    Subclasses override the ``_store_*`` hooks; accounting and counter
    updates are shared so every algorithm/sink combination reports
    comparable numbers.
    """

    #: Set by sinks whose storage is real I/O worth timing per call
    #: (TextSink).  Memory sinks skip the clock: two ``perf_counter``
    #: calls per link would dominate the very quantity being measured.
    timed = False

    def __init__(self, stats: Optional[JoinStats] = None, id_width: int = 8):
        self.stats = stats if stats is not None else JoinStats()
        self.id_width = id_width
        self._link_bytes = line_bytes(2, id_width)

    # -- public API used by the algorithms ---------------------------------
    def write_link(self, i: int, j: int) -> None:
        if i > j:
            i, j = j, i
        if self.timed:
            start = time.perf_counter()
            self._store_link(i, j)
            self.stats.write_time += time.perf_counter() - start
        else:
            self._store_link(i, j)
        self.stats.links_emitted += 1
        self.stats.bytes_written += self._link_bytes

    def write_links(self, ids_i: Sequence[int], ids_j: Sequence[int]) -> None:
        """Batch form of :meth:`write_link` for vectorised leaf output.

        SSJ and N-CSJ emit whole leaf-pair batches at once; subclasses
        override this to avoid per-link Python overhead where their
        storage allows it.
        """
        for i, j in zip(ids_i, ids_j):
            self.write_link(i, j)

    def write_link_raw(self, i: int, j: int) -> None:
        """Write a link *without* id normalisation.

        Spatial joins use positional ids into two different relations, so
        swapping them would change the meaning; self-joins should use
        :meth:`write_link` instead.
        """
        if self.timed:
            start = time.perf_counter()
            self._store_link(int(i), int(j))
            self.stats.write_time += time.perf_counter() - start
        else:
            self._store_link(int(i), int(j))
        self.stats.links_emitted += 1
        self.stats.bytes_written += self._link_bytes

    def write_group(self, ids: Sequence[int]) -> None:
        ids = sorted(int(i) for i in ids)
        if len(ids) < 2:
            return
        if self.timed:
            start = time.perf_counter()
            self._store_group(tuple(ids))
            self.stats.write_time += time.perf_counter() - start
        else:
            self._store_group(tuple(ids))
        self.stats.groups_emitted += 1
        self.stats.group_members_emitted += len(ids)
        self.stats.bytes_written += line_bytes(len(ids), self.id_width)

    def write_group_pair(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> None:
        ids_a = tuple(sorted(int(i) for i in ids_a))
        ids_b = tuple(sorted(int(i) for i in ids_b))
        if not ids_a or not ids_b:
            return
        if self.timed:
            start = time.perf_counter()
            self._store_group_pair(ids_a, ids_b)
            self.stats.write_time += time.perf_counter() - start
        else:
            self._store_group_pair(ids_a, ids_b)
        self.stats.groups_emitted += 1
        self.stats.group_members_emitted += len(ids_a) + len(ids_b)
        # One line: both sides plus the " | " separator (3 bytes, of which
        # 2 are extra over the usual single separator).
        self.stats.bytes_written += (
            line_bytes(len(ids_a) + len(ids_b), self.id_width) + 2
        )

    def close(self) -> None:
        """Release resources; further writes are undefined."""

    # -- storage hooks -------------------------------------------------------
    def _store_link(self, i: int, j: int) -> None:
        pass

    def _store_group(self, ids: tuple[int, ...]) -> None:
        pass

    def _store_group_pair(self, ids_a: tuple[int, ...], ids_b: tuple[int, ...]) -> None:
        pass

    def __enter__(self) -> "JoinSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class CountingSink(JoinSink):
    """Accounts sizes and counts but stores nothing.

    The right sink for large benchmark runs, where materialising an
    exploding output would itself distort the measurement.
    """

    def write_links(self, ids_i: Sequence[int], ids_j: Sequence[int]) -> None:
        k = len(ids_i)
        self.stats.links_emitted += k
        self.stats.bytes_written += k * self._link_bytes


class CollectSink(JoinSink):
    """Stores links, groups and group pairs in memory."""

    def __init__(self, stats: Optional[JoinStats] = None, id_width: int = 8):
        super().__init__(stats, id_width)
        self.links: list[tuple[int, int]] = []
        self.groups: list[tuple[int, ...]] = []
        self.group_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def _store_link(self, i: int, j: int) -> None:
        self.links.append((i, j))

    def write_links(self, ids_i: Sequence[int], ids_j: Sequence[int]) -> None:
        arr_i = np.asarray(ids_i)
        arr_j = np.asarray(ids_j)
        lo = np.minimum(arr_i, arr_j)
        hi = np.maximum(arr_i, arr_j)
        pairs = list(zip(lo.tolist(), hi.tolist()))
        self.links.extend(pairs)
        self.stats.links_emitted += len(pairs)
        self.stats.bytes_written += len(pairs) * self._link_bytes

    def _store_group(self, ids: tuple[int, ...]) -> None:
        self.groups.append(ids)

    def _store_group_pair(self, ids_a: tuple[int, ...], ids_b: tuple[int, ...]) -> None:
        self.group_pairs.append((ids_a, ids_b))


class CallbackSink(JoinSink):
    """Streams output events to user callbacks as the join produces them.

    The hook for pipelines that must not buffer the (possibly huge)
    result: insert links into a database, update an aggregation, forward
    groups over a socket.  Each callback is optional; byte accounting and
    counters behave like every other sink, so measurements stay
    comparable.

    >>> seen = []
    >>> sink = CallbackSink(on_link=lambda i, j: seen.append((i, j)))
    >>> sink.write_link(2, 1)
    >>> seen
    [(1, 2)]
    """

    def __init__(
        self,
        on_link=None,
        on_group=None,
        on_group_pair=None,
        stats: Optional[JoinStats] = None,
        id_width: int = 8,
    ):
        super().__init__(stats, id_width)
        self._on_link = on_link
        self._on_group = on_group
        self._on_group_pair = on_group_pair

    def _store_link(self, i: int, j: int) -> None:
        if self._on_link is not None:
            self._on_link(i, j)

    def _store_group(self, ids: tuple[int, ...]) -> None:
        if self._on_group is not None:
            self._on_group(ids)

    def _store_group_pair(self, ids_a: tuple[int, ...], ids_b: tuple[int, ...]) -> None:
        if self._on_group_pair is not None:
            self._on_group_pair(ids_a, ids_b)


class TextSink(JoinSink):
    """Writes the paper's fixed-width text format to a real file.

    ``stats.bytes_written`` matches the on-disk file size exactly, and
    ``stats.write_time`` measures real output I/O — this is the sink used
    to reproduce Experiment 3 (computation vs. disk-write time).

    Link batches (:meth:`write_links`) stay NumPy arrays across calls, up
    to :data:`LINK_BATCH` links, and go out as one digit-matrix text
    (:func:`repro.io.writer.format_lines`) in one file write.  Counters
    and ``bytes_written`` are charged when a call queues its links.  The
    pending batch is written before any other line, and before
    :meth:`close` (and a durable sink's ``sync``/``tell``), so the file
    bytes and their order are those of writing every call at once.
    """

    timed = True

    def __init__(
        self,
        target,
        stats: Optional[JoinStats] = None,
        id_width: int = 8,
        mode: str = "w",
    ):
        super().__init__(stats, id_width)
        self._writer = FixedWidthWriter(target, width=id_width, mode=mode)
        #: Destination path (``None`` when writing to an open stream).
        self.path = self._writer.path
        self._pending_lo: list[np.ndarray] = []
        self._pending_hi: list[np.ndarray] = []
        self._pending_links = 0

    def write_links(self, ids_i: Sequence[int], ids_j: Sequence[int]) -> None:
        lo = np.minimum(ids_i, ids_j)
        hi = np.maximum(ids_i, ids_j)
        k = len(lo)
        # Write the pending batch *before* queueing: if that write fails,
        # this call has charged nothing and a retry of it is exact.
        if self._pending_links + k > LINK_BATCH:
            self._flush_links()
        self._pending_lo.append(lo)
        self._pending_hi.append(hi)
        self._pending_links += k
        self.stats.links_emitted += k
        self.stats.bytes_written += k * self._link_bytes

    def _write_pending(self) -> None:
        """Write the pending link batch; it stays pending if the write fails."""
        if self._pending_lo:
            self._writer.write_links(
                np.concatenate(self._pending_lo), np.concatenate(self._pending_hi)
            )
            self._drop_pending()

    def _flush_links(self) -> None:
        """:meth:`_write_pending`, timed, for callers outside JoinSink's timed calls."""
        if self._pending_lo:
            start = time.perf_counter()
            self._write_pending()
            self.stats.write_time += time.perf_counter() - start

    def _drop_pending(self) -> None:
        self._pending_lo.clear()
        self._pending_hi.clear()
        self._pending_links = 0

    # The store hooks run inside JoinSink's timed calls, so the pending
    # batch they write first is charged once, with their own line.
    def _store_link(self, i: int, j: int) -> None:
        self._write_pending()
        self._writer.write_link(i, j)

    def _store_group(self, ids: tuple[int, ...]) -> None:
        self._write_pending()
        self._writer.write_group(ids)

    def _store_group_pair(self, ids_a: tuple[int, ...], ids_b: tuple[int, ...]) -> None:
        self._write_pending()
        self._writer.write_group_pair(ids_a, ids_b)

    def close(self) -> None:
        self._flush_links()
        self._writer.close()


@dataclass
class JoinResult:
    """The outcome of one join run: output plus measurements.

    ``links``/``groups``/``group_pairs`` are populated when the run used a
    collecting sink; with :class:`CountingSink` only :attr:`stats` carries
    information.
    """

    eps: float
    algorithm: str
    links: list[tuple[int, int]] = field(default_factory=list)
    groups: list[tuple[int, ...]] = field(default_factory=list)
    group_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=list
    )
    stats: JoinStats = field(default_factory=JoinStats)
    g: Optional[int] = None
    index_name: Optional[str] = None
    #: True when the run was replaced by the analytic estimator (the
    #: paper's crash protocol): counters are predictions, not measurements.
    estimated: bool = False
    #: True when the serving layer browned this request out: the answer
    #: is the analytic estimate (``estimated`` is then also True), served
    #: because the request ran over its deadline/byte budget or the
    #: admission queue was under pressure.  A degraded result carries no
    #: exact links or groups; resubmit under a larger budget for them.
    degraded: bool = False
    #: True when this result was served from the result cache for an
    #: *earlier* dataset state (the fingerprint no longer matches): the
    #: payload is exact for that state, merely not current.  Only the
    #: serving layer's brownout path sets this.
    stale: bool = False
    #: Path of the output text file when the run used a file sink; lets
    #: :meth:`expanded_links` verify file-backed runs too.
    output_path: Optional[str] = None

    @classmethod
    def from_sink(
        cls,
        sink: JoinSink,
        eps: float,
        algorithm: str,
        g: Optional[int] = None,
        index_name: Optional[str] = None,
    ) -> "JoinResult":
        """Assemble a result from a finished sink (payload if collecting)."""
        result = cls(
            eps=eps, algorithm=algorithm, g=g, index_name=index_name, stats=sink.stats
        )
        if isinstance(sink, CollectSink):
            result.links = sink.links
            result.groups = sink.groups
            result.group_pairs = sink.group_pairs
        else:
            result.output_path = getattr(sink, "path", None)
        return result

    # -- derived quantities ---------------------------------------------------
    @property
    def output_bytes(self) -> int:
        """The paper's space metric: bytes of the output text file."""
        return self.stats.bytes_written

    def expanded_links(self) -> set[tuple[int, int]]:
        """All links the output *implies* (Theorems 1 and 2).

        Explicit links, every pair within each group, and every cross pair
        of each group pair, as canonical ``(min, max)`` tuples.  A run
        that streamed to a file sink carries no in-memory payload; its
        output file (:attr:`output_path`) is parsed instead.
        """
        links, groups, group_pairs = self.links, self.groups, self.group_pairs
        if (
            not (links or groups or group_pairs)
            and self.output_path is not None
            and os.path.exists(self.output_path)
        ):
            links, groups, group_pairs = read_output(self.output_path)
        expanded: set[tuple[int, int]] = set(
            normalized_link(i, j) for i, j in links
        )
        for ids in groups:
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    expanded.add(normalized_link(ids[a], ids[b]))
        for ids_a, ids_b in group_pairs:
            for a in ids_a:
                for b in ids_b:
                    if a != b:
                        expanded.add(normalized_link(a, b))
        return expanded

    def expanded_cross_links(self) -> set[tuple[int, int]]:
        """All cross links implied by a *spatial join* output.

        Unlike :meth:`expanded_links`, ids are positional in two different
        relations, so ``(i, j)`` is kept ordered: left dataset first.
        """
        expanded: set[tuple[int, int]] = set((i, j) for i, j in self.links)
        for ids_a, ids_b in self.group_pairs:
            for a in ids_a:
                for b in ids_b:
                    expanded.add((a, b))
        return expanded

    def implied_link_count(self) -> int:
        """Size of :meth:`expanded_links` without materialising it twice."""
        return len(self.expanded_links())

    def summary(self) -> dict[str, Union[int, float, str, None]]:
        """Flat dictionary for experiment tables."""
        return {
            "algorithm": self.algorithm,
            "g": self.g,
            "index": self.index_name,
            "eps": self.eps,
            "links": self.stats.links_emitted,
            "groups": self.stats.groups_emitted,
            "output_bytes": self.stats.bytes_written,
            "distance_computations": self.stats.distance_computations,
            "early_stops": self.stats.early_stops,
            "compute_time": self.stats.compute_time,
            "write_time": self.stats.write_time,
            "total_time": self.stats.total_time,
            "estimated": self.estimated,
            "degraded": self.degraded,
            "stale": self.stale,
        }

    def __repr__(self) -> str:
        return (
            f"JoinResult(algorithm={self.algorithm!r}, eps={self.eps:g}, "
            f"links={self.stats.links_emitted}, groups={self.stats.groups_emitted}, "
            f"bytes={self.stats.bytes_written})"
        )


def make_sink(
    kind: str = "collect",
    stats: Optional[JoinStats] = None,
    id_width: int = 8,
    target=None,
) -> JoinSink:
    """Factory for sinks: ``"collect"``, ``"count"`` or ``"text"``."""
    if kind == "collect":
        return CollectSink(stats, id_width)
    if kind == "count":
        return CountingSink(stats, id_width)
    if kind == "text":
        if target is None:
            raise ValueError("text sink requires a target path or file")
        return TextSink(target, stats, id_width)
    raise ValueError(f"unknown sink kind {kind!r}")
