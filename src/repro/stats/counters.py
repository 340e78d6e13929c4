"""Counters and timers used to instrument the join algorithms.

The paper measures four quantities per run (Section VI):

* wall-clock runtime, split into *computation* and *disk write* time
  (Experiment 3, Figure 8),
* output size in bytes of the resulting text file,
* the number of disk page / cache accesses (reported as "no significant
  difference" between algorithms in Experiment 3),
* scalability of the first two with the number of data points.

Wall-clock timing of pure-Python code is noisy and machine dependent, so in
addition to the paper's measurements :class:`JoinStats` tracks
machine-independent work proxies: the number of point-to-point distance
computations, node-pair visits, and MBR checks.  Benchmarks report both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields


@dataclass
class JoinStats:
    """Aggregated measurements for a single join execution.

    Every integer field is a monotonically increasing counter; the two
    ``*_time`` fields accumulate seconds.  Instances support ``+`` so that
    per-phase statistics can be combined.
    """

    #: Point-to-point distance evaluations (the dominant CPU cost).
    distance_computations: int = 0
    #: Node/node-pair visits during the tree descent.
    nodes_visited: int = 0
    node_pairs_visited: int = 0
    #: MBR diagonal / min-distance / max-distance evaluations.
    mbr_checks: int = 0
    #: Early-stopping events: a whole subtree (or subtree pair) emitted as
    #: one group because its bounding-shape diameter was below the range.
    early_stops: int = 0
    #: Links written individually to the output.
    links_emitted: int = 0
    #: Groups written to the output.
    groups_emitted: int = 0
    #: Total number of point memberships over all emitted groups.
    group_members_emitted: int = 0
    #: CSJ(g) merge machinery: attempts to fit a link into a recent group.
    merge_attempts: int = 0
    merge_successes: int = 0
    #: Bytes written to the (possibly simulated) output file.
    bytes_written: int = 0
    #: Simulated disk page accesses (see :mod:`repro.io.pagesim`).
    page_reads: int = 0
    page_writes: int = 0
    cache_hits: int = 0
    #: Seconds spent computing (everything except output writing).
    compute_time: float = 0.0
    #: Seconds spent writing output.
    write_time: float = 0.0

    def __add__(self, other: "JoinStats") -> "JoinStats":
        if not isinstance(other, JoinStats):
            return NotImplemented
        merged = JoinStats()
        for f in fields(self):
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged

    @property
    def total_time(self) -> float:
        """Wall-clock total: computation plus output writing."""
        return self.compute_time + self.write_time

    def clock(self) -> tuple[float, float]:
        """Start one run's compute clock: ``(now, write_time so far)``.

        Hand the mark to :meth:`charge_compute` when the run ends.
        """
        return time.perf_counter(), self.write_time

    def charge_compute(self, mark: tuple[float, float]) -> None:
        """Add the wall time since ``mark`` less the writes charged since.

        Only this run's write time is subtracted, not the cumulative
        ``write_time``, so one stats object can span several runs.
        """
        start, written = mark
        self.compute_time += time.perf_counter() - start - (self.write_time - written)

    @property
    def pairs_reported(self) -> int:
        """Number of links implied by the output.

        Each group of *k* members implies ``k * (k - 1) / 2`` links; this
        property is therefore only meaningful when accumulated alongside
        :attr:`group_members_emitted` by the sinks, and is provided for the
        common case of individually emitted links.
        """
        return self.links_emitted

    def as_dict(self) -> dict[str, float]:
        """All counters plus the derived values as a plain dictionary.

        The derived :attr:`total_time` and :attr:`pairs_reported`
        properties are included explicitly — exported metrics and tables
        must not silently lose the paper's headline runtime number.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["total_time"] = self.total_time
        data["pairs_reported"] = self.pairs_reported
        return data

    def reset(self) -> None:
        """Zero every counter in place, preserving each declared type.

        Uses the field *defaults* (``0`` for counters, ``0.0`` for the
        time accumulators) rather than inspecting ``f.type``: under
        ``from __future__ import annotations`` the field types are
        strings, so a ``f.type is int`` test silently resets int
        counters to ``0.0`` and they accumulate as floats thereafter.
        """
        for f in fields(self):
            setattr(self, f.name, f.default)


@dataclass
class Timer:
    """Context manager accumulating elapsed wall-clock seconds.

    Re-entrant: nested ``with`` blocks on the same timer count the
    outermost interval exactly once instead of clobbering the start
    mark and double-counting the inner region.

    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: float = field(default=0.0, repr=False)
    _depth: int = field(default=0, repr=False)

    def __enter__(self) -> "Timer":
        if self._depth == 0:
            self._start = time.perf_counter()
        self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.elapsed += time.perf_counter() - self._start

    def reset(self) -> None:
        self.elapsed = 0.0
        self._depth = 0
        self._start = 0.0
