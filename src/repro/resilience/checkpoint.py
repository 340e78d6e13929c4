"""Checkpointed, resumable join execution.

The join algorithms are recursive, but their *output-producing work* is a
deterministic, flat sequence of work units: leaf self-joins, leaf cross
pairs, and (for the compact variants) early-stopped subtree groups, in
the exact order the recursion of Figure 3 visits them.
:class:`CheckpointedJoin` exploits that: it lists the work-unit sequence
up front (a cheap pruned traversal — no distance computations), runs it
through the serial join loop (:func:`repro.core.csj.run_batches`) in the
same batches as the serial joins, and from the loop's after-batch hook
writes a *checkpoint* to a journal file:

``(cursor, durable sink offset, counters, in-flight group window)``

with the output file fsynced first, so the recorded offset is on stable
storage before the record that cites it.  A record is written after the
first batch that reaches or passes each multiple of ``cadence`` units,
and after any batch that ends :data:`CHECKPOINT_BYTES` or more of output
past the last record.  After a crash, ``resume=True`` replays nothing
and loses nothing: the journal's last valid record gives the cursor; the
output file is truncated to the durable offset (cutting any torn tail
the crash left); counters and the CSJ group window are restored;
execution continues at the cursor, re-batched from there.  Because the
work-unit sequence, the group-window state and the fixed-width output
format are all deterministic, and a batch's output is that of its units
run one by one, a killed-and-resumed run produces a byte-identical
output file to an uninterrupted one — the test suite proves this against
brute force under injected faults.

Journal format: one record per line, ``crc32-hex SPACE compact-json``.
A torn final line (the classic crash artifact) simply fails its CRC and
is ignored; anything structurally wrong raises
:class:`~repro.errors.CheckpointCorruptError`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import fields as dataclass_fields
from typing import Callable, Optional, Union

import numpy as np

from repro.core.csj import run_batches
from repro.core.results import JoinResult
from repro.errors import (
    BudgetExceededError,
    CheckpointCorruptError,
    DiskFullError,
    is_disk_full,
)
from repro.geometry.metrics import get_metric
from repro.io.durable import get_fs
from repro.io.writer import width_for
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracing import span as trace_span
from repro.parallel.tasks import JoinSpec
from repro.resilience.budget import Budget
from repro.resilience.sinks import DurableTextSink
from repro.stats.counters import JoinStats

__all__ = ["CheckpointedJoin", "read_journal"]

logger = get_logger("resilience.checkpoint")

JOURNAL_VERSION = 1

#: Output bytes written since the last record that trigger the next one,
#: so the number of fsyncs grows with the output, not with its lines.
CHECKPOINT_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Journal records
# ---------------------------------------------------------------------------

def _encode_record(record: dict) -> str:
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(payload.encode("ascii")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n"


def _decode_record(line: str) -> Optional[dict]:
    line = line.rstrip("\n")
    if len(line) < 10 or line[8] != " ":
        return None
    payload = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("ascii", "replace")) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def read_journal(path: str) -> tuple[dict, Optional[dict]]:
    """Read a checkpoint journal; returns ``(header, last_checkpoint)``.

    A CRC-invalid line ends the durable prefix (everything after a torn
    record is ignored — it was never acknowledged).  A missing file or a
    missing/invalid header raises
    :class:`~repro.errors.CheckpointCorruptError`.
    """
    fs = get_fs()
    if not fs.exists(path):
        raise CheckpointCorruptError(path, "journal not found (nothing to resume)")
    header: Optional[dict] = None
    last: Optional[dict] = None
    # Binary read + lossy decode: garbled bytes must fail a record's CRC,
    # never escape as a UnicodeDecodeError.
    with fs.open(path, "rb") as handle:
        for lineno, raw in enumerate(handle):
            record = _decode_record(raw.decode("ascii", "replace"))
            if record is None:
                if lineno == 0:
                    raise CheckpointCorruptError(path, "journal header is corrupt")
                break
            if lineno == 0:
                if record.get("type") != "header":
                    raise CheckpointCorruptError(path, "first record is not a header")
                if record.get("version") != JOURNAL_VERSION:
                    raise CheckpointCorruptError(
                        path, f"unsupported journal version {record.get('version')!r}"
                    )
                header = record
            elif record.get("type") == "ckpt":
                last = record
    if header is None:
        raise CheckpointCorruptError(path, "journal is empty")
    return header, last


class CheckpointedJoin:
    """Resumable similarity self-join with a durable progress journal.

    The journal around the serial join loop: the run is serial and its
    crash recovery is the journal.  Parameters mirror
    :func:`repro.api.similarity_join` where they overlap.
    ``output_path`` receives the paper's fixed-width text output;
    ``journal_path`` (default ``output_path + ".journal"``) holds the
    checkpoint records; ``cadence`` is the number of work units between
    checkpoints (``0`` = only the final one), which also fire once
    :data:`CHECKPOINT_BYTES` of output have been written since the last
    record.  Records fall on batch boundaries.  ``budget`` bounds the
    run cooperatively, with the serial breach rule: it is checked before
    each batch, a breach drops the pending batch whole and is
    checkpointed first (the window unflushed, at the last applied unit),
    so a deadline-bounded run is also a resumable one.
    ``sink_wrapper`` wraps the output sink (fault injection, retries)
    without affecting the journal's durability accounting.

    >>> import numpy as np, tempfile, os
    >>> pts = np.random.default_rng(0).random((200, 2))
    >>> d = tempfile.mkdtemp()
    >>> job = CheckpointedJoin(pts, 0.05, algorithm="csj",
    ...                        output_path=os.path.join(d, "out.txt"))
    >>> result = job.run()
    >>> result.stats.bytes_written == os.path.getsize(os.path.join(d, "out.txt"))
    True
    """

    def __init__(
        self,
        points: np.ndarray,
        eps: float,
        output_path: str,
        algorithm: str = "csj",
        g: int = 10,
        index: str = "rstar",
        metric: object = None,
        max_entries: int = 64,
        bulk: Optional[str] = "str",
        journal_path: Optional[str] = None,
        cadence: int = 256,
        budget: Optional[Budget] = None,
        sink_wrapper: Optional[Callable] = None,
        stats: Optional[JoinStats] = None,
    ):
        # The spec validates the join's inputs before any file is touched.
        self.spec = JoinSpec(
            points=points,
            eps=eps,
            algorithm=algorithm,
            g=g,
            index=index,
            max_entries=max_entries,
            bulk=bulk,
            metric=metric,
        )
        self.output_path = os.fspath(output_path)
        self.journal_path = (
            os.fspath(journal_path) if journal_path else self.output_path + ".journal"
        )
        self.cadence = max(0, int(cadence))
        self.budget = budget
        self.sink_wrapper = sink_wrapper
        # Externally supplied stats are *observed* (progress heartbeats,
        # metrics) — the run still owns all mutation; pass a fresh one.
        self.stats = stats

    # -- identity ----------------------------------------------------------
    def fingerprint(self) -> dict:
        """Configuration identity stored in (and checked against) the journal.

        Covers exactly what determines the canonical task sequence and
        the output bytes: data, range, algorithm, index/partitioning
        configuration, metric.  The cadence is not part of it: records
        only say where the run may resume.
        """
        spec = self.spec
        tree = spec.family == "tree"
        fp = {
            "n": int(spec.points.shape[0]),
            "dim": int(spec.points.shape[1]),
            "points_crc": zlib.crc32(np.ascontiguousarray(spec.points).tobytes())
            & 0xFFFFFFFF,
            "eps": repr(spec.eps),
            "algorithm": spec.algorithm,
            "g": spec.g if spec.compact else None,
            "index": spec.index if tree else spec.family,
            "max_entries": int(spec.max_entries) if tree else None,
            "bulk": spec.bulk if tree else None,
            "metric": get_metric(spec.metric).name,
        }
        if spec.family == "pbsm":
            # Always null now that pbsm_plan derives the count; kept so
            # existing journals still match and resume.
            fp["partitions_per_axis"] = None
        return fp

    # -- the run -----------------------------------------------------------
    def run(self, resume: bool = False) -> JoinResult:
        """Execute (or resume) the join; returns the finished result.

        With ``resume=True`` the journal must exist and match this
        configuration; the output file is truncated to the last durable
        offset and execution continues from the recorded cursor.
        """
        stats = self.stats if self.stats is not None else JoinStats()
        journal, cursor, window_state = self._open_journal(resume, stats)

        spec = self.spec
        inner = DurableTextSink(
            self.output_path, stats=stats, id_width=width_for(len(spec.points)),
            append=resume,
        )
        sink = self.sink_wrapper(inner) if self.sink_wrapper is not None else inner
        state = spec.build_state()
        total = len(state.tasks)
        buffer = state.make_buffer(sink, stats)
        result = dict(
            eps=spec.eps, algorithm=spec.label(),
            g=spec.g if spec.compact else None, index_name=state.index_name,
        )
        if cursor > total:
            raise CheckpointCorruptError(
                self.journal_path,
                f"cursor {cursor} beyond the {total} work units of this run",
            )
        if window_state is not None and buffer is not None:
            buffer.restore(window_state)

        budget = self.budget
        if budget is not None:
            budget.start()
        mark = stats.clock()
        done = cursor
        bytes_mark = stats.bytes_written

        def after_batch(applied: int) -> None:
            nonlocal done, bytes_mark
            before, done = done, done + applied
            if (
                self.cadence
                and done < total
                and (
                    done // self.cadence > before // self.cadence
                    or stats.bytes_written - bytes_mark >= CHECKPOINT_BYTES
                )
            ):
                self._checkpoint(journal, inner, done, stats, buffer)
                bytes_mark = stats.bytes_written

        try:
            try:
                batches, execute = state.plan(cursor)
                run_batches(batches, execute, sink, buffer, stats, budget, after_batch)
                if cursor < total:
                    # The listing walk's counters, once: a resumed
                    # completed run already holds them.
                    state.charge_walk(stats)
                if buffer is not None:
                    buffer.flush()
                self._checkpoint(journal, inner, total, stats, buffer, final=True)
            except BudgetExceededError as exc:
                # The breach fired before the pending batch ran:
                # checkpoint the durable prefix so the run can resume
                # later, then surface the partial result on the exception.
                self._checkpoint(journal, inner, done, stats, buffer)
                stats.charge_compute(mark)
                exc.partial = JoinResult.from_sink(inner, **result)
                raise
            except OSError as exc:
                # A bare disk-full from the sink (no retry wrapper in
                # between) gets the same typed treatment as everywhere
                # else.  No checkpoint here: the failed batch's output may
                # be partial, and recording it as durable would duplicate
                # lines on resume — the last checkpoint is the resume
                # point.
                if is_disk_full(exc) and not isinstance(exc, DiskFullError):
                    raise DiskFullError.wrap(
                        exc, "durable storage exhausted; join output write failed"
                    ) from exc
                raise
        finally:
            sink.close()
            journal.close()

        stats.charge_compute(mark)
        return JoinResult.from_sink(inner, **result)

    # -- helpers -----------------------------------------------------------
    def _open_journal(
        self, resume: bool, stats: JoinStats
    ) -> tuple[object, int, Optional[list]]:
        """Open the journal and return ``(handle, cursor, window_state)``.

        Fresh runs write (and fsync) the fingerprint header; resumed runs
        validate it, restore ``stats`` from the last checkpoint and
        truncate the output file to the durable offset.
        """
        if resume:
            header, ckpt = read_journal(self.journal_path)
            if header.get("fingerprint") != self.fingerprint():
                raise CheckpointCorruptError(
                    self.journal_path,
                    "journal does not match this run's configuration "
                    "(different data, range, algorithm or index)",
                )
            cursor = 0
            offset = 0
            window_state: Optional[list] = None
            if ckpt is not None:
                cursor = int(ckpt["cursor"])
                offset = int(ckpt["offset"])
                saved = ckpt.get("stats", {})
                for f in dataclass_fields(JoinStats):
                    if f.name in saved:
                        setattr(stats, f.name, saved[f.name])
                window_state = ckpt.get("window")
            self._truncate_output(offset)
            journal = get_fs().open(self.journal_path, "a", encoding="ascii")
            get_registry().counter(
                "repro_checkpoint_resumes_total", "Runs resumed from a journal"
            ).inc()
            logger.info(
                "resuming from checkpoint",
                extra={"cursor": cursor, "offset": offset},
            )
            return journal, cursor, window_state
        fs = get_fs()
        journal = fs.open(self.journal_path, "w", encoding="ascii")
        try:
            journal.write(
                _encode_record(
                    {
                        "type": "header",
                        "version": JOURNAL_VERSION,
                        "fingerprint": self.fingerprint(),
                    }
                )
            )
            fs.fsync(journal)
        except OSError as exc:
            journal.close()
            if is_disk_full(exc):
                raise DiskFullError.wrap(
                    exc, "durable storage exhausted; journal header write failed"
                ) from exc
            raise
        return journal, 0, None

    def _checkpoint(
        self,
        journal,
        inner: DurableTextSink,
        cursor: int,
        stats: JoinStats,
        buffer,
        final: bool = False,
    ) -> None:
        # Order matters: the output bytes must be durable *before* the
        # journal record that declares them so.
        with trace_span("checkpoint", cursor=int(cursor), final=final):
            try:
                inner.sync()
                record = {
                    "type": "ckpt",
                    "cursor": int(cursor),
                    "offset": int(inner.tell()),
                    "stats": stats.as_dict(),
                }
                if buffer is not None and buffer.g > 0:
                    record["window"] = buffer.snapshot()
                if final:
                    record["done"] = True
                journal.write(_encode_record(record))
                get_fs().fsync(journal)
            except OSError as exc:
                if is_disk_full(exc):
                    # The journal's durable prefix (earlier records) is
                    # untouched; the run stays resumable once space frees.
                    raise DiskFullError.wrap(
                        exc, "durable storage exhausted; checkpoint write failed"
                    ) from exc
                raise
        get_registry().counter(
            "repro_checkpoint_records_total", "Checkpoint records journaled"
        ).inc()
        logger.debug(
            "checkpoint written",
            extra={"cursor": int(cursor), "offset": record["offset"], "final": final},
        )

    def _truncate_output(self, offset: int) -> None:
        fs = get_fs()
        if not fs.exists(self.output_path):
            if offset:
                raise CheckpointCorruptError(
                    self.output_path,
                    f"output file missing but journal records {offset} durable bytes",
                )
            return
        size = fs.getsize(self.output_path)
        if size < offset:
            raise CheckpointCorruptError(
                self.output_path,
                f"output file shorter than the durable offset ({size} < {offset})",
            )
        fs.truncate(self.output_path, offset)
