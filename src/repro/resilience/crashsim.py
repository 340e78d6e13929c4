"""Systematic crash-state enumeration and recovery verification.

ALICE-style checking (Pillai et al., OSDI '14) of the durability
contracts this library claims: record the full write-op trace of a
workload through :class:`~repro.resilience.vfs.TraceFS`, reconstruct
**every legal post-crash disk state** the trace admits, then run the
component's recovery path on each state and assert the final output is
byte-identical — or that corruption is surfaced as a typed error, never
silent garbage.

Crash-state model
-----------------

A crash may happen between any two operations.  For the crash point
after trace prefix ``ops[:k]`` the explorer materialises up to three
disk images:

``full``
    Every applied operation reached the disk (the kernel flushed
    everything just in time).

``durable``
    Only *guaranteed* effects survive: each file holds the content of
    its last ``fsync`` (a file created but never fsynced survives as
    the classic zero-length artifact); a ``replace`` becomes durable
    only once the destination's parent directory — or the renamed file
    itself, ext4-style — is fsynced, otherwise the old destination
    survives and the source file remains.

``torn``
    Like ``full``, but the final operation — when it is an un-fsynced
    write — hit the platter partially: only a prefix (half, block
    style) of its payload is present.

Simplifying assumptions, stated explicitly: file creation and
``open("w")`` truncation are treated as immediately durable (ordered
metadata journaling), ``unlink`` likewise; write reordering *within*
one file between fsync barriers is subsumed by the prefix+torn states
because all writers here are append-only.  These assumptions only
*remove* states; every state the explorer does produce is legal under
POSIX, so a recovery failure on any of them is a real bug.

Verifiers
---------

:func:`verify_checkpointed_join` — the checkpoint journal + durable
sink protocol: every state must resume (or, when the journal itself is
not yet durable, restart after a typed :class:`CheckpointCorruptError`)
to the byte-identical reference output.

:func:`verify_atomic_sink` — :class:`AtomicTextSink` publication: in
every state the destination holds the previous content (or is absent)
or the complete new output — never a torn hybrid.

:func:`verify_index_save` — atomic :func:`~repro.index.persist.save_index`:
every state leaves the index path loadable, equal to the old or the new
tree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.errors import CheckpointCorruptError
from repro.io.durable import SandboxFS, scoped_fs
from repro.resilience.vfs import Op, TraceFS

__all__ = [
    "CrashState",
    "CrashReport",
    "enumerate_crash_states",
    "materialize",
    "reconstruct",
    "verify_atomic_sink",
    "verify_checkpointed_join",
    "verify_index_save",
]


# ---------------------------------------------------------------------------
# Disk-image reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrashState:
    """One legal post-crash disk image: logical path → file bytes."""

    files: dict[str, bytes]
    op_index: int  # ops[:op_index] were issued before the crash
    variant: str   # "full" | "durable" | "torn"

    def key(self) -> tuple:
        """Content identity — distinct keys are distinct disk images."""
        return tuple(sorted(self.files.items()))

    def __repr__(self) -> str:
        sizes = {os.path.basename(p): len(b) for p, b in sorted(self.files.items())}
        return f"CrashState(op={self.op_index}, {self.variant}, files={sizes})"


@dataclass
class _PendingRename:
    src: str
    dst: str
    content: Optional[bytes]  # src's durable content at rename time


class _DiskSim:
    """Replays a trace, tracking applied and guaranteed-durable images."""

    def __init__(self, base: Optional[dict] = None):
        self.current: dict[str, bytearray] = {
            p: bytearray(b) for p, b in (base or {}).items()
        }
        self.synced: dict[str, bytes] = dict(base or {})
        self.pending: list[_PendingRename] = []

    def apply(self, op: Op, data_override: Optional[bytes] = None) -> None:
        if op.injected and op.kind != "write":
            return  # a faulted metadata op had no effect
        if op.kind == "open":
            if op.mode == "w":
                self.current[op.path] = bytearray()
                self.synced[op.path] = b""
            else:  # append: create if missing
                self.current.setdefault(op.path, bytearray())
                self.synced.setdefault(op.path, b"")
        elif op.kind == "write":
            data = op.data if data_override is None else data_override
            if not data:
                return
            buf = self.current.setdefault(op.path, bytearray())
            end = op.offset + len(data)
            if len(buf) < end:
                buf.extend(b"\0" * (end - len(buf)))
            buf[op.offset:end] = data
        elif op.kind == "fsync":
            self.synced[op.path] = bytes(self.current.get(op.path, b""))
            # ext4-style: fsync of a renamed file persists the rename too.
            for pend in [p for p in self.pending if p.dst == op.path]:
                self.synced.pop(pend.src, None)
                self.pending.remove(pend)
        elif op.kind == "fsync_dir":
            for pend in [
                p for p in self.pending if os.path.dirname(p.dst) == op.path
            ]:
                self.synced[pend.dst] = (
                    pend.content if pend.content is not None else b""
                )
                self.synced.pop(pend.src, None)
                self.pending.remove(pend)
        elif op.kind == "replace":
            # Until the rename is durable, the durable view keeps the
            # entry under the *old* name and the old dst content.
            self.pending.append(
                _PendingRename(op.path, op.dst, self.synced.get(op.path))
            )
            self.current[op.dst] = self.current.pop(op.path, bytearray())
        elif op.kind == "truncate":
            buf = self.current.setdefault(op.path, bytearray())
            del buf[op.size:]
        elif op.kind == "unlink":
            self.current.pop(op.path, None)
            self.synced.pop(op.path, None)
            self.pending = [p for p in self.pending if p.dst != op.path]

    def full_state(self) -> dict[str, bytes]:
        return {p: bytes(b) for p, b in self.current.items()}

    def durable_state(self) -> dict[str, bytes]:
        # Pending (un-persisted) renames: dst keeps its old durable
        # content (already in `synced`), src survives (also in `synced`).
        return dict(self.synced)


def _replay(
    ops: Sequence[Op], upto: int, base: Optional[dict], torn_last: bool
) -> Optional[_DiskSim]:
    sim = _DiskSim(base)
    for i in range(upto):
        op = ops[i]
        if torn_last and i == upto - 1:
            if op.kind != "write" or op.injected or len(op.data) < 2:
                return None  # no distinct torn image at this crash point
            sim.apply(op, data_override=op.data[: len(op.data) // 2])
        else:
            sim.apply(op)
    return sim


def reconstruct(
    ops: Sequence[Op],
    upto: int,
    variant: str = "full",
    base: Optional[dict] = None,
) -> Optional[dict]:
    """The disk image for one crash point: ``ops[:upto]`` under ``variant``.

    Returns logical path → bytes, or ``None`` when the variant does not
    apply (a ``torn`` request whose final op is not a tearable write).
    """
    sim = _replay(ops, upto, base, torn_last=(variant == "torn"))
    if sim is None:
        return None
    return sim.durable_state() if variant == "durable" else sim.full_state()


def enumerate_crash_states(
    ops: Sequence[Op],
    base: Optional[dict] = None,
    crash_points: Optional[Iterable[int]] = None,
    variants: Sequence[str] = ("full", "durable", "torn"),
) -> list[CrashState]:
    """All distinct post-crash disk images the trace admits.

    ``base`` holds pre-existing durable files (logical path → bytes).
    ``crash_points`` restricts which prefixes ``ops[:k]`` are explored
    (default: every ``k`` in ``0..len(ops)``).  States identical in
    content are deduplicated; the earliest (op_index, variant) wins.
    """
    points = (
        sorted(set(int(k) for k in crash_points))
        if crash_points is not None
        else range(len(ops) + 1)
    )
    states: list[CrashState] = []
    seen: set[tuple] = set()
    for k in points:
        if not 0 <= k <= len(ops):
            raise ValueError(f"crash point {k} outside trace of {len(ops)} ops")
        for variant in variants:
            if variant == "torn":
                sim = _replay(ops, k, base, torn_last=True)
                if sim is None:
                    continue
                files = sim.full_state()
            else:
                sim = _replay(ops, k, base, torn_last=False)
                files = (
                    sim.full_state() if variant == "full" else sim.durable_state()
                )
            state = CrashState(files=files, op_index=k, variant=variant)
            if state.key() not in seen:
                seen.add(state.key())
                states.append(state)
    return states


def materialize(state: CrashState, sandbox: SandboxFS) -> None:
    """Write a crash state's files into a sandbox for recovery to run in."""
    for path, data in state.files.items():
        with sandbox.open(path, "wb") as handle:
            handle.write(data)


# ---------------------------------------------------------------------------
# Recovery verification
# ---------------------------------------------------------------------------

@dataclass
class CrashReport:
    """Outcome of verifying one workload across its crash states."""

    workload: str
    ops: int = 0
    states_total: int = 0
    states_verified: int = 0
    recovered_resume: int = 0
    recovered_restart: int = 0
    corrupt_detected: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.states_verified > 0 and not self.failures

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "ops": self.ops,
            "states_total": self.states_total,
            "states_verified": self.states_verified,
            "recovered_resume": self.recovered_resume,
            "recovered_restart": self.recovered_restart,
            "corrupt_detected": self.corrupt_detected,
            "failures": self.failures,
            "ok": self.ok,
        }

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"FAIL({len(self.failures)})"
        return (
            f"CrashReport({self.workload}: {self.states_verified}/"
            f"{self.states_total} states, resume={self.recovered_resume}, "
            f"restart={self.recovered_restart}, {status})"
        )


def _sample(states: list, max_states: Optional[int]) -> list:
    """Evenly thin a state list to ``max_states`` (keeping first/last)."""
    if max_states is None or len(states) <= max_states:
        return states
    idx = np.linspace(0, len(states) - 1, max_states).astype(int)
    return [states[i] for i in sorted(set(int(i) for i in idx))]


def verify_checkpointed_join(
    points: np.ndarray,
    eps: float,
    workdir: str,
    algorithm: str = "csj",
    g: int = 10,
    cadence: int = 4,
    max_states: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CrashReport:
    """Crash-verify the checkpoint journal + durable sink protocol.

    Runs a checkpointed join to completion under :class:`TraceFS`,
    enumerates every post-crash disk state of the (output, journal)
    pair, and for each state attempts ``resume=True`` — falling back to
    a fresh run when the state is detected as unresumable via a typed
    :class:`CheckpointCorruptError` (e.g. the crash predates the first
    durable journal record).  Every state must end with output bytes
    identical to an uninterrupted run's.
    """
    from repro.resilience.checkpoint import CheckpointedJoin

    workdir = os.path.abspath(workdir)
    out = os.path.join(workdir, "out.txt")
    journal = out + ".journal"
    report = CrashReport(workload=f"checkpoint/{algorithm}")

    def job() -> "CheckpointedJoin":
        return CheckpointedJoin(
            points, eps, out, algorithm=algorithm, g=g, cadence=cadence,
            journal_path=journal,
        )

    # Reference: an uninterrupted traced run; its sandbox output is the
    # byte-exact target every recovered state must reproduce.
    trace = TraceFS(root=os.path.join(workdir, "trace"))
    with scoped_fs(trace):
        job().run()
    with open(trace.delegate.map(out), "rb") as handle:
        reference = handle.read()
    report.ops = len(trace.ops)

    states = _sample(enumerate_crash_states(trace.ops), max_states)
    report.states_total = len(states)

    for i, state in enumerate(states):
        if progress is not None:
            progress(i, len(states))
        sandbox = SandboxFS(os.path.join(workdir, f"state{i:04d}"))
        materialize(state, sandbox)
        try:
            with scoped_fs(sandbox):
                try:
                    job().run(resume=True)
                    report.recovered_resume += 1
                except CheckpointCorruptError:
                    # The crash predates a resumable journal — detected,
                    # typed, and recoverable by starting over.
                    report.corrupt_detected += 1
                    job().run(resume=False)
                    report.recovered_restart += 1
            with open(sandbox.map(out), "rb") as handle:
                recovered = handle.read()
            if recovered != reference:
                report.failures.append(
                    f"{state!r}: recovered output differs "
                    f"({len(recovered)} vs {len(reference)} bytes)"
                )
        except Exception as exc:  # noqa: BLE001 - report, don't mask, the state
            report.failures.append(f"{state!r}: {type(exc).__name__}: {exc}")
        report.states_verified += 1
    return report


def verify_atomic_sink(
    points: np.ndarray,
    eps: float,
    workdir: str,
    algorithm: str = "csj",
    g: int = 10,
    previous: Optional[bytes] = b"previous good output\n",
    max_states: Optional[int] = None,
) -> CrashReport:
    """Crash-verify :class:`AtomicTextSink`'s all-or-nothing publication.

    In every enumerated state the destination must hold exactly the
    ``previous`` content (or be absent when there was none) or the
    complete new output — a torn hybrid in any state is a failure.
    """
    from repro.api import similarity_join
    from repro.resilience.sinks import AtomicTextSink

    workdir = os.path.abspath(workdir)
    dst = os.path.join(workdir, "out.txt")
    report = CrashReport(workload=f"atomic-sink/{algorithm}")

    trace = TraceFS(root=os.path.join(workdir, "trace"))
    base = {dst: previous} if previous is not None else None
    if previous is not None:
        with trace.delegate.open(dst, "wb") as handle:
            handle.write(previous)
    with scoped_fs(trace):
        with AtomicTextSink(dst, id_width=4) as sink:
            similarity_join(points, eps, algorithm=algorithm, g=g, sink=sink)
    with open(trace.delegate.map(dst), "rb") as handle:
        reference = handle.read()
    report.ops = len(trace.ops)

    legal = {reference}
    if previous is not None:
        legal.add(previous)

    states = _sample(
        enumerate_crash_states(trace.ops, base=base), max_states
    )
    report.states_total = len(states)
    for state in states:
        content = state.files.get(dst)
        if content is None:
            if previous is not None:
                report.failures.append(
                    f"{state!r}: previously published output vanished"
                )
        elif content not in legal:
            report.failures.append(
                f"{state!r}: destination holds a torn hybrid "
                f"({len(content)} bytes)"
            )
        report.states_verified += 1
    report.recovered_resume = report.states_verified - len(report.failures)
    return report


def verify_index_save(
    points: np.ndarray,
    workdir: str,
    index: str = "rstar",
    max_states: Optional[int] = None,
) -> CrashReport:
    """Crash-verify atomic index persistence.

    Saves a tree over half the points, then — traced — re-saves a tree
    over all of them to the same path.  Every crash state must leave the
    path holding byte-exactly the old or the new index, and
    :func:`load_index` must succeed on it.
    """
    from repro.index.bulk import bulk_load
    from repro.index.persist import load_index, save_index

    workdir = os.path.abspath(workdir)
    path = os.path.join(workdir, "tree.npz")
    report = CrashReport(workload=f"index-save/{index}")

    old_tree = bulk_load(points[: max(4, len(points) // 2)], tree_class=index)
    new_tree = bulk_load(points, tree_class=index)

    trace = TraceFS(root=os.path.join(workdir, "trace"))
    with scoped_fs(trace):
        save_index(old_tree, path)
        with trace.delegate.open(path, "rb") as handle:
            base = {path: handle.read()}
        trace.ops.clear()
        trace._next_index = 0
        save_index(new_tree, path)
    with trace.delegate.open(path, "rb") as handle:
        reference = handle.read()
    report.ops = len(trace.ops)

    states = _sample(
        enumerate_crash_states(trace.ops, base=base), max_states
    )
    report.states_total = len(states)
    for i, state in enumerate(states):
        content = state.files.get(path)
        if content is None:
            report.failures.append(f"{state!r}: index file vanished")
            report.states_verified += 1
            continue
        if content not in (base[path], reference):
            report.failures.append(
                f"{state!r}: index file is a torn hybrid ({len(content)} bytes)"
            )
            report.states_verified += 1
            continue
        sandbox = SandboxFS(os.path.join(workdir, f"istate{i:04d}"))
        materialize(state, sandbox)
        try:
            with scoped_fs(sandbox):
                loaded = load_index(path)
                loaded.validate()
            report.recovered_resume += 1
        except CheckpointCorruptError:
            report.failures.append(
                f"{state!r}: an old-or-new index image failed to load"
            )
        except Exception as exc:  # noqa: BLE001
            report.failures.append(f"{state!r}: {type(exc).__name__}: {exc}")
        report.states_verified += 1
    return report
