"""Zero-copy shared-memory data plane for the parallel executor.

The pool's historical cost model was "ship everything, rebuild
everywhere": each worker received the full ``points`` array pickled
into its :class:`~repro.parallel.tasks.JoinSpec` and then rebuilt the
entire tree from scratch in ``TaskState``.  This module replaces both
copies with *references*:

* :class:`SharedDataset` — the **owner** of one dataset's shared-memory
  segments.  It publishes ``points`` (and, for tree joins, the
  level-order :class:`~repro.index.packed.PackedIndex` arrays) into
  ``multiprocessing.shared_memory`` once; workers attach by name and
  map the same physical pages.  A spec then crosses the process
  boundary as a ~200-byte :class:`DatasetRef` instead of the dataset.
* :func:`attach_points` / :func:`attach_packed` — the worker side.
  Attachments are cached per ``(process, segment)`` and the dataset
  fingerprint (PR 8's :func:`~repro.dynamic.maintain.dataset_fingerprint`)
  is verified once on first attach, so a stale or recycled segment name
  fails loudly instead of joining the wrong bytes.
* a **warm-state cache** — built ``TaskState`` objects keyed by
  ``(fingerprint, join configuration)``, so respawned workers (and
  repeated service requests against a registered dataset) skip the
  attach→enumerate work entirely and adopt the existing state.

Ownership and lifetime contract
-------------------------------
Exactly one process — the one that created the :class:`SharedDataset` —
owns each segment and is responsible for ``unlink``.  Cleanup is
guaranteed along three independent paths:

1. explicit ``close()`` / ``with`` (the normal path, also called from
   ``parallel_join``'s ``finally`` and ``JoinService.close``);
2. a :func:`weakref.finalize` registered at creation, which Python runs
   at garbage collection *and* at interpreter exit (atexit);
3. the stdlib ``resource_tracker``, which unlinks leaked segments if
   the owner is SIGKILLed before (1) or (2) can run;
4. :func:`sweep_orphan_segments` — segment names embed the creator
   pid, so when even the tracker dies with the owner (SIGKILL of the
   whole process group), the next process to create a segment unlinks
   every segment whose owner no longer exists.

Workers share the owner's tracker process (both ``fork`` and ``spawn``
children inherit its pipe), so a worker attaching — or dying, even by
SIGKILL — never triggers an unlink; the tracker acts only when *every*
process holding the pipe is gone.  For the same reason workers must
**not** call ``resource_tracker.unregister`` on attach: the cache is
shared, so that would silently delete the owner's SIGKILL safety net.
The finalizer also no-ops in forked children (pid guard) so a child
exiting never unlinks its parent's segments.

Fallback rules
--------------
No option selects the plane; :func:`share_dataset` follows what it
observes.  Where POSIX shared memory does not work (probed once) a pool
run creates no :class:`SharedDataset` and its spec ships the array.
Where it works but a segment *creation* fails, the dataset keeps
``ref=None`` and the spec ships the array too (counted in
``repro_shm_fallback_total``) rather than failing the join.  Either way
the task sequence — and therefore the output bytes — is identical
across planes by construction.
"""

from __future__ import annotations

import os
import threading
import uuid
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import WorkerPoolError, validate_points
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry

__all__ = [
    "SEGMENT_PREFIX",
    "DatasetRef",
    "PackedRef",
    "SharedDataset",
    "attach_packed",
    "attach_points",
    "clear_process_caches",
    "owned_segments",
    "share_dataset",
    "shm_available",
    "sweep_orphan_segments",
    "warm_state_get",
    "warm_state_put",
]

logger = get_logger("parallel.shm")

#: Every segment this library creates carries this name prefix, so leak
#: checks (tests, CI) can scan ``/dev/shm`` without false positives.
SEGMENT_PREFIX = "repro-shm-"


# ----------------------------------------------------------------------
# Plane probe
# ----------------------------------------------------------------------
_SHM_AVAILABLE: Optional[bool] = None


def shm_available() -> bool:
    """``True`` when POSIX shared memory works in this process (probed once)."""
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(
                name=f"{SEGMENT_PREFIX}probe-{os.getpid():x}-{uuid.uuid4().hex[:8]}",
                create=True,
                size=1,
            )
            seg.close()
            seg.unlink()
            _SHM_AVAILABLE = True
        except Exception:  # noqa: BLE001 - any failure means "no shm here"
            _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


# ----------------------------------------------------------------------
# References (what actually crosses the process boundary)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetRef:
    """Name + shape + fingerprint of a published ``points`` segment."""

    segment: str
    dtype: str
    shape: tuple[int, ...]
    fingerprint: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


@dataclass(frozen=True)
class PackedRef:
    """Name + layout of a published :class:`PackedIndex` segment.

    ``fields`` maps each packed array name to ``(offset, dtype, shape)``
    within the single segment; the point data itself is *not* here — a
    packed ref is always resolved against an already-attached
    :class:`DatasetRef`.
    """

    segment: str
    kind: str
    fields: tuple[tuple[str, int, str, tuple[int, ...]], ...]
    fingerprint: str


# ----------------------------------------------------------------------
# Owner side
# ----------------------------------------------------------------------
#: Names of segments created (and still owned) by this process.
_OWNED: set[str] = set()
_OWNED_LOCK = threading.Lock()


def owned_segments() -> list[str]:
    """Segments created by this process and not yet unlinked (for tests)."""
    with _OWNED_LOCK:
        return sorted(_OWNED)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


def sweep_orphan_segments() -> list[str]:
    """Unlink segments whose creating process no longer exists.

    The last line of defence: when an owner *and* its resource tracker
    are SIGKILLed together (e.g. a whole process group is nuked),
    nothing inside the dead group can unlink.  Segment names embed the
    creator pid, so any process about to create segments sweeps first:
    a name whose pid is gone can never be unlinked by its owner.  Pid
    recycling only makes the check conservative — a live unrelated
    process with the recycled pid just defers the sweep.  Returns the
    names removed.
    """
    root = "/dev/shm"
    removed: list[str] = []
    if not os.path.isdir(root):  # pragma: no cover - non-POSIX-shm platform
        return removed
    try:
        names = os.listdir(root)
    except OSError:  # pragma: no cover
        return removed
    for name in names:
        if not name.startswith(SEGMENT_PREFIX):
            continue
        pid_hex = name[len(SEGMENT_PREFIX):].split("-", 1)[0]
        try:
            pid = int(pid_hex, 16)
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(root, name))
            removed.append(name)
        except OSError:  # pragma: no cover - raced with another sweeper
            continue
    if removed:
        logger.warning(
            "swept shared-memory segments orphaned by dead owners",
            extra={"segments": removed},
        )
    return removed


def _create_segment(nbytes: int):
    from multiprocessing import shared_memory

    name = f"{SEGMENT_PREFIX}{os.getpid():x}-{uuid.uuid4().hex[:12]}"
    seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
    with _OWNED_LOCK:
        _OWNED.add(name)
    get_registry().data_plane_event("segment")
    return seg


def _release_segments(segments: list, owner_pid: int) -> None:
    """Finalizer body: close + unlink every segment (owner process only).

    ``segments`` is the live list owned by one :class:`SharedDataset`;
    segments published after the finalizer was registered are covered
    because the *list object* is shared.  The pid guard keeps forked
    children (which inherit the finalizer registry) from unlinking their
    parent's segments on exit.
    """
    if os.getpid() != owner_pid:
        return
    while segments:
        seg = segments.pop()
        with _OWNED_LOCK:
            _OWNED.discard(seg.name)
        try:
            seg.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            seg.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


#: Sentinel: "use the dataset's registered metric" in :meth:`get_tree`.
_DEFAULT_METRIC = object()


class SharedDataset:
    """Owner of the shared-memory form of one dataset (plus packed trees).

    Create it in the process that will run the pool; pass it (or let
    ``parallel_join`` create an ephemeral one) and the spec ships a
    :class:`DatasetRef` instead of the array.  ``ref`` stays ``None``
    when shared memory is unavailable or publishing fails; the spec then
    ships the array.  A context manager — leaving the ``with`` block
    unlinks every segment it created.
    """

    def __init__(self, points: np.ndarray, metric: object = None):
        from repro.dynamic.maintain import dataset_fingerprint

        self.points = validate_points(points)
        self.metric = metric
        self.fingerprint = dataset_fingerprint(
            self.points, range(len(self.points))
        )
        self.ref: Optional[DatasetRef] = None
        #: Packed-index publications, keyed by tree configuration.
        self._packed: dict[tuple, tuple[int, PackedRef]] = {}
        #: Built trees for serial / parent-side reuse, same keys.
        self._trees: dict[tuple, object] = {}
        self._segments: list = []
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments, os.getpid()
        )
        if shm_available():
            sweep_orphan_segments()
            try:
                self.ref = self._publish_points()
            except OSError as exc:
                get_registry().data_plane_event("fallback")
                logger.warning(
                    "shared-memory publish failed; falling back to pickle",
                    extra={"error": str(exc)},
                )

    # -- segment publication ------------------------------------------------
    def _publish_points(self) -> DatasetRef:
        pts = np.ascontiguousarray(self.points, dtype=float)
        seg = self._create(pts.nbytes)
        view = np.ndarray(pts.shape, dtype=pts.dtype, buffer=seg.buf)
        view[...] = pts
        ref = DatasetRef(
            segment=seg.name,
            dtype=str(pts.dtype),
            shape=tuple(pts.shape),
            fingerprint=self.fingerprint,
        )
        # The owner's own attach should be free: pre-seed the attach
        # cache with the original array so the parent's TaskState keeps
        # using the memory it already has.
        _seed_attachment(ref, self.points)
        return ref

    def _create(self, nbytes: int):
        seg = _create_segment(nbytes)
        self._segments.append(seg)
        return seg

    def publish_packed(self, key: tuple, packed) -> Optional[PackedRef]:
        """Publish one packed index under ``key``; idempotent per object.

        Re-publishing the *same* ``PackedIndex`` object returns the
        existing ref; a different object under the same key (the tree
        was rebuilt) replaces the publication.
        """
        if self.ref is None:
            return None
        entry = self._packed.get(key)
        if entry is not None and entry[0] == id(packed):
            return entry[1]
        from repro.index.packed import export_packed_arrays

        arrays = export_packed_arrays(packed)
        if arrays is None:
            return None
        fields = []
        offset = 0
        for name, arr in arrays:
            offset = (offset + 63) & ~63  # 64-byte align each block
            fields.append((name, offset, str(arr.dtype), tuple(arr.shape)))
            offset += arr.nbytes
        try:
            seg = self._create(offset)
        except OSError:
            get_registry().data_plane_event("fallback")
            return None
        for (name, beg, dtype, shape), (_, arr) in zip(fields, arrays):
            view = np.ndarray(shape, dtype=dtype, buffer=seg.buf, offset=beg)
            view[...] = arr
        ref = PackedRef(
            segment=seg.name,
            kind=packed.kind,
            fields=tuple(fields),
            fingerprint=self.fingerprint,
        )
        self._packed[key] = (id(packed), ref)
        return ref

    def packed_ref(self, key: tuple) -> Optional[PackedRef]:
        entry = self._packed.get(key)
        return entry[1] if entry is not None else None

    # -- parent-side tree reuse --------------------------------------------
    def get_tree(
        self,
        index: str = "rstar",
        max_entries: int = 64,
        bulk: Optional[str] = "str",
        metric: object = _DEFAULT_METRIC,
    ):
        """Build (once) and cache the tree for one index configuration."""
        if metric is _DEFAULT_METRIC:
            metric = self.metric
        key = (str(index), int(max_entries), bulk, repr(metric))
        tree = self._trees.get(key)
        if tree is None:
            from repro.api import build_index

            tree = build_index(
                self.points,
                index,
                metric=metric,
                max_entries=max_entries,
                bulk=bulk,
            )
            self._trees[key] = tree
        return tree

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment this dataset owns (idempotent)."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "SharedDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedDataset(n={len(self.points)}, ref={self.ref is not None}, "
            f"segments={len(self._segments)})"
        )


def share_dataset(
    spec, shared: Optional[SharedDataset] = None
) -> Optional[SharedDataset]:
    """Put a pool run's :class:`~repro.parallel.tasks.JoinSpec` on shared memory.

    ``shared`` is a caller-owned dataset (e.g. one registered with the
    service).  Without it, where shared memory works here, an ephemeral
    dataset is created and returned: the caller owns it and must close
    it after the run.  Where shared memory does not work, the spec is
    left as it is and ships the array.
    """
    owned = None
    if shared is None and shm_available():
        owned = shared = SharedDataset(spec.points, metric=spec.metric)
    if shared is not None:
        spec.points = shared.points
        spec.dataset_ref = shared.ref
        spec._shared = shared
    return owned


# ----------------------------------------------------------------------
# Worker side: attach
# ----------------------------------------------------------------------
#: segment name -> (SharedMemory handle | None, {array-key: ndarray})
_ATTACHED: dict[str, tuple[object, dict]] = {}
_ATTACH_LOCK = threading.Lock()


def _seed_attachment(ref: DatasetRef, points: np.ndarray) -> None:
    """Owner-side shortcut: resolve ``ref`` to the original array."""
    with _ATTACH_LOCK:
        _ATTACHED[ref.segment] = (None, {"points": points})


def _open_segment(name: str):
    """Attach to an existing segment by name.

    Attaching re-registers the name with the resource tracker; that is
    an idempotent set-add in the tracker process shared with the owner,
    so it is deliberately left alone — unregistering here would delete
    the owner's registration (shared cache) and with it the SIGKILL
    safety net.
    """
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name, create=False)
    except (FileNotFoundError, OSError) as exc:
        raise WorkerPoolError(
            f"shared-memory segment {name!r} has vanished (owner gone?): {exc}"
        ) from exc
    return seg


def attach_points(ref: DatasetRef) -> np.ndarray:
    """Map a published ``points`` array; cached per (process, segment).

    The first attach verifies the content fingerprint recorded in the
    ref, so a recycled or corrupted segment fails loudly instead of
    silently joining the wrong dataset.
    """
    with _ATTACH_LOCK:
        entry = _ATTACHED.get(ref.segment)
        if entry is not None and "points" in entry[1]:
            return entry[1]["points"]
    seg = _open_segment(ref.segment)
    arr = np.ndarray(ref.shape, dtype=ref.dtype, buffer=seg.buf)
    from repro.dynamic.maintain import dataset_fingerprint

    actual = dataset_fingerprint(arr, range(len(arr)))
    if actual != ref.fingerprint:
        seg.close()
        raise WorkerPoolError(
            f"shared-memory segment {ref.segment!r} fingerprint mismatch: "
            f"expected {ref.fingerprint[:12]}…, found {actual[:12]}… — "
            "refusing to join against unverified data"
        )
    arr.flags.writeable = False
    with _ATTACH_LOCK:
        _ATTACHED[ref.segment] = (seg, {"points": arr})
    get_registry().data_plane_event("attach")
    return arr


def attach_packed(ref: PackedRef, points: np.ndarray, metric):
    """Materialise a :class:`PackedIndex` over a published segment."""
    with _ATTACH_LOCK:
        entry = _ATTACHED.get(ref.segment)
        if entry is not None and "packed" in entry[1]:
            return entry[1]["packed"]
    seg = _open_segment(ref.segment)
    arrays = {}
    for name, beg, dtype, shape in ref.fields:
        arr = np.ndarray(shape, dtype=dtype, buffer=seg.buf, offset=beg)
        arr.flags.writeable = False
        arrays[name] = arr
    from repro.index.packed import adopt_packed_arrays

    packed = adopt_packed_arrays(ref.kind, points, metric, arrays)
    with _ATTACH_LOCK:
        _ATTACHED[ref.segment] = (seg, {"packed": packed})
    get_registry().data_plane_event("attach")
    return packed


# ----------------------------------------------------------------------
# Warm per-process TaskState cache
# ----------------------------------------------------------------------
_WARM: dict[tuple, object] = {}
_WARM_ORDER: list[tuple] = []
_WARM_LOCK = threading.Lock()
_WARM_LIMIT = 8


def warm_state_get(key: tuple):
    """Fetch a previously built ``TaskState`` for this exact join config."""
    with _WARM_LOCK:
        state = _WARM.get(key)
        if state is not None:
            _WARM_ORDER.remove(key)
            _WARM_ORDER.append(key)
            get_registry().data_plane_event("warm_hit")
        return state


def warm_state_put(key: tuple, state) -> None:
    with _WARM_LOCK:
        if key not in _WARM:
            _WARM_ORDER.append(key)
            while len(_WARM_ORDER) > _WARM_LIMIT:
                _WARM.pop(_WARM_ORDER.pop(0), None)
        _WARM[key] = state


def _reinit_locks_after_fork() -> None:
    """Replace module locks in forked children.

    A service executor thread may hold one of these locks at the instant
    another thread forks a worker; the child would inherit a locked lock
    it can never release.  Fresh locks in the child are always safe: the
    caches they guard are only read from one thread there.
    """
    global _OWNED_LOCK, _ATTACH_LOCK, _WARM_LOCK
    _OWNED_LOCK = threading.Lock()
    _ATTACH_LOCK = threading.Lock()
    _WARM_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on Linux
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)


def clear_process_caches() -> None:
    """Drop attach + warm caches (tests; never required for correctness)."""
    with _WARM_LOCK:
        _WARM.clear()
        _WARM_ORDER.clear()
    with _ATTACH_LOCK:
        for seg, _ in _ATTACHED.values():
            if seg is not None:
                try:
                    seg.close()
                except OSError:  # pragma: no cover
                    pass
        _ATTACHED.clear()
