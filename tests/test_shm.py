"""The zero-copy shared-memory data plane: same bytes, fewer copies.

Every guarantee the plane makes is asserted here:

* **determinism matrix** — shm and pickle planes produce byte-identical
  output files and identical ``repro_join_*`` counters at 1, 2 and 4
  workers, for tree, compact-tree and partitioned algorithms alike.  No
  option selects the plane, so the pickle rows run with
  ``shm_available()`` reporting False — the code a host without POSIX
  shared memory runs;
* **fallback** — a segment that cannot be created falls back to
  shipping the array, with the same bytes and nothing left owned;
* **no leaks** — worker SIGKILL chaos ends with zero owned segments and
  nothing matching ``repro-shm-*`` left in ``/dev/shm``;
* **integrity** — a fingerprint mismatch on attach fails loudly;
* **reuse** — warm ``TaskState`` s are adopted (not rebuilt), spec bytes
  are pickled once, and ``pack_index`` memoizes until the tree changes.
"""

import dataclasses
import filecmp
import glob
import os
import pickle

import numpy as np
import pytest

from repro.api import similarity_join
from repro.core.results import TextSink
from repro.core.verify import brute_force_links
from repro.errors import WorkerPoolError
from repro.io.writer import width_for
from repro.obs.metrics import get_registry, reset_registry
from repro.parallel import parallel_join, shm
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    SharedDataset,
    attach_points,
    clear_process_caches,
    owned_segments,
    shm_available,
)
from repro.parallel.tasks import JoinSpec
from repro.resilience.chaos import FlakyWorker

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_registry()
    yield
    reset_registry()


@pytest.fixture(scope="module")
def pts():
    return np.random.default_rng(11).random((220, 2))


@pytest.fixture
def use_plane(monkeypatch):
    """``use_plane(p)`` makes the following pool runs pick plane ``p``.

    ``"pickle"`` makes ``shm_available()`` report False, so no dataset
    is published and specs ship the array.
    """

    def use(plane):
        monkeypatch.setattr(shm, "_SHM_AVAILABLE", plane == "shm")

    return use


def _devshm_segments():
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def _serial_file(pts, eps, algo, path, g=10):
    sink = TextSink(str(path), id_width=width_for(len(pts)))
    result = similarity_join(pts, eps, algorithm=algo, g=g, sink=sink)
    sink.close()
    return result


def _parallel_file(pts, eps, algo, path, workers=2, g=10, fault=None):
    sink = TextSink(str(path), id_width=width_for(len(pts)))
    result = parallel_join(
        pts, eps, algorithm=algo, g=g, workers=workers, sink=sink, fault=fault,
    )
    sink.close()
    return result


@needs_shm
class TestDeterminismMatrix:
    """The acceptance gate: shm vs pickle is invisible in the output."""

    @pytest.mark.parametrize("algo", ["ssj", "csj", "pbsm-csj"])
    def test_byte_identity_across_planes(self, pts, algo, tmp_path, use_plane):
        serial = tmp_path / "serial.txt"
        _serial_file(pts, 0.06, algo, serial)
        for plane in ("pickle", "shm"):
            use_plane(plane)
            out = tmp_path / f"{plane}.txt"
            result = _parallel_file(pts, 0.06, algo, out)
            assert filecmp.cmp(str(serial), str(out), shallow=False), (
                f"{algo}: {plane} plane output differs from serial"
            )
            assert result.expanded_links() == brute_force_links(pts, 0.06)
        assert owned_segments() == []

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_join_counters_identical_across_planes(self, pts, workers, use_plane):
        """``repro_join_*`` counters (the integer ones — wall-clock times
        legitimately differ) must not depend on the data plane."""
        snaps = {}
        for plane in ("pickle", "shm"):
            use_plane(plane)
            registry = reset_registry()
            result = parallel_join(
                pts, 0.055, algorithm="csj", g=10, workers=workers,
            )
            registry.record_join_stats(result.stats)
            snaps[plane] = {
                name: value
                for name, value in registry.snapshot().items()
                if name.startswith("repro_join_") and "seconds" not in name
            }
        assert snaps["shm"] == snaps["pickle"]
        assert snaps["shm"]["repro_join_distance_computations_total"] > 0

    def test_publish_failure_falls_back_to_shipping_the_array(
        self, pts, tmp_path, monkeypatch
    ):
        def no_segment(nbytes):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(shm, "_create_segment", no_segment)
        serial = tmp_path / "serial.txt"
        _serial_file(pts, 0.06, "csj", serial)
        out = tmp_path / "fallback.txt"
        _parallel_file(pts, 0.06, "csj", out)
        assert filecmp.cmp(str(serial), str(out), shallow=False)
        assert get_registry().snapshot()["repro_shm_fallback_total"] == 1
        assert owned_segments() == []


@needs_shm
class TestChaosNoLeak:
    def test_worker_sigkills_leak_no_segments(self, pts, tmp_path):
        before = _devshm_segments()
        serial = tmp_path / "serial.txt"
        _serial_file(pts, 0.06, "csj", serial)
        fault = FlakyWorker(kill_rate=0.5, seed=0, max_failures=2)
        par = tmp_path / "par.txt"
        _parallel_file(pts, 0.06, "csj", par, fault=fault)
        assert filecmp.cmp(str(serial), str(par), shallow=False)
        assert owned_segments() == []
        assert _devshm_segments() == before

    def test_close_is_idempotent_and_context_managed(self, pts):
        before = _devshm_segments()
        with SharedDataset(pts) as ds:
            assert ds.ref is not None
            assert len(_devshm_segments()) == len(before) + 1
        assert ds.closed
        ds.close()  # second close is a no-op
        assert owned_segments() == []
        assert _devshm_segments() == before


@needs_shm
class TestAttachIntegrity:
    def test_fingerprint_mismatch_fails_loudly(self, pts):
        with SharedDataset(pts) as ds:
            clear_process_caches()  # drop the owner's pre-seeded attach
            bad = dataclasses.replace(ds.ref, fingerprint="0" * 64)
            with pytest.raises(WorkerPoolError, match="fingerprint mismatch"):
                attach_points(bad)
            arr = attach_points(ds.ref)
            assert not arr.flags.writeable
            assert np.array_equal(arr, ds.points)
            # cached per (process, segment): same object back
            assert attach_points(ds.ref) is arr
        assert owned_segments() == []

    def test_orphans_of_dead_owners_are_swept(self, pts, tmp_path):
        import subprocess
        import sys

        from repro.parallel.shm import sweep_orphan_segments

        # A pid guaranteed dead and freshly retired: a child that just exited.
        dead_pid = int(subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        ).stdout)
        orphan = f"/dev/shm/{SEGMENT_PREFIX}{dead_pid:x}-deadbeefcafe"
        with open(orphan, "wb") as f:
            f.write(b"\0" * 64)
        try:
            with SharedDataset(pts) as ds:
                assert ds.ref is not None
                assert not os.path.exists(orphan)  # swept on creation
                # our own (live) segments are never treated as orphans
                assert sweep_orphan_segments() == []
                assert owned_segments() != []
        finally:
            if os.path.exists(orphan):
                os.unlink(orphan)

    def test_vanished_segment_fails_loudly(self, pts):
        ds = SharedDataset(pts)
        ref = ds.ref
        ds.close()
        clear_process_caches()
        with pytest.raises(WorkerPoolError, match="vanished"):
            attach_points(ref)


@needs_shm
class TestWarmStateReuse:
    def _spec(self, ds, eps):
        spec = JoinSpec(
            points=ds.points, eps=eps, algorithm="csj", g=10,
            dataset_ref=ds.ref,
        )
        spec._shared = ds
        return spec

    def test_second_build_adopts_not_rebuilds(self, pts):
        clear_process_caches()
        with SharedDataset(pts) as ds:
            registry = get_registry()
            s1 = self._spec(ds, 0.0525).build_state()
            assert registry.snapshot()["repro_taskstate_rebuilds_total"] == 1
            spec2 = self._spec(ds, 0.0525)
            s2 = spec2.build_state()
            snap = registry.snapshot()
            assert snap["repro_taskstate_rebuilds_total"] == 1
            assert snap["repro_taskstate_warm_hits_total"] == 1
            assert s2 is not s1  # rebound clone carrying the new spec
            assert s2.tasks is s1.tasks
            assert spec2.packed_ref is not None  # restored on the warm hit

    def test_different_config_rebuilds(self, pts):
        clear_process_caches()
        with SharedDataset(pts) as ds:
            registry = get_registry()
            self._spec(ds, 0.0525).build_state()
            self._spec(ds, 0.0625).build_state()  # different eps: new tasks
            assert registry.snapshot()["repro_taskstate_rebuilds_total"] == 2

    def test_standalone_pickle_spec_does_not_cache(self, pts):
        spec = JoinSpec(points=pts, eps=0.05, algorithm="csj")
        assert spec.state_key() is None


@needs_shm
class TestSpecShipping:
    def test_spec_bytes_pickled_once_and_small(self, pts):
        with SharedDataset(pts) as ds:
            spec = JoinSpec(
                points=ds.points, eps=0.05, algorithm="csj",
                dataset_ref=ds.ref,
            )
            spec._shared = ds
            payload = spec.to_bytes()
            assert spec.to_bytes() is payload  # serialized exactly once
            assert len(payload) < 1024  # ~200-byte ref, not the array
            clone = pickle.loads(payload)
            assert np.array_equal(clone.points, pts)
            assert not hasattr(clone, "_shared")  # ownership never ships

    def test_pickle_plane_spec_ships_the_array(self, pts):
        spec = JoinSpec(points=pts, eps=0.05, algorithm="csj")
        clone = pickle.loads(spec.to_bytes())
        assert np.array_equal(clone.points, pts)
        assert len(spec.to_bytes()) > pts.nbytes


class TestPackMemoization:
    def test_pack_cached_until_structure_changes(self, pts):
        from repro.api import build_index
        from repro.index.packed import pack_index

        tree = build_index(pts, "rstar", bulk="str")
        p1 = pack_index(tree)
        assert p1 is not None
        assert pack_index(tree) is p1  # memoized
        pid = tree.add_point(np.array([0.5, 0.5]))
        p2 = pack_index(tree)
        assert p2 is not p1  # add_point invalidated the cache
        assert pack_index(tree) is p2
        tree.delete(pid)
        p3 = pack_index(tree)
        assert p3 is not p2  # delete invalidated it again
        assert pack_index(tree) is p3


@needs_shm
class TestServiceRegistration:
    def test_registered_dataset_served_identically(self, pts):
        from repro.service import JoinRequest, JoinService, ServiceConfig

        offline = similarity_join(pts, 0.05, algorithm="csj")
        svc = JoinService(ServiceConfig(queue_depth=4, executors=1))
        try:
            registered = svc.register_dataset(pts)
            assert registered.ref is not None
            outcome = svc.submit(
                JoinRequest(points=registered.points, eps=0.05)
            ).wait(60.0)
            assert outcome.status == "admitted"
            assert outcome.result.links == offline.links
            assert outcome.result.groups == offline.groups
        finally:
            svc.close()
        assert owned_segments() == []  # close() released registrations
