"""Crash-state enumeration and recovery verification.

Unit tests pin down the disk-state model on hand-built traces (fsync
barriers, zero-length creation artifacts, pending-rename semantics, torn
writes); the verifier tests and the hypothesis property suite then prove
the real components — checkpointed joins (serial and parallel), atomic
sinks, index persistence — recover byte-identically from *every*
enumerated post-crash disk state.
"""

import errno
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DiskFullError
from repro.resilience.chaos import FailurePlan, FlakySink
from repro.resilience.checkpoint import CheckpointedJoin
from repro.resilience.crashsim import (
    enumerate_crash_states,
    reconstruct,
    verify_atomic_sink,
    verify_checkpointed_join,
    verify_index_save,
)
from repro.resilience.sinks import RetryingSink
from repro.resilience.vfs import Op, TraceFS


def _ops(*specs):
    """Build a trace from (kind, path, kwargs) shorthand."""
    out = []
    for index, spec in enumerate(specs):
        kind, path, kwargs = spec[0], spec[1], (spec[2] if len(spec) > 2 else {})
        out.append(Op(index=index, kind=kind, path=path, **kwargs))
    return out


class TestDiskStateModel:
    def test_unsynced_creation_leaves_zero_length_artifact(self):
        ops = _ops(
            ("open", "/f", {"mode": "w"}),
            ("write", "/f", {"offset": 0, "data": b"hello"}),
        )
        # Crash after the write, durable view: the file exists but empty.
        assert reconstruct(ops, 2, "durable") == {"/f": b""}
        assert reconstruct(ops, 2, "full") == {"/f": b"hello"}
        assert any(
            s.files == {"/f": b""} for s in enumerate_crash_states(ops)
        )

    def test_fsync_is_a_durability_barrier(self):
        ops = _ops(
            ("open", "/f", {"mode": "w"}),
            ("write", "/f", {"offset": 0, "data": b"aaaa"}),
            ("fsync", "/f"),
            ("write", "/f", {"offset": 4, "data": b"bbbb"}),
        )
        assert reconstruct(ops, 4, "durable") == {"/f": b"aaaa"}  # post-barrier
        assert reconstruct(ops, 4, "full") == {"/f": b"aaaabbbb"}

    def test_torn_state_cuts_the_last_write_in_half(self):
        ops = _ops(
            ("open", "/f", {"mode": "w"}),
            ("write", "/f", {"offset": 0, "data": b"0123456789"}),
        )
        torn = [s for s in enumerate_crash_states(ops) if s.variant == "torn"]
        assert any(s.files == {"/f": b"01234"} for s in torn)

    def test_rename_pending_until_directory_fsync(self):
        base = {"/dst": b"old"}
        ops = _ops(
            ("open", "/tmp.part", {"mode": "w"}),
            ("write", "/tmp.part", {"offset": 0, "data": b"new!"}),
            ("fsync", "/tmp.part"),
            ("replace", "/tmp.part", {"dst": "/dst"}),
            ("fsync_dir", "/"),
        )
        # After the rename but before the dir fsync: the durable view may
        # still show the OLD destination and the source file.
        assert reconstruct(ops, 4, "durable", base) == {
            "/dst": b"old", "/tmp.part": b"new!",
        }
        # After the dir fsync the rename is durable; the source is gone.
        assert reconstruct(ops, 5, "durable", base) == {"/dst": b"new!"}
        # In every state the destination is exactly old or new — the
        # atomicity the sink claims.
        for state in enumerate_crash_states(ops, base=base):
            assert state.files.get("/dst") in (b"old", b"new!")

    def test_injected_metadata_fault_has_no_effect_on_replay(self):
        ops = _ops(
            ("open", "/f", {"mode": "w"}),
            ("write", "/f", {"offset": 0, "data": b"x"}),
            ("replace", "/f", {"dst": "/g", "injected": "eio"}),
        )
        assert reconstruct(ops, 3, "full") == {"/f": b"x"}  # rename never happened

    def test_states_are_deduplicated(self):
        ops = _ops(("open", "/f", {"mode": "w"}), ("fsync", "/f"))
        states = enumerate_crash_states(ops)
        keys = [s.key() for s in states]
        assert len(keys) == len(set(keys))

    def test_crash_point_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            enumerate_crash_states(_ops(("fsync", "/f")), crash_points=[5])


@pytest.fixture
def pts():
    return np.random.default_rng(3).random((36, 2))


class TestVerifiers:
    def test_checkpointed_join_recovers_from_every_state(self, pts, tmp_path):
        report = verify_checkpointed_join(
            pts, 0.2, str(tmp_path), algorithm="csj", cadence=2, max_states=40
        )
        assert report.ok, report.failures
        assert report.states_verified >= 10
        assert report.recovered_resume > 0

    def test_atomic_sink_never_shows_a_torn_hybrid(self, pts, tmp_path):
        report = verify_atomic_sink(
            pts, 0.2, str(tmp_path), algorithm="csj", max_states=50
        )
        assert report.ok, report.failures
        assert report.states_verified >= 10

    def test_index_save_is_old_or_new_in_every_state(self, pts, tmp_path):
        report = verify_index_save(pts, str(tmp_path), max_states=40)
        assert report.ok, report.failures
        assert report.states_verified >= 10

    def test_report_serialises(self, pts, tmp_path):
        report = verify_atomic_sink(pts, 0.2, str(tmp_path), max_states=8)
        payload = report.as_dict()
        assert payload["ok"] is True
        assert payload["states_verified"] == report.states_verified


class TestDiskFullHardening:
    def test_enospc_fails_fast_leaving_a_resumable_checkpoint(
        self, pts, tmp_path
    ):
        out = str(tmp_path / "out.txt")
        plan = FailurePlan(fail_at=(8,), errno=errno.ENOSPC, max_failures=1)
        retrier = {}

        def wrapper(inner):
            retrier["sink"] = RetryingSink(
                FlakySink(inner, plan), max_retries=5, sleep=lambda _s: None
            )
            return retrier["sink"]

        kwargs = dict(algorithm="csj", g=10, cadence=2, sink_wrapper=wrapper)
        with pytest.raises(DiskFullError) as excinfo:
            CheckpointedJoin(pts, 0.2, out, **kwargs).run()
        assert excinfo.value.exit_code == 8
        assert excinfo.value.errno == errno.ENOSPC
        # Fail fast: no retry was burned on an unfixable errno.
        assert retrier["sink"].retries == 0

        # "Space freed": the journal resumes to a byte-identical output.
        CheckpointedJoin(pts, 0.2, out, **kwargs).run(resume=True)
        reference = str(tmp_path / "ref.txt")
        CheckpointedJoin(pts, 0.2, reference, algorithm="csj", g=10).run()
        assert open(out, "rb").read() == open(reference, "rb").read()

    def test_transient_eio_is_still_retried(self, pts, tmp_path):
        out = str(tmp_path / "out.txt")
        plan = FailurePlan(fail_at=(3,), errno=errno.EIO, max_failures=1)
        sink_box = {}

        def wrapper(inner):
            sink_box["sink"] = RetryingSink(
                FlakySink(inner, plan), max_retries=5, sleep=lambda _s: None
            )
            return sink_box["sink"]

        CheckpointedJoin(
            pts, 0.2, out, algorithm="csj", g=10, sink_wrapper=wrapper
        ).run()
        assert sink_box["sink"].retries == 1  # absorbed, not fatal

    def test_disk_full_exits_with_code_8_via_trace_injection(self, tmp_path):
        """End to end through the seam: TraceFS injects ENOSPC on a write."""
        from repro.io.durable import scoped_fs

        points = np.random.default_rng(0).random((30, 2))
        fs = TraceFS(root=str(tmp_path / "box"))
        # Fail the first *output* write (ops 0-2 are journal open/write/fsync).
        fs.fail_at = {4: errno.ENOSPC}
        with scoped_fs(fs):
            with pytest.raises(DiskFullError) as excinfo:
                CheckpointedJoin(
                    points, 0.2, "/out.txt", algorithm="csj", g=10, cadence=2,
                    sink_wrapper=lambda inner: RetryingSink(
                        inner, max_retries=3, sleep=lambda _s: None
                    ),
                ).run()
        assert excinfo.value.exit_code == 8

    def test_bare_sink_enospc_is_typed_without_a_retry_wrapper(
        self, pts, tmp_path
    ):
        """No RetryingSink in between: the raw OSError is still classified."""
        from repro.io.durable import scoped_fs

        fs = TraceFS(root=str(tmp_path / "box"))
        fs.fail_at = {4: errno.ENOSPC}  # first output write
        with scoped_fs(fs):
            with pytest.raises(DiskFullError):
                CheckpointedJoin(
                    pts, 0.2, "/out.txt", algorithm="csj", g=10, cadence=2
                ).run()
            fs.fail_at = {}
            CheckpointedJoin(
                pts, 0.2, "/out.txt", algorithm="csj", g=10, cadence=2
            ).run(resume=True)

    def test_errno_metric_label_exported(self, pts, tmp_path):
        from repro.obs.metrics import reset_registry

        registry = reset_registry()
        try:
            self.test_enospc_fails_fast_leaving_a_resumable_checkpoint(
                pts, tmp_path
            )
            name = 'repro_sink_errno_total{errno="enospc"}'
            assert name in registry
            assert registry.counter(name).value == 1
            rendered = registry.to_prometheus()
            assert '# TYPE repro_sink_errno_total counter' in rendered
            assert rendered.count("TYPE repro_sink_errno_total") == 1
        finally:
            reset_registry()


# ---------------------------------------------------------------------------
# Property suite: recovery is byte-identical from every crash state, for
# arbitrary small datasets across the algorithm families.
# ---------------------------------------------------------------------------

lattice_points = st.integers(8, 28).flatmap(
    lambda n: st.integers(0, 2**31 - 1).map(
        lambda seed: np.random.default_rng(seed).integers(0, 9, (n, 2)) / 8.0
    )
)


@settings(max_examples=6, deadline=None)
@given(points=lattice_points,
       algorithm=st.sampled_from(["ssj", "csj", "egrid"]),
       eps=st.sampled_from([0.13, 0.26]))
def test_checkpoint_recovery_property(points, algorithm, eps, tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("crashprop"))
    report = verify_checkpointed_join(
        points, eps, workdir, algorithm=algorithm, cadence=2, max_states=14
    )
    assert report.ok, report.failures


@settings(max_examples=5, deadline=None)
@given(points=lattice_points, eps=st.sampled_from([0.13, 0.26]))
def test_atomic_sink_property(points, eps, tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("atomprop"))
    report = verify_atomic_sink(points, eps, workdir, max_states=20)
    assert report.ok, report.failures
