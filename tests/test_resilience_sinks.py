"""Crash-safe sinks: durability, atomic publication, bounded retries."""

import errno
import io
import os
import time

import numpy as np
import pytest

from repro.core.results import LINK_BATCH, CollectSink, TextSink
from repro.errors import DiskFullError, SinkIOError
from repro.io.durable import scoped_fs
from repro.resilience.sinks import AtomicTextSink, DurableTextSink, RetryingSink
from repro.resilience.vfs import TraceFS


class TestDurableTextSink:
    def test_writes_and_tells(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = DurableTextSink(path, id_width=4)
        sink.write_link(1, 2)
        sink.write_links(np.array([3, 6]), np.array([4, 5]))
        sink.sync()
        assert sink.tell() == os.path.getsize(path) == sink.stats.bytes_written > 0
        sink.write_group([3, 4, 5])
        sink.write_links(np.array([8]), np.array([7]))
        # tell() writes the pending batch before it reads the offset.
        assert sink.tell() == os.path.getsize(path) == sink.stats.bytes_written
        sink.close()
        assert sink.stats.links_emitted == 4
        assert sink.stats.groups_emitted == 1
        assert open(path).read() == (
            "0001 0002\n0003 0004\n0005 0006\n0003 0004 0005\n0007 0008\n"
        )

    def test_append_continues_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        first = DurableTextSink(path, id_width=4)
        first.write_link(1, 2)
        first.close()
        size = os.path.getsize(path)
        second = DurableTextSink(path, id_width=4, append=True)
        second.write_link(3, 4)
        second.close()
        assert os.path.getsize(path) == 2 * size

    def test_fresh_open_truncates(self, tmp_path):
        path = str(tmp_path / "out.txt")
        for _ in range(2):
            sink = DurableTextSink(path, id_width=4)
            sink.write_link(1, 2)
            sink.close()
        content = open(path).read()
        assert content.count("\n") == 1


class TestAtomicTextSink:
    def test_clean_close_publishes(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = AtomicTextSink(path, id_width=4)
        sink.write_link(1, 2)
        sink.write_links(np.array([3]), np.array([4]))
        assert not os.path.exists(path)  # still only the temp file
        sink.close()
        assert sink.committed
        assert open(path).read() == "0001 0002\n0003 0004\n"
        assert os.path.getsize(path) == sink.stats.bytes_written
        assert not os.path.exists(path + ".part")

    def test_abort_leaves_destination_untouched(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with open(path, "w") as f:
            f.write("previous good output\n")
        sink = AtomicTextSink(path, id_width=4)
        sink.write_link(1, 2)
        sink.write_links(np.array([3, 5]), np.array([4, 6]))
        sink.abort()  # drops the pending batch unwritten
        sink.close()  # after abort: a no-op, nothing is published
        assert not sink.committed
        assert open(path).read() == "previous good output\n"
        assert not os.path.exists(path + ".part")

    def test_context_manager_aborts_on_exception(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with pytest.raises(RuntimeError):
            with AtomicTextSink(path, id_width=4) as sink:
                sink.write_link(1, 2)
                raise RuntimeError("mid-join crash")
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".part")

    def test_context_manager_publishes_on_success(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with AtomicTextSink(path, id_width=4) as sink:
            sink.write_group([1, 2, 3])
        assert sink.committed
        assert os.path.getsize(path) > 0

    def test_close_idempotent(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = AtomicTextSink(path, id_width=4)
        sink.write_link(1, 2)
        sink.close()
        sink.close()
        sink.abort()  # after commit: no-op, file stays
        assert os.path.exists(path)


class TestDeferredLinkWrites:
    """Pending lines are written by a later call than the one that queued them.

    Nine calls of a quarter :data:`LINK_BATCH` each cross the bound twice:
    the fifth and ninth calls write the batch before them, and close
    writes the last.  Op 0 of the trace opens the file, so op 1 is the
    first output write, the fifth call's coalesced batch.  Four calls fill
    the bound exactly, so a group line queued after them writes their
    batch first, in op 1.
    """

    CALLS, PER_CALL = 9, LINK_BATCH // 4

    def _batches(self):
        rng = np.random.default_rng(4)
        size = (self.CALLS, 2, self.PER_CALL)
        return [tuple(call) for call in rng.integers(0, 10**5, size)]

    def _traced(self, tmp_path, fail_at=None):
        fs = TraceFS(root=str(tmp_path / "box"), fail_at=fail_at)
        with scoped_fs(fs):
            inner = TextSink("/out.txt", id_width=5)
        return fs, inner, RetryingSink(inner, sleep=lambda _s: None)

    @staticmethod
    def _output(fs):
        with fs.open("/out.txt", "rb") as handle:
            return handle.read()

    def test_transient_fault_on_a_deferred_write_is_retried_exactly(self, tmp_path):
        clean_fs, _, clean = self._traced(tmp_path / "clean")
        fs, inner, sink = self._traced(tmp_path / "eio", fail_at={1: errno.EIO})
        for ids_i, ids_j in self._batches():
            clean.write_links(ids_i, ids_j)
            sink.write_links(ids_i, ids_j)
        clean.close()
        sink.close()
        assert sink.retries == 1
        assert fs.ops[1].injected == "eio"
        assert self._output(fs) == self._output(clean_fs)
        assert len(self._output(fs)) == inner.stats.bytes_written
        assert inner.stats.links_emitted == self.CALLS * self.PER_CALL

    def test_disk_full_on_a_deferred_write_charges_nothing(self, tmp_path):
        clean_fs, _, clean = self._traced(tmp_path / "clean")
        fs, inner, sink = self._traced(tmp_path / "full", fail_at={1: errno.ENOSPC})
        batches = self._batches()
        for ids_i, ids_j in batches[:4]:
            clean.write_links(ids_i, ids_j)
            sink.write_links(ids_i, ids_j)
        charged = (inner.stats.links_emitted, inner.stats.bytes_written)
        with pytest.raises(DiskFullError):
            sink.write_links(*batches[4])
        assert sink.retries == 0
        assert (inner.stats.links_emitted, inner.stats.bytes_written) == charged
        # Space freed: the failed call, repeated, is exact.
        fs.fail_at = {}
        for ids_i, ids_j in batches[4:]:
            clean.write_links(ids_i, ids_j)
            sink.write_links(ids_i, ids_j)
        clean.close()
        sink.close()
        assert self._output(fs) == self._output(clean_fs)
        assert len(self._output(fs)) == inner.stats.bytes_written

    def test_transient_fault_on_a_group_line_flush_is_retried_exactly(self, tmp_path):
        clean_fs, _, clean = self._traced(tmp_path / "clean")
        fs, inner, sink = self._traced(tmp_path / "eio", fail_at={1: errno.EIO})
        for target in (clean, sink):
            for ids_i, ids_j in self._batches()[:4]:
                target.write_links(ids_i, ids_j)
            target.write_group({9, 3, 5})
            target.close()
        assert sink.retries == 1
        assert fs.ops[1].injected == "eio"
        assert self._output(fs) == self._output(clean_fs)
        assert len(self._output(fs)) == inner.stats.bytes_written
        assert inner.stats.groups_emitted == 1

    def test_disk_full_on_a_group_line_flush_charges_nothing(self, tmp_path):
        clean_fs, _, clean = self._traced(tmp_path / "clean")
        fs, inner, sink = self._traced(tmp_path / "full", fail_at={1: errno.ENOSPC})
        for target in (clean, sink):
            for ids_i, ids_j in self._batches()[:4]:
                target.write_links(ids_i, ids_j)
        charged = inner.stats.as_dict()
        with pytest.raises(DiskFullError):
            sink.write_group({9, 3, 5})
        assert sink.retries == 0
        assert inner.stats.as_dict() == charged
        # Space freed: the failed call, repeated, is exact.
        fs.fail_at = {}
        for target in (clean, sink):
            target.write_group({9, 3, 5})
            target.close()
        assert self._output(fs) == self._output(clean_fs)
        assert len(self._output(fs)) == inner.stats.bytes_written

    def test_a_nested_write_is_timed_once(self):
        class SlowTarget(io.StringIO):
            def write(self, text):
                time.sleep(0.02)
                return super().write(text)

        sink = TextSink(SlowTarget(), id_width=4)
        start = time.perf_counter()
        ids = np.arange(LINK_BATCH)
        sink.write_links(ids, ids + 1)  # fills the bound
        sink.write_group([5, 6, 7])  # writes the pending batch, then queues its line
        sink.close()
        wall = time.perf_counter() - start
        assert 0.04 <= sink.stats.write_time <= wall


class _FailNTimesSink(CollectSink):
    """Raises OSError on the first ``n`` write attempts, then succeeds."""

    def __init__(self, n, **kw):
        super().__init__(**kw)
        self.remaining = n
        self.attempts = 0

    def write_link(self, i, j):
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise OSError("transient")
        super().write_link(i, j)


class TestRetryingSink:
    def test_transparent_when_inner_healthy(self):
        inner = CollectSink(id_width=4)
        sink = RetryingSink(inner, sleep=lambda _s: None)
        sink.write_link(1, 2)
        sink.write_group([3, 4, 5])
        sink.close()
        assert inner.links == [(1, 2)]
        assert sink.retries == 0

    def test_recovers_from_transient_failures(self):
        inner = _FailNTimesSink(3, id_width=4)
        sink = RetryingSink(inner, max_retries=4, sleep=lambda _s: None)
        sink.write_link(1, 2)
        assert inner.links == [(1, 2)]
        assert sink.retries == 3
        assert inner.attempts == 4
        # Accounting charged exactly once despite four attempts.
        assert inner.stats.links_emitted == 1

    def test_exhaustion_raises_sink_io_error(self):
        inner = _FailNTimesSink(100, id_width=4)
        sink = RetryingSink(inner, max_retries=2, sleep=lambda _s: None)
        with pytest.raises(SinkIOError, match="after 3 attempts"):
            sink.write_link(1, 2)
        assert inner.links == []

    def test_backoff_is_exponential_and_capped(self):
        delays = []
        inner = _FailNTimesSink(100, id_width=4)
        sink = RetryingSink(
            inner, max_retries=5, base_delay=0.1, max_delay=0.5,
            sleep=delays.append, jitter=False,
        )
        with pytest.raises(SinkIOError):
            sink.write_link(1, 2)
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jittered_backoff_is_bounded_and_decorrelated(self):
        delays = []
        inner = _FailNTimesSink(100, id_width=4)
        sink = RetryingSink(
            inner, max_retries=8, base_delay=0.1, max_delay=0.5,
            sleep=delays.append, seed=7,
        )
        with pytest.raises(SinkIOError):
            sink.write_link(1, 2)
        assert len(delays) == 8
        assert all(0.1 <= d <= 0.5 for d in delays)
        # Decorrelated: a real spread of values, not a fixed ladder.
        assert len({round(d, 6) for d in delays}) > 3
        # Deterministic for a given seed.
        delays2 = []
        sink2 = RetryingSink(
            _FailNTimesSink(100, id_width=4), max_retries=8, base_delay=0.1,
            max_delay=0.5, sleep=delays2.append, seed=7,
        )
        with pytest.raises(SinkIOError):
            sink2.write_link(1, 2)
        assert delays2 == delays

    def test_max_elapsed_caps_total_retry_time(self):
        clock = [0.0]

        def fake_sleep(s):
            clock[0] += s

        inner = _FailNTimesSink(100, id_width=4)
        sink = RetryingSink(
            inner, max_retries=1000, base_delay=0.1, max_delay=0.5,
            sleep=fake_sleep, clock=lambda: clock[0], max_elapsed=2.0,
            jitter=False,
        )
        with pytest.raises(SinkIOError, match="retry time budget"):
            sink.write_link(1, 2)
        # Sleeps are trimmed to the cap: never sleeps past max_elapsed.
        assert clock[0] <= 2.0 + 1e-9

    def test_budget_deadline_trims_retries(self):
        from repro.resilience.budget import Budget

        clock = [0.0]

        def fake_sleep(s):
            clock[0] += s

        budget = Budget(deadline_seconds=0.25)
        budget.start()
        budget._started_at = 0.0  # pin the clock origin for the test
        import repro.resilience.budget as budget_mod

        real_monotonic = budget_mod.time.monotonic
        budget_mod.time.monotonic = lambda: clock[0]
        try:
            inner = _FailNTimesSink(100, id_width=4)
            sink = RetryingSink(
                inner, max_retries=1000, base_delay=0.1, max_delay=10.0,
                sleep=fake_sleep, clock=lambda: clock[0], budget=budget,
                jitter=False,
            )
            with pytest.raises(SinkIOError, match="retry time budget"):
                sink.write_link(1, 2)
            # Retries never slept past the budget's deadline.
            assert clock[0] <= 0.25 + 1e-9
        finally:
            budget_mod.time.monotonic = real_monotonic

    def test_inner_sink_io_error_is_final(self):
        class Fatal(CollectSink):
            def write_link(self, i, j):
                raise SinkIOError("disk is gone")

        sink = RetryingSink(Fatal(id_width=4), sleep=lambda _s: None)
        with pytest.raises(SinkIOError, match="disk is gone"):
            sink.write_link(1, 2)
        assert sink.retries == 0  # no pointless retries of a final error

    def test_rejects_negative_retry_budget(self):
        with pytest.raises(ValueError):
            RetryingSink(CollectSink(id_width=4), max_retries=-1)


class TestDeadlineCappedRetries:
    """Regression: a 50 ms request deadline must bound total retry sleep.

    Before the budget's composed-deadline fix, an *unstarted* budget
    reported its full allowance forever, so each of N retries could
    sleep the whole deadline again (N x 50 ms).  The wall-clock bound
    below fails under that behaviour and passes with the fix.
    """

    def test_50ms_deadline_bounds_wall_clock(self):
        import time as _time

        from repro.resilience.budget import Budget

        # Never started by the caller: the sink's own reads must arm it.
        budget = Budget(deadline_seconds=0.05)
        sink = RetryingSink(
            _FailNTimesSink(99, id_width=4),
            max_retries=8,
            base_delay=10.0,  # would sleep ~10 s per retry if uncapped
            max_delay=10.0,
            jitter=False,
            budget=budget,
        )
        started = _time.monotonic()
        with pytest.raises(SinkIOError):
            sink.write_link(1, 2)
        elapsed = _time.monotonic() - started
        # One deadline's worth of sleeping, not one per retry.
        assert elapsed < 0.05 * 3 + 0.1

    def test_armed_absolute_deadline_bounds_after_restart(self):
        import time as _time

        from repro.resilience.budget import Budget

        budget = Budget(check_every=1)
        budget.arm_deadline(0.05)
        budget.start()  # a retry loop restarting the relative clock
        sink = RetryingSink(
            _FailNTimesSink(99, id_width=4),
            max_retries=8,
            base_delay=10.0,
            max_delay=10.0,
            jitter=False,
            budget=budget,
        )
        started = _time.monotonic()
        with pytest.raises(SinkIOError):
            sink.write_link(1, 2)
        assert _time.monotonic() - started < 0.05 * 3 + 0.1
