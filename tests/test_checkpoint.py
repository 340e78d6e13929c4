"""Checkpointed, resumable join execution (the journal + recovery layer).

The central claims mirror the paper's Theorems 1 and 2 across a crash:
a run interrupted at any point and resumed from its journal produces the
byte-identical output file of an uninterrupted run — hence the same
expanded link set, which equals the brute-force join.
"""

import filecmp
import os
import shutil
from dataclasses import fields
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import similarity_join
from repro.core.metricspace import ObjectMetric, brute_force_object_links
from repro.core.results import TextSink
from repro.core.verify import brute_force_links
from repro.errors import BudgetExceededError, CheckpointCorruptError
from repro.io.writer import width_for
from repro.parallel import JoinSpec, parallel_join
from repro.resilience.budget import Budget
from repro.resilience.chaos import FailurePlan, FlakySink
from repro.resilience.checkpoint import CheckpointedJoin, read_journal

ALGORITHMS = ["ssj", "ncsj", "csj", "egrid", "egrid-csj"]


@pytest.fixture
def pts():
    return np.random.default_rng(11).random((350, 2))


def _direct_output(pts, eps, algo, path, g=10, **settings):
    sink = TextSink(str(path), id_width=width_for(len(pts)))
    result = similarity_join(pts, eps, algorithm=algo, g=g, sink=sink, **settings)
    sink.close()
    return result


def _int_stats(stats):
    """The integer ``JoinStats`` fields: every counter, no timer."""
    return {
        f.name: getattr(stats, f.name)
        for f in fields(stats)
        if isinstance(getattr(stats, f.name), int)
    }


class TestFreshRuns:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_byte_identical_to_direct_join(self, pts, algo, tmp_path):
        direct = tmp_path / "direct.txt"
        r_direct = _direct_output(pts, 0.06, algo, direct)
        ck = tmp_path / "ck.txt"
        job = CheckpointedJoin(pts, 0.06, str(ck), algorithm=algo, g=10, cadence=13)
        r_ck = job.run()
        assert filecmp.cmp(str(direct), str(ck), shallow=False)
        assert r_ck.stats.links_emitted == r_direct.stats.links_emitted
        assert r_ck.stats.groups_emitted == r_direct.stats.groups_emitted
        assert r_ck.stats.bytes_written == os.path.getsize(ck)

    def test_journal_records_completion(self, pts, tmp_path):
        ck = tmp_path / "ck.txt"
        CheckpointedJoin(pts, 0.06, str(ck), cadence=13).run()
        header, last = read_journal(str(ck) + ".journal")
        assert header["type"] == "header"
        assert last["done"] is True
        assert last["offset"] == os.path.getsize(ck)

    def test_custom_journal_path(self, pts, tmp_path):
        ck = tmp_path / "ck.txt"
        journal = tmp_path / "elsewhere.journal"
        CheckpointedJoin(pts, 0.06, str(ck), journal_path=str(journal)).run()
        assert journal.exists()
        assert not os.path.exists(str(ck) + ".journal")

    def test_mtree_index_supported(self, pts, tmp_path):
        direct = tmp_path / "direct.txt"
        sink = TextSink(str(direct), id_width=width_for(len(pts)))
        similarity_join(pts, 0.06, algorithm="csj", g=10, index="mtree",
                        bulk=None, sink=sink)
        sink.close()
        ck = tmp_path / "ck.txt"
        CheckpointedJoin(pts, 0.06, str(ck), algorithm="csj", g=10,
                         index="mtree", bulk=None, cadence=7).run()
        assert filecmp.cmp(str(direct), str(ck), shallow=False)


def _run_until_done(pts, eps, algo, ck, seed, rate=0.004, cadence=9, g=10, **settings):
    """Crash-and-resume loop; returns (result, crash_count).

    The first attempt always dies (scheduled failure at op 3, well within
    even SSJ's batched-write op count); later attempts crash randomly at
    ``rate`` until one runs clean.  ``settings`` go to every job.
    """
    crashes = 0
    while True:
        fail_at = [3] if crashes == 0 else []
        wrapper = lambda inner: FlakySink(
            inner, FailurePlan(seed=seed + crashes, rate=rate, fail_at=fail_at)
        )
        job = CheckpointedJoin(pts, eps, str(ck), algorithm=algo, g=g,
                               cadence=cadence, sink_wrapper=wrapper, **settings)
        try:
            return job.run(resume=crashes > 0), crashes
        except OSError:
            crashes += 1
            assert crashes < 300, "resume is not making progress"


class TestCrashAndResume:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_interrupted_run_recovers_byte_identically(self, pts, algo, tmp_path):
        direct = tmp_path / "direct.txt"
        r_direct = _direct_output(pts, 0.06, algo, direct)
        ck = tmp_path / "ck.txt"
        result, crashes = _run_until_done(pts, 0.06, algo, ck, seed=1)
        assert crashes > 0, "fault plan injected nothing; raise the rate"
        assert filecmp.cmp(str(direct), str(ck), shallow=False)
        assert result.expanded_links() == r_direct.expanded_links()

    def test_expanded_links_equal_brute_force(self, pts, tmp_path):
        ck = tmp_path / "ck.txt"
        result, crashes = _run_until_done(pts, 0.06, "csj", ck, seed=2)
        assert crashes > 0
        assert result.expanded_links() == brute_force_links(pts, 0.06)

    def test_resume_after_budget_breach(self, pts, tmp_path):
        ck = tmp_path / "ck.txt"
        job = CheckpointedJoin(
            pts, 0.06, str(ck), algorithm="csj", g=10, cadence=9,
            budget=Budget(deadline_seconds=0.0, check_every=1),
        )
        with pytest.raises(BudgetExceededError) as info:
            job.run()
        assert info.value.partial is not None
        # The deadline-killed run left a durable journal: resume finishes it.
        job2 = CheckpointedJoin(pts, 0.06, str(ck), algorithm="csj", g=10,
                                cadence=9)
        result = job2.run(resume=True)
        direct = tmp_path / "direct.txt"
        _direct_output(pts, 0.06, "csj", direct)
        assert filecmp.cmp(str(direct), str(ck), shallow=False)
        assert result.expanded_links() == brute_force_links(pts, 0.06)

    def test_resume_of_completed_run_is_noop(self, pts, tmp_path):
        ck = tmp_path / "ck.txt"
        CheckpointedJoin(pts, 0.06, str(ck), cadence=9).run()
        before = open(ck, "rb").read()
        CheckpointedJoin(pts, 0.06, str(ck), cadence=9).run(resume=True)
        assert open(ck, "rb").read() == before


def hamming(a: str, b: str) -> float:
    return float(sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))


class TestObjectMetricResume:
    """csj(10) over an object M-tree checkpoints its ball window."""

    def test_crash_and_resume_byte_identical(self, mutated_words, tmp_path):
        words = mutated_words
        ids = np.arange(len(words), dtype=float).reshape(-1, 1)
        settings = dict(
            index="mtree", metric=ObjectMetric(words, hamming), max_entries=4,
            bulk=None,
        )
        direct = tmp_path / "direct.txt"
        sink = TextSink(str(direct), id_width=width_for(len(ids)))
        similarity_join(ids, 2.5, algorithm="csj", g=10, sink=sink, **settings)
        sink.close()
        ck = tmp_path / "ck.txt"
        result, crashes = _run_until_done(
            ids, 2.5, "csj", ck, seed=4, rate=0.02, cadence=3, **settings
        )
        assert crashes > 1
        assert filecmp.cmp(str(direct), str(ck), shallow=False)
        assert result.expanded_links() == brute_force_object_links(words, 2.5, hamming)


class TestJournalCompatibility:
    def test_rectangle_window_journal_resumes(self, tmp_path):
        """A csj(10) journal in the rectangle-window format, written by the
        release before ball windows existed and cut by a crash with ten
        groups in flight and a torn output tail, resumes byte-identically."""
        fixture = Path(__file__).parent / "data" / "rect_window_journal"
        for name in ("csj10.txt", "csj10.txt.journal"):
            shutil.copy(fixture / name, tmp_path / name)
        ck = tmp_path / "csj10.txt"
        _, last = read_journal(str(ck) + ".journal")
        assert len(last["window"]) == 10
        assert os.path.getsize(ck) > last["offset"]
        pts = np.random.default_rng(11).random((120, 2))
        result = CheckpointedJoin(
            pts, 0.1, str(ck), algorithm="csj", g=10, max_entries=8, cadence=25
        ).run(resume=True)
        direct = tmp_path / "direct.txt"
        sink = TextSink(str(direct), id_width=width_for(len(pts)))
        similarity_join(pts, 0.1, algorithm="csj", g=10, max_entries=8, sink=sink)
        sink.close()
        assert filecmp.cmp(str(direct), str(ck), shallow=False)
        assert result.expanded_links() == brute_force_links(pts, 0.1)

    def test_pool_journal_resumes_serially(self, tmp_path):
        """A csj(10) journal written by the checkpointed worker pool
        (``workers=2``, fanout 8) of the release before checkpointed runs
        became serial, cut by a byte-cap breach at cursor 70, inside a
        leaf window, with a torn output tail, resumes serially to the
        serial file and the serial counters."""
        fixture = Path(__file__).parent / "data" / "pool_journal"
        for name in ("csj10.txt", "csj10.txt.journal"):
            shutil.copy(fixture / name, tmp_path / name)
        ck = tmp_path / "csj10.txt"
        _, last = read_journal(str(ck) + ".journal")
        assert last["cursor"] == 70 and len(last["window"]) == 10
        assert os.path.getsize(ck) > last["offset"]
        pts = np.random.default_rng(11).random((300, 2))
        settings = dict(algorithm="csj", g=10, max_entries=8)
        state = JoinSpec(pts, 0.07, **settings).build_state()
        assert 70 not in set(accumulate(len(b) for b in state.plan()[0]))
        result = CheckpointedJoin(pts, 0.07, str(ck), **settings).run(resume=True)
        direct = tmp_path / "direct.txt"
        serial = _direct_output(pts, 0.07, "csj", direct, max_entries=8)
        assert filecmp.cmp(str(direct), str(ck), shallow=False)
        assert _int_stats(result.stats) == _int_stats(serial.stats)


class TestBreachAndResume:
    """A serial byte-cap breach at fanout 8, where leaf units run in
    windows, checkpoints the applied prefix; a resume finishes the serial
    file with the serial counters."""

    @pytest.mark.parametrize("algo", ["csj", "pbsm-csj"])
    def test_byte_cap_breach_resumes_to_serial(self, pts, algo, tmp_path):
        settings = dict(algorithm=algo, g=10, max_entries=8)
        direct = tmp_path / "direct.txt"
        serial = _direct_output(pts, 0.06, algo, direct, max_entries=8)
        ck = tmp_path / "ck.txt"
        with pytest.raises(BudgetExceededError):
            CheckpointedJoin(
                pts, 0.06, str(ck), cadence=3,
                budget=Budget(max_output_bytes=400, check_every=1), **settings,
            ).run()
        resumed = CheckpointedJoin(
            pts, 0.06, str(ck), cadence=3, **settings
        ).run(resume=True)
        assert filecmp.cmp(str(direct), str(ck), shallow=False)
        assert _int_stats(resumed.stats) == _int_stats(serial.stats)
        assert resumed.expanded_links() == brute_force_links(pts, 0.06)

    def test_breach_record_holds_the_unflushed_window(self, pts, tmp_path):
        settings = dict(algorithm="csj", g=10, max_entries=8)
        ck = tmp_path / "ck.txt"
        with pytest.raises(BudgetExceededError) as info:
            CheckpointedJoin(
                pts, 0.06, str(ck), cadence=0,
                budget=Budget(max_output_bytes=400, check_every=1), **settings,
            ).run()
        # cadence=0: the breach record is the only one.  The breach drops
        # the pending batch whole, so its cursor ends a leaf window.
        _, last = read_journal(str(ck) + ".journal")
        assert last["cursor"] > 0 and len(last["window"]) == 10
        state = JoinSpec(pts, 0.06, **settings).build_state()
        assert last["cursor"] in set(accumulate(len(b) for b in state.plan()[0]))
        assert last["offset"] == os.path.getsize(ck)
        assert last["offset"] == info.value.partial.stats.bytes_written
        CheckpointedJoin(pts, 0.06, str(ck), cadence=0, **settings).run(resume=True)
        direct = tmp_path / "direct.txt"
        _direct_output(pts, 0.06, "csj", direct, max_entries=8)
        assert filecmp.cmp(str(direct), str(ck), shallow=False)


class TestCountersEqualSerial:
    """Checkpointed and pool runs report the serial run's integer
    counters, the listing walk's ``nodes_visited``,
    ``node_pairs_visited`` and ``mbr_checks`` included."""

    @pytest.mark.parametrize("algo", ["ssj", "ncsj", "csj"])
    def test_integer_stats_equal_serial(self, pts, algo, tmp_path):
        settings = dict(algorithm=algo, g=10, max_entries=8)
        direct = tmp_path / "direct.txt"
        serial = _int_stats(
            _direct_output(pts, 0.06, algo, direct, max_entries=8).stats
        )
        assert serial["nodes_visited"] and serial["node_pairs_visited"]
        fresh = CheckpointedJoin(
            pts, 0.06, str(tmp_path / "fresh.txt"), cadence=9, **settings
        ).run()
        # Kill at the last sink op of a run that records every batch.
        probe = FailurePlan()
        CheckpointedJoin(
            pts, 0.06, str(tmp_path / "probe.txt"), cadence=1,
            sink_wrapper=lambda inner: FlakySink(inner, probe), **settings,
        ).run()
        ck = tmp_path / "ck.txt"
        wrapper = lambda inner: FlakySink(
            inner, FailurePlan(fail_at=[probe.ops - 1], max_failures=1)
        )
        with pytest.raises(OSError):
            CheckpointedJoin(
                pts, 0.06, str(ck), cadence=1, sink_wrapper=wrapper, **settings
            ).run()
        _, last = read_journal(str(ck) + ".journal")
        assert last["cursor"] > 0  # killed mid-run, past a record
        resumed = CheckpointedJoin(
            pts, 0.06, str(ck), cadence=1, **settings
        ).run(resume=True)
        pool = parallel_join(pts, 0.06, **settings)
        assert filecmp.cmp(str(direct), str(ck), shallow=False)
        for run in (fresh, resumed, pool):
            assert _int_stats(run.stats) == serial


class TestJournalSafety:
    def test_resume_without_journal_fails(self, pts, tmp_path):
        job = CheckpointedJoin(pts, 0.06, str(tmp_path / "ck.txt"))
        with pytest.raises(CheckpointCorruptError):
            job.run(resume=True)

    def test_fingerprint_mismatch_rejected(self, pts, tmp_path):
        ck = tmp_path / "ck.txt"
        CheckpointedJoin(pts, 0.06, str(ck), cadence=9).run()
        with pytest.raises(CheckpointCorruptError, match="configuration"):
            CheckpointedJoin(pts, 0.07, str(ck)).run(resume=True)
        other = np.random.default_rng(99).random((350, 2))
        with pytest.raises(CheckpointCorruptError, match="configuration"):
            CheckpointedJoin(other, 0.06, str(ck)).run(resume=True)

    def test_torn_journal_tail_is_ignored(self, pts, tmp_path):
        ck = tmp_path / "ck.txt"
        wrapper = lambda inner: FlakySink(inner, FailurePlan(fail_at=[40]))
        with pytest.raises(OSError):
            CheckpointedJoin(pts, 0.06, str(ck), cadence=5,
                             sink_wrapper=wrapper).run()
        journal = str(ck) + ".journal"
        with open(journal, "a") as f:
            f.write('deadbeef {"type":"ckpt","cursor":9')  # torn, bad CRC
        header, last = read_journal(journal)
        assert last is None or last["type"] == "ckpt"
        result = CheckpointedJoin(pts, 0.06, str(ck), cadence=5).run(resume=True)
        assert result.expanded_links() == brute_force_links(pts, 0.06)

    def test_corrupt_header_rejected(self, pts, tmp_path):
        journal = tmp_path / "bad.journal"
        journal.write_text("this is not a journal\n")
        with pytest.raises(CheckpointCorruptError):
            read_journal(str(journal))

    def test_truncated_output_beyond_offset_restored(self, pts, tmp_path):
        """Extra non-durable bytes after the recorded offset are discarded."""
        ck = tmp_path / "ck.txt"
        wrapper = lambda inner: FlakySink(inner, FailurePlan(fail_at=[60]))
        with pytest.raises(OSError):
            CheckpointedJoin(pts, 0.06, str(ck), cadence=5,
                             sink_wrapper=wrapper).run()
        with open(ck, "a") as f:
            f.write("TORN PARTIAL LIN")  # crash mid-line after last fsync
        result = CheckpointedJoin(pts, 0.06, str(ck), cadence=5).run(resume=True)
        direct = tmp_path / "direct.txt"
        _direct_output(pts, 0.06, "csj", direct)
        assert filecmp.cmp(str(direct), str(ck), shallow=False)

    def test_missing_output_with_progress_rejected(self, pts, tmp_path):
        ck = tmp_path / "ck.txt"
        wrapper = lambda inner: FlakySink(inner, FailurePlan(fail_at=[60]))
        # cadence=1: a record after every batch, so one with progress
        # lands before the failure.
        with pytest.raises(OSError):
            CheckpointedJoin(pts, 0.06, str(ck), cadence=1,
                             sink_wrapper=wrapper).run()
        os.unlink(ck)
        with pytest.raises(CheckpointCorruptError):
            CheckpointedJoin(pts, 0.06, str(ck), cadence=1).run(resume=True)


class TestPropertyKillAndResume:
    """Hypothesis: kill at a random write, resume — exactly the brute-force
    links, for random point sets, ranges and algorithms (Theorems 1-2
    across a crash)."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(60, 160),
        eps=st.sampled_from([0.05, 0.1, 0.2]),
        algo=st.sampled_from(["csj", "ssj", "egrid-csj"]),
        kill_op=st.integers(1, 120),
    )
    @settings(max_examples=25, deadline=None)
    def test_kill_anywhere_resume_lossless(self, tmp_path_factory, seed, n,
                                           eps, algo, kill_op):
        pts = np.random.default_rng(seed).random((n, 2))
        d = tmp_path_factory.mktemp("ck")
        ck = d / "out.txt"
        wrapper = lambda inner: FlakySink(
            inner, FailurePlan(fail_at=[kill_op], max_failures=1)
        )
        job = CheckpointedJoin(pts, eps, str(ck), algorithm=algo, g=7,
                               cadence=4, sink_wrapper=wrapper)
        try:
            result = job.run()
            interrupted = False
        except OSError:
            interrupted = True
            result = CheckpointedJoin(pts, eps, str(ck), algorithm=algo, g=7,
                                      cadence=4).run(resume=True)
        assert result.expanded_links() == brute_force_links(pts, eps)
        direct = d / "direct.txt"
        _direct_output(pts, eps, algo, direct, g=7)
        assert filecmp.cmp(str(direct), str(ck), shallow=False), (
            f"divergent output (interrupted={interrupted})"
        )


class TestValidation:
    def test_rejects_unknown_algorithm(self, pts, tmp_path):
        from repro.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            CheckpointedJoin(pts, 0.06, str(tmp_path / "x"), algorithm="hash")

    def test_rejects_bad_inputs(self, tmp_path):
        from repro.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            CheckpointedJoin(np.empty((0, 2)), 0.06, str(tmp_path / "x"))
        with pytest.raises(InvalidInputError):
            CheckpointedJoin(np.zeros((5, 2)), -1.0, str(tmp_path / "x"))
