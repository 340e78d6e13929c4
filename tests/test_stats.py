"""Unit tests for repro.stats.counters."""

import time

import numpy as np
import pytest

from repro.api import build_index
from repro.core.csj import ncsj
from repro.core.dual import spatial_join
from repro.core.egrid import egrid_join
from repro.core.partitioned import pbsm_join, spatial_hash_join
from repro.core.results import JoinSink
from repro.stats.counters import JoinStats, Timer


class TestJoinStats:
    def test_defaults_zero(self):
        stats = JoinStats()
        assert stats.distance_computations == 0
        assert stats.total_time == 0.0
        assert stats.bytes_written == 0

    def test_addition(self):
        a = JoinStats(distance_computations=5, compute_time=1.0)
        b = JoinStats(distance_computations=3, compute_time=0.5, links_emitted=2)
        c = a + b
        assert c.distance_computations == 8
        assert c.compute_time == 1.5
        assert c.links_emitted == 2
        # Operands untouched.
        assert a.distance_computations == 5

    def test_addition_wrong_type(self):
        with pytest.raises(TypeError):
            JoinStats() + 5

    def test_total_time(self):
        stats = JoinStats(compute_time=1.5, write_time=0.5)
        assert stats.total_time == 2.0

    def test_as_dict_round_trip(self):
        stats = JoinStats(links_emitted=7)
        d = stats.as_dict()
        assert d["links_emitted"] == 7
        assert set(d) >= {"distance_computations", "compute_time", "write_time"}

    def test_as_dict_includes_derived_values(self):
        stats = JoinStats(links_emitted=4, compute_time=1.5, write_time=0.5)
        d = stats.as_dict()
        assert d["total_time"] == 2.0
        assert d["pairs_reported"] == 4

    def test_as_dict_restores_identical_stats(self):
        stats = JoinStats(links_emitted=9, groups_emitted=3, compute_time=0.25)
        d = stats.as_dict()
        restored = JoinStats()
        from dataclasses import fields

        for f in fields(JoinStats):
            setattr(restored, f.name, d[f.name])
        assert restored == stats
        assert restored.as_dict() == d

    def test_reset(self):
        stats = JoinStats(links_emitted=7, compute_time=1.0)
        stats.reset()
        assert stats.links_emitted == 0
        assert stats.compute_time == 0.0

    def test_reset_preserves_declared_types(self):
        # Regression: under `from __future__ import annotations` field
        # types are strings, so a `f.type is int` check silently reset
        # int counters to 0.0 and they accumulated as floats thereafter.
        stats = JoinStats(links_emitted=7, compute_time=1.0)
        stats.reset()
        from dataclasses import fields

        for f in fields(JoinStats):
            value = getattr(stats, f.name)
            assert type(value) is type(f.default), f.name
        assert type(stats.links_emitted) is int
        assert type(stats.compute_time) is float
        stats.links_emitted += 5
        assert type(stats.links_emitted) is int

    def test_add_preserves_declared_types(self):
        a = JoinStats(links_emitted=2, compute_time=0.5)
        b = JoinStats(links_emitted=3, compute_time=0.25)
        c = a + b
        assert type(c.links_emitted) is int
        assert type(c.distance_computations) is int
        assert type(c.compute_time) is float

    def test_reset_then_add_stays_int(self):
        a = JoinStats(links_emitted=2)
        a.reset()
        a.links_emitted = 4
        c = a + JoinStats(links_emitted=1)
        assert c.links_emitted == 5
        assert type(c.links_emitted) is int

    def test_pairs_reported(self):
        assert JoinStats(links_emitted=4).pairs_reported == 4


class TestTimer:
    def test_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        first = timer.elapsed
        assert first >= 0.009
        with timer:
            time.sleep(0.01)
        assert timer.elapsed > first

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0

    def test_nested_entry_counts_outer_interval_once(self):
        # Regression: re-entrant __enter__ used to clobber _start, so the
        # outer interval before the inner block was silently dropped and
        # the inner region was double-counted.
        timer = Timer()
        with timer:
            time.sleep(0.02)
            with timer:
                time.sleep(0.01)
            time.sleep(0.02)
        # Exactly one wall-clock interval of ~0.05s, not ~0.01-0.03s.
        assert timer.elapsed >= 0.045
        assert timer.elapsed < 0.5

    def test_nested_exit_restores_reentrancy(self):
        timer = Timer()
        with timer:
            with timer:
                pass
        first = timer.elapsed
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= first + 0.009


class SlowSink(JoinSink):
    """A timed sink whose every stored line takes half a millisecond."""

    timed = True

    def _store_link(self, i, j):
        time.sleep(0.0005)

    def _store_group(self, ids):
        time.sleep(0.0005)

    def _store_group_pair(self, ids_a, ids_b):
        time.sleep(0.0005)


EPS = 0.12
POINTS = np.random.default_rng(11).random((150, 2))
OTHER = np.random.default_rng(12).random((120, 2))
DRIVERS = {
    "tree": lambda sink: ncsj(build_index(POINTS, bulk="str", max_entries=8), EPS, sink=sink),
    "egrid": lambda sink: egrid_join(POINTS, EPS, compact=True, sink=sink),
    "pbsm": lambda sink: pbsm_join(POINTS, EPS, compact=True, sink=sink),
    "hash": lambda sink: spatial_hash_join(POINTS, OTHER, EPS, sink=sink),
    "dual": lambda sink: spatial_join(
        build_index(POINTS, bulk="str", max_entries=8),
        build_index(OTHER, bulk="str", max_entries=8),
        EPS,
        sink=sink,
    ),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_compute_time_when_one_stats_spans_two_runs(driver):
    """Each run adds its own compute time: never negative, never above its wall.

    The second run must not subtract the first run's write time, which
    with slow writes would exceed the second run's whole computation.
    """
    stats = JoinStats()
    for _ in range(2):
        before = stats.compute_time
        start = time.perf_counter()
        DRIVERS[driver](SlowSink(stats=stats))
        wall = time.perf_counter() - start
        assert stats.write_time > 0.02
        assert 0.0 <= stats.compute_time - before <= wall
