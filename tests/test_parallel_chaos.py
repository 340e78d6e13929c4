"""Chaos testing of the worker pool: crashes are recoverable, exactly.

A pooled request whose worker is SIGKILLed gets one retry on a fresh
fork, which answers with the serial payload; a request whose every
attempt is killed fails typed.  (Checkpointed runs are serial; their
crash-and-resume tests are in ``tests/test_checkpoint.py``.)
"""

import multiprocessing
from dataclasses import fields

import numpy as np
import pytest

from repro.api import similarity_join
from repro.core.verify import brute_force_links
from repro.parallel import parallel_join
from repro.resilience.chaos import FlakyWorker
from repro.resilience.checkpoint import CheckpointedJoin


@pytest.fixture(scope="module")
def pts():
    return np.random.default_rng(17).random((250, 2))


def _int_stats(stats):
    return {
        f.name: getattr(stats, f.name)
        for f in fields(stats)
        if isinstance(getattr(stats, f.name), int)
    }


class TestWorkerKillRecovery:
    @pytest.mark.parametrize("algo", ["csj", "pbsm-csj"])
    def test_killed_attempt_recovers_serial_payload(self, pts, algo):
        serial = similarity_join(pts, 0.06, algorithm=algo, g=10)
        result = parallel_join(
            pts, 0.06, algorithm=algo, g=10, fault=FlakyWorker(kill_at={0})
        )
        assert (result.links, result.groups) == (serial.links, serial.groups)
        assert _int_stats(result.stats) == _int_stats(serial.stats)
        assert result.expanded_links() == brute_force_links(pts, 0.06)
        assert multiprocessing.active_children() == []


class TestFingerprintStability:
    def test_fingerprint_still_guards_the_join_itself(self, pts, tmp_path):
        a = CheckpointedJoin(pts, 0.06, str(tmp_path / "a.txt"),
                             algorithm="csj", g=10)
        b = CheckpointedJoin(pts, 0.07, str(tmp_path / "b.txt"),
                             algorithm="csj", g=10)
        c = CheckpointedJoin(pts, 0.06, str(tmp_path / "c.txt"),
                             algorithm="csj", g=5)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
