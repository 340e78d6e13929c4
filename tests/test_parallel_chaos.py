"""Chaos testing of the worker pool: crashes are recoverable, exactly.

The CI parallel-chaos matrix re-runs this module under several
``REPRO_CHAOS_SEED`` / ``REPRO_CHAOS_WORKERS`` combinations; locally the
defaults (seed 0, 2 workers) apply.  A pool run whose workers are
SIGKILLed still writes the byte-identical serial output.  (Checkpointed
runs are serial; their crash-and-resume tests are in
``tests/test_checkpoint.py``.)
"""

import filecmp
import os

import numpy as np
import pytest

from repro.api import similarity_join
from repro.core.results import TextSink
from repro.core.verify import brute_force_links
from repro.io.writer import width_for
from repro.parallel import parallel_join
from repro.resilience.chaos import FlakyWorker
from repro.resilience.checkpoint import CheckpointedJoin

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
CHAOS_WORKERS = int(os.environ.get("REPRO_CHAOS_WORKERS", "2"))


@pytest.fixture(scope="module")
def pts():
    return np.random.default_rng(17).random((250, 2))


def _serial_file(pts, eps, algo, path, g=10):
    sink = TextSink(str(path), id_width=width_for(len(pts)))
    result = similarity_join(pts, eps, algorithm=algo, g=g, sink=sink)
    sink.close()
    return result


class TestWorkerKillRecovery:
    @pytest.mark.parametrize("algo", ["csj", "pbsm-csj"])
    def test_seeded_random_kills_recover_byte_identically(self, pts, algo,
                                                          tmp_path):
        serial = tmp_path / "serial.txt"
        _serial_file(pts, 0.06, algo, serial)
        # Kill decisions are keyed on (seed, task_id), so a re-dispatched
        # task misbehaves identically; the budget of 2 kills stays below
        # the quarantine threshold (3 failures), so the run must finish.
        fault = FlakyWorker(kill_rate=0.5, seed=CHAOS_SEED, max_failures=2)
        par = tmp_path / "par.txt"
        sink = TextSink(str(par), id_width=width_for(len(pts)))
        result = parallel_join(
            pts, 0.06, algorithm=algo, g=10, workers=CHAOS_WORKERS,
            sink=sink, fault=fault,
        )
        sink.close()
        assert filecmp.cmp(str(serial), str(par), shallow=False)
        assert result.expanded_links() == brute_force_links(pts, 0.06)


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
