"""Host-speed reference loop for normalising benchmark timings.

Shared hosts drift: the same join can take 15% longer in one minute than
in the next because of other tenants, frequency scaling or cache
pressure.  :func:`host_ref` times a fixed piece of work that mixes what
the joins spend their time on -- interpreter-bound tuple/list/dict work
and many small NumPy calls -- and the benchmark divides each operation's
time by the reference measured next to it.  A timing reported at the
nominal reference speed is ``raw * nominal_ref_s / ref_s``.

This module uses the standard library and NumPy only.  It must never
import the program under test: a change to the program must not be able
to change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

#: Segments per reference measurement; the median segment is used, so a
#: single interrupt or page fault during one segment does not move it.
SEGMENTS = 5
#: Work per segment, sized for ~5 ms per segment on a 2020s x86 core.
_PY_STEPS = 8000
_NP_STEPS = 100

_RNG = np.random.default_rng(12345)
_A = _RNG.random((64, 3))
_B = _RNG.random((64, 3))


def _segment() -> float:
    acc = 0.0
    table: dict = {}
    stack: list = []
    push = stack.append
    pop = stack.pop
    for i in range(_PY_STEPS):
        push((i, i * 0.5, i & 7))
        k, x, t = pop()
        acc += x * x - t
        table[k & 1023] = acc
    hits = 0
    a, b = _A, _B
    for _ in range(_NP_STEPS):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        span = hi - lo
        d = np.sqrt((span * span).sum(axis=1))
        hits += int(np.count_nonzero(d < 0.5))
        rows, cols = np.nonzero(d[:8, None] < d[None, :8])
        hits += len(rows) - len(cols)
    return acc + hits


def host_ref() -> float:
    """Seconds for one reference measurement (``SEGMENTS`` x median)."""
    times = []
    for _ in range(SEGMENTS):
        start = time.perf_counter()
        _segment()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2] * SEGMENTS


if __name__ == "__main__":
    samples = sorted(host_ref() for _ in range(41))
    print(f"host_ref median {samples[20] * 1e3:.3f} ms "
          f"(min {samples[0] * 1e3:.3f}, max {samples[-1] * 1e3:.3f})")
