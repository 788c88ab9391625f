"""Host-speed reference that the benchmark's timings are scaled by.

The shared 2-vCPU host the benchmark was built on changes speed by up to 2x
for seconds to minutes at a time, whatever runs on it: a pass of the same
inputs took 0.75 s in one minute and 1.6 s for the next five.  Process CPU
time moves with wall time, so the slowdown is not time spent waiting.  A
fixed piece of work, timed between measured passes, gives the host's speed
at that moment, and each pass's timings are multiplied by REFERENCE_S over
the reference time around it.  Over five-minute runs this cut the
coefficient of variation of 55-second means of the pass time from 0.09 to
0.016-0.029 on both matrix and Monte-Carlo work.

The reference has the two kinds of work the workloads do: an interpreter
loop of tiny numpy operations (mc-verify's trials, the estimators'
bookkeeping) and row gathers and products on a 1 MB array (pe-desk's oracle
on data of that size).
"""

from __future__ import annotations

import time

import numpy as np

# Timings are reported at the host speed at which reference_seconds()
# returns this; about a fast phase of the host the benchmark was built on.
REFERENCE_S = 0.04

_RNG = np.random.default_rng(1)
_SMALL = _RNG.standard_normal((10, 4, 4))
_ROWS = _RNG.standard_normal((2000, 63))


def reference_seconds():
    """Wall time of the fixed reference work."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    x = np.ones(4)
    total = 0
    for i in range(1500):
        idx = rng.integers(0, 10, 2)
        x = 0.5 * x - 0.01 * (_SMALL[idx] @ x).mean(axis=0)
        total += i * i
    w = np.ones(63)
    for _ in range(300):
        rows = _ROWS[rng.integers(0, 2000, 100)]
        w += 1e-6 * rows.T @ (rows @ w)
    return time.perf_counter() - t0
