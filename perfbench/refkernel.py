"""A fixed reference computation that gauges the host's current speed.

The host's speed drifts (0.7x to 1.3x over minutes), so the raw wall time of
an operation spreads more between runs than any bound worth keeping.
run.py times this kernel before and after each operation and scales the
operation's time by ``NOMINAL_S`` over the mean of the two; the result is
the operation's wall time at the reference speed.

The kernel uses numpy and Python only, never purepole, so a change to the
program moves the operation's time but not the reference.  Its three parts
mirror the kinds of work the workloads do: complex sinc/exp over arrays (the
phase-matching kernel), small SVDs (the Schmidt decomposition) and a scalar
Python loop (the GVM scan).  Its inputs are fixed, not drawn from the
workload seed.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median of reference() on a 2-core 2.1 GHz Xeon host, Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31, one BLAS thread
NOMINAL_S = 0.21

_rng = np.random.default_rng(20250124)
_X = _rng.random(40_000)
_M = _rng.random((200, 200)) + 1j * _rng.random((200, 200))


def reference() -> float:
    """Wall time of one pass of the reference kernel, in seconds."""
    t0 = time.perf_counter()
    phi = np.zeros(_X.shape, dtype=complex)
    for k in range(1, 21):
        phi += np.sinc(_X * k) * np.exp(1j * k * _X)
    for _ in range(8):
        np.linalg.svd(_M, compute_uv=False)
    total = 0.0
    for i in range(500_000):
        total += math.sqrt(i + 1.0)
    return time.perf_counter() - t0
