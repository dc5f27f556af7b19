"""Speed probe for the shared machine the benchmark runs on.

Other tenants on the host slow this machine's CPUs themselves, by up to half
and for minutes at a time, so even CPU time stretches with their load.  A
short fixed kernel, timed between steps, measures the CPU's speed at that
moment; a step's CPU time scaled by ``REF_PROBE_MS`` over the probe's time
is its time at the reference speed.
"""

from __future__ import annotations

from time import process_time

import numpy as np

# A round value between the probe's CPU time on a quiet (about 0.55 ms) and
# a loaded (about 0.95 ms) core of the reference machine: 2-vCPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6.  Any fixed value would do: it only sets the
# scale of the reference-speed metrics.
REF_PROBE_MS = 0.7


def probe_ms() -> float:
    """CPU time, in ms, of 5 000 pure-Python iterations and 50 products of
    42x42 matrices: the mix of interpreter and small-matrix work that a step
    is made of."""
    t0 = process_time()
    acc = 0
    for i in range(5_000):
        acc += i * i % 7
    a = np.full((42, 42), 1.0 / 42.0)
    for _ in range(50):
        a = a @ a
    return (process_time() - t0) * 1e3
