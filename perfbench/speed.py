"""The machine's current speed, from a fixed CPU task timed next to each measurement.

On a machine shared with other tenants the speed of the same code can swing
by a third for minutes at a time.  Every child process times the probe
just before its operation (not after it, so that what the operation leaves
behind cannot change the probe), and the parent times it once per round.
Each round's times are scaled by ``REFERENCE_S`` over the median of that
round's probe times.  A time so scaled is in reference seconds: wall seconds
on a machine where the probe takes ``REFERENCE_S``.
"""
import statistics
import time

import numpy as np

# The probe's median time on the machine the README's figures come from, in a
# quiet phase.
REFERENCE_S = 0.03


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop and a numpy sort."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    a = np.random.default_rng(0).uniform(size=200_000)
    a.sort()
    return time.perf_counter() - t0


def probe_time() -> float:
    """The probe's time in this process now.  The first probe in a fresh
    process runs slow (page faults, cold code paths), so it is discarded."""
    probe()
    return statistics.median([probe(), probe()])
