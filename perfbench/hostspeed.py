"""How fast the host runs right now, from a fixed reference computation.

The machine the benchmark was sized on is a 2-vCPU VM on a shared host.  Its
speed changes by up to 1.5x in phases that last from seconds to minutes, the
same for wall and CPU time, so a run that falls into a slow phase reads up to
1.5x slower whatever the program does.  The benchmark times the reference
computation below (a Python loop plus NumPy scans, the two kinds of work
lcsdyn does) around each timed piece of work, and rescales that work's wall
time to the speed at which the reference takes REFERENCE_S seconds.  The
reference never calls lcsdyn, so a change to lcsdyn moves the rescaled times
exactly as it moves the wall times.
"""

from __future__ import annotations

import time

import numpy as np

# Fastest time of reference_s() on the 2-vCPU VM the workloads were sized on.
# Any fixed value works: it only sets the scale of the rescaled seconds.
REFERENCE_S = 0.014

_SCAN = np.linspace(0.0, 1.0, 400_000)


def reference_s() -> float:
    """Seconds one fixed piece of Python and NumPy work takes now."""
    t = time.perf_counter()
    acc = 0
    for j in range(100_000):
        acc += j * j
    np.maximum.accumulate(np.cumsum(_SCAN))
    return time.perf_counter() - t


def sample() -> float:
    """The reference time now; the faster of two tries skips a single hiccup."""
    return min(reference_s(), reference_s())


def rescale(seconds: float, before: float, after: float) -> float:
    """Wall seconds measured between two samples, at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
