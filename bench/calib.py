"""Host-speed calibration.

The host running the benchmark changes speed by tens of percent for
stretches of seconds to minutes, and the program's times move with it.
A fixed loop of the same kind of work the program does (Fraction
arithmetic, small tuples, dict updates), timed right next to the
measured work, shows the host's speed at that moment.  Each measured
time is divided by `factor`, the calibration loop's time over
NOMINAL_S, so every time the benchmark reports is in seconds on a host
where this loop takes NOMINAL_S.  The loop uses only the standard
library and runs with the garbage collector off, so neither the program's
code nor the size of its heap (its caches) can move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# the loop's time on the 2-vCPU Intel Xeon VM the baseline was recorded on
NOMINAL_S = 0.0022
# samples on each side of a sample in local_factors' window
HALF_WINDOW = 10


def _loop() -> int:
    acc = {}
    f = Fraction(1, 3)
    for i in range(400):
        key = (i % 7, i % 5)
        f = f * Fraction(i % 11 + 1, 7) + Fraction(1, i + 1)
        acc[key] = acc.get(key, 0) + f.numerator % 97
    return len(acc)


def sample() -> float:
    """Time one calibration loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Host slowness relative to nominal: the median sample over NOMINAL_S."""
    return statistics.median(samples) / NOMINAL_S


def local_factors(samples) -> list[float]:
    """For each sample, the factor of the window of samples around it."""
    return [factor(samples[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]) for i in range(len(samples))]
