"""Machine-speed calibration for the timed metrics.

The benchmark shares its processors with other work, and the speed of
the same Python code drifts by a third or more over tens of seconds.  A
fixed probe (exact Fraction arithmetic and dict updates, the same kind of
interpreted work as sqrat, but no sqrat code) is timed between items; the
speed drift shows in the probe the same way, so

    time at nominal speed = measured time * NOMINAL_MS / probe time nearby

stays put while the raw times move.  Measured on a 2-vCPU Xeon VM: raw
item times varied between 2.8 and 4.5 ms over a minute while their ratio
to the probe stayed within 4.08-4.33.  Raw times are kept in the results
file next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Scaled times are "ms on a machine where one probe takes NOMINAL_MS".
NOMINAL_MS = 1.0
PROBE_REPS = 3

_A = tuple(Fraction(7 * i + 3, i + 2) for i in range(14))
_B = tuple(Fraction(5 * i - 9, 2 * i + 3) for i in range(14))


def _probe() -> None:
    out = [Fraction(0)] * (len(_A) + len(_B) - 1)
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            out[i + j] += a * b
    counts: dict[int, int] = {}
    for k in range(300):
        counts[k % 17] = counts.get(k % 17, 0) + k


def probe_ms() -> float:
    """Median wall time of PROBE_REPS probe runs, in ms.

    The garbage collector is paused meanwhile: a collection triggered by
    the probe's allocations would cost in proportion to the heap the
    program under test left behind, not to the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPS):
            start = time.perf_counter_ns()
            _probe()
            times.append((time.perf_counter_ns() - start) / 1e6)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
