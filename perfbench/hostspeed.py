"""How fast the host runs right now, from a fixed calibration kernel.

On a shared host the same code runs up to ~1.8x slower for stretches
of seconds to minutes, on every core at once and in CPU time as well as
wall time, so neither longer runs nor CPU-time clocks remove it.  The
benchmark therefore times this kernel, which does not depend on the
program, right before and after every episode, and reports op times
scaled to the speed at which the kernel takes :data:`REFERENCE_KERNEL_S`.
Over 20 s windows of one process this cut the IQR over median of the
mean op time from 0.27 to 0.05 on ``replay-plant-journaled`` and from
0.25 to 0.05 on ``whatif-plant-tickets`` (2-vCPU shared VM).
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

#: the kernel's time on a 2-vCPU VM (Python 3.11) in its fast stretches
REFERENCE_KERNEL_S = 0.0025
#: kernel timings per sample; a sample is their median
REPEATS = 3


def kernel() -> int:
    """Interpreter loops, dict stores, JSON and small numpy calls: the
    kinds of work the control loop does, in fixed amounts."""
    table: dict[int, int] = {}
    total = 0
    for i in range(20000):
        total += i * i % 7
        table[i % 97] = total
    json.dumps(table, sort_keys=True)
    values = np.arange(64.0)
    for _ in range(200):
        values = np.sqrt(values * values + 1.0)
    return total


def kernel_times(repeats: int = REPEATS) -> list[float]:
    """Wall time of ``repeats`` back-to-back kernel runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times


def slowness(before: list[float], after: list[float]) -> float:
    """How many times slower than the reference the host ran between two
    sets of kernel timings."""
    return statistics.median(before + after) / REFERENCE_KERNEL_S
