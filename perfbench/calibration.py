"""A fixed reference kernel that gauges how fast the machine runs now.

On a shared machine the speed a process gets drifts: phases of seconds
to minutes run 1.3-2x slower than others, and every op of a run slows
with them.  The benchmark runs this kernel right before and after
every op and before every set-up, and divides each time it measures by
the kernel's time around it, scaled to NOMINAL_S.  A figure then reads
as the time the op would take on a machine where the kernel takes
NOMINAL_S.  The kernel slows with the machine, though somewhat less
than the ops do: a phase that made the pipeline's raw op times 1.7x
longer moved their scaled figures 1.14x.  A change to the package
moves the figures; the kernel does not use the package, so nothing
the package does moves the kernel.

The kernel mixes the two kinds of work the package does: Python-level
integer arithmetic on short coefficient lists (polynomial products
modulo x^k - 1, as in cyclotomic arithmetic) and numpy int64
correlations of arrays a few hundred long.  Its data stay small, so it
adds nothing to the benchmark's peak memory.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on a quiet 2-core x86-64 machine (Python 3.11,
# numpy 2.4) is about 8-9 ms; figures are scaled to this round value.
NOMINAL_S = 0.010

_X = np.arange(1024, dtype=np.int64) % 17 - 8


def kernel() -> int:
    k = 24
    a = [(i * 7919) % 13 - 6 for i in range(k)]
    b = [(i * 104729) % 11 - 5 for i in range(k)]
    for _ in range(40):
        c = [0] * k
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    c[(i + j) % k] += x * y
        a, b = b, [v % 1000003 - 500000 for v in c]
    s = 0
    for r in range(30):
        s += int(np.correlate(_X[:512], _X[r:r + 512], "full")[::7].sum())
    return s + sum(a)


def kernel_s() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(seconds: float, kernel_times) -> float:
    """`seconds` as measured beside kernel runs of `kernel_times`,
    rescaled to a machine where the kernel takes NOMINAL_S."""
    return seconds * NOMINAL_S / statistics.median(kernel_times)
