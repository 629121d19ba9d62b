"""Host-speed normalisation: a fixed pure-Python reference kernel.

The host this benchmark runs on drifts: the same solve can take 50% longer
from one minute to the next, while ``process_time`` tracks wall time, so the
drift is not scheduling but the speed of the machine itself.  The kernel
below does a fixed amount of the interpreter work limbsys does (tuple-keyed
dicts, sets, lists, floats and Fractions) and never calls limbsys.  Timing it
just before and just after an operation gives the host speed at that moment,
and every reported time is rescaled to a host on which the kernel takes
``KERNEL_NOMINAL_S``:

    normalised = wall * KERNEL_NOMINAL_S / mean(kernel before, kernel after)
"""

from __future__ import annotations

import time
from fractions import Fraction

# The one normalisation constant: roughly the kernel's duration on a 2-CPU
# Xeon VM under Python 3.11 while that host runs at full speed.  It only sets
# the unit; normalised times are comparable when it stays unchanged.
KERNEL_NOMINAL_S = 0.0016


def reference_kernel():
    flows = {}
    adjacency = [set() for _ in range(64)]
    x = 0.5
    for i in range(900):
        x = 3.7 * x * (1.0 - x)
        key = ((i * 7919) % 61, (i * 104729) % 59)
        flows[key] = flows.get(key, 0.0) + x
        adjacency[key[0]].add(key[1])
        adjacency[key[1]].discard(key[0])
    order = sorted(flows.items())
    best = min(w - (i + j) * 0.01 for (i, j), w in order)
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(k % 17 + 1, k % 11 + 3) * Fraction(k, k + 1)
    return len(order), best, total


class HostClock:
    """Times calls and rescales them by the kernel timed around each call.

    Every kernel duration is kept in ``kernel_s`` so the run can report the
    host's drift next to the normalised figures.
    """

    def __init__(self):
        self.kernel_s = []
        for _ in range(20):  # warm the interpreter's caches for the kernel
            reference_kernel()

    def kernel(self) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - t0
        self.kernel_s.append(elapsed)
        return elapsed

    def timed(self, fn, *args, kernels=1):
        """Run ``fn(*args)``; return (result, wall seconds, scale factor).

        The kernel runs ``kernels`` times on each side of the call; one-off
        calls such as set-up use several to sample the host speed better.
        Multiplying a wall time measured inside the call by the scale factor
        gives its normalised time.
        """
        before = sum(self.kernel() for _ in range(kernels))
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = sum(self.kernel() for _ in range(kernels))
        return result, wall, KERNEL_NOMINAL_S / ((before + after) / (2 * kernels))
