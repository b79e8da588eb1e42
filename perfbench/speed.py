"""Correct measured times for the machine's drifting speed.

On a shared machine the speed of CPU-bound Python drifts by 20% and more
over minutes, so the medians of two runs of identical code can differ by
more than any useful regression bound.  The drift is common to everything
the process runs: a fixed reference loop timed around each measurement
tracks it (on a 2-vCPU Xeon at 2.0 GHz, the spread of 30-second medians
across a six-minute stretch fell from 19-27% raw to 3-4% corrected).

The reference is a Cauchy product of fixed rows in pure Python, the loop
shape of the package's pure kernel but not its code, so no change to the
package can change it.  A corrected time is wall * REFERENCE_S / r, where
r is the mean reference time just before and just after the measurement:
seconds on a machine where the reference takes REFERENCE_S.
"""

from __future__ import annotations

import random
import time

clock = time.perf_counter

# The reference's typical time on the machine above.
REFERENCE_S = 0.030

_rng = random.Random(0)
_ROWS = [[_rng.uniform(-1.0, 1.0) for _ in range(40)] for _ in range(21)]


def reference() -> float:
    """Wall seconds of one pass of the reference loop."""
    start = clock()
    for k in range(len(_ROWS)):
        acc = [0.0] * 79
        for i in range(k + 1):
            a, b = _ROWS[i], _ROWS[k - i]
            for p in range(40):
                ap = a[p]
                for q in range(40):
                    acc[p + q] += ap * b[q]
    return clock() - start


class Timer:
    """Times calls and corrects each for the speed around it; consecutive
    calls share the reference pass between them."""

    def __init__(self):
        reference()  # let the interpreter specialise the loop first
        self._last = reference()
        self.references = [self._last]

    def __call__(self, fn, *args, **kwargs):
        """(result, wall seconds, corrected seconds) of fn(*args, **kwargs)."""
        start = clock()
        result = fn(*args, **kwargs)
        wall = clock() - start
        before, self._last = self._last, reference()
        self.references.append(self._last)
        return result, wall, wall * REFERENCE_S * 2.0 / (before + self._last)
