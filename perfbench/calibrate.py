"""Machine-speed calibration of the api-warm workload's timings.

The benchmark runs on a few cores of a shared host whose speed changes under
it.  Pure-Python work runs up to 1.3x slower in one stretch of a minute than
in the next, in CPU time as well as in wall time, because other tenants
contend for the same cores and caches.  A run lasts about half a minute, so
ten raw api-warm runs of one commit spread by 0.10 to 0.21 of their median.

So api_warm.py samples a fixed kernel before every timed call of a pass, in
the same process and closed loop, and once after the last call.  Every time
of the pass is scaled by REF_SECONDS over the mean of those samples: timings
are reported in seconds of a box that runs the kernel in REF_SECONDS.  The
kernel is pure Python integer, Fraction and mpmath arithmetic, the kind of
work hyperreg's library calls spend their time on, and imports nothing from
hyperreg, so a change to hyperreg cannot move it.  Over windows of 16 s and
more its time tracked that of hyperreg's own calls with a correlation of
0.85 to 0.96 (README.md, "Machine facts and drift").
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import mpmath

# One kernel() call on the reference box (2 cores, Python 3.11.7, mpmath 1.3.0
# with the pure-Python backend), the median of 600 samples.
REF_SECONDS = 0.0042
REPS = 6


def kernel(ctx):
    s = Fraction(0)
    for k in range(1, 700):
        s += Fraction(1, k * k)
    x = ctx.mpf(1)
    for k in range(1, 300):
        x = x * (k + 1) / k + 1
    return s, x


class Speed:
    """Samples the kernel between timed operations; scales by the pass's mean."""

    def __init__(self):
        self.ctx = mpmath.mp.clone()
        self.ctx.dps = 40
        self.walls, self.cpus = [], []

    def tick(self):
        """Time REPS kernel calls, towards the current pass's scale."""
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(REPS):
            kernel(self.ctx)
        self.walls.append((time.perf_counter() - w0) / REPS)
        self.cpus.append((time.process_time() - c0) / REPS)

    def scales(self) -> tuple:
        """(wall scale, cpu scale) from the samples taken since the last call."""
        wall, cpu = statistics.fmean(self.walls), statistics.fmean(self.cpus)
        self.walls, self.cpus = [], []
        return REF_SECONDS / wall, REF_SECONDS / max(cpu, 1e-9)
