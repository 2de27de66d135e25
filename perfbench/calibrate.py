"""Machine-speed calibration that shares no code with hurwitzcf.

On a shared 2-vCPU Xeon VM a fixed pure-Python loop runs at speeds that
drift by 15-30 % over tens of seconds, as other tenants load the cores.  That
drift swamps the run-to-run differences the benchmark must resolve.  So
every run also times a small kernel built only from the standard library and
numpy.  The kernel mixes Fraction arithmetic, integer-tuple recursion and
vector operations, the same kinds of work as the workloads.  It runs every
CALIBRATE_EVERY_S between jobs.  Every job time of the run, and the set-up
time, is then scaled by REFERENCE_S / (median kernel time of the run), which
gives seconds at the reference speed.  The report keeps the raw times beside the scaled ones.
Because the kernel calls nothing in hurwitzcf, a change to the program moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.004  # median kernel time on a 2-vCPU Xeon VM, Python 3.11, numpy 2.4
CALIBRATE_EVERY_S = 0.2

_RNG = np.random.default_rng(0)
_FLOATS = _RNG.random(10_000)
_INTS = _RNG.integers(0, 10**6, 10_000)


def kernel() -> None:
    x = Fraction(1, 3)
    for i in range(1, 150):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i + 1)
    leaves = []

    def rec(m: tuple, depth: int) -> None:
        if depth == 5:
            leaves.append(4 * (m[0] * m[0] + m[1] * m[1]) / (1 + m[2] * m[2] + m[3] * m[3]))
            return
        a, b, c, d = m
        for xr, xi in ((3, 1), (-2, 2), (1, -3)):
            rec((c, d, a + c * xr - d * xi, b + c * xi + d * xr), depth + 1)

    rec((1, 0, 0, 1), 0)
    np.power(_FLOATS, 1.37).sum()
    np.unique(_INTS)
    np.sort(_FLOATS)


class Calibration:
    """Kernel timings taken during a run, and the speed factor they imply."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []

    def run(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.seconds.append(end - start)

    def due(self, now: float) -> bool:
        return not self.at or now - self.at[-1] >= CALIBRATE_EVERY_S

    def factor(self) -> float:
        """REFERENCE_S over the median kernel time of the run."""
        return REFERENCE_S / statistics.median(self.seconds)

    def summary(self) -> dict:
        return {"kernel_runs": len(self.seconds),
                "kernel_median_s": statistics.median(self.seconds),
                "reference_s": REFERENCE_S, "factor": self.factor()}
