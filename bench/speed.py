"""Machine-speed calibration and a smooth quantile, for steady timings.

The benchmark runs on shared machines whose speed drifts by 30% and more
over minutes and jitters from one second to the next, with CPU time
tracking wall time, so repeating work inside one run removes neither.
``Speed`` times a fixed calibration kernel (a numpy sort and a Python
dict-counting loop, both independent of the program under test) between
consecutive operations. An operation's wall time is multiplied by
``REFERENCE_TICK_S`` over the mean of the kernel times just before and just
after it, which makes it seconds at the reference speed: the speed at which
one kernel run takes ``REFERENCE_TICK_S``. Recorded over four minutes of
repeated cycles, this cut the spread of 20-second windows of op time from
0.23 to 0.02-0.04 on lz-sampled ops and from 0.13-0.21 to 0.04-0.09 on
oracle-campaign ops; one factor per window (the window's median tick)
corrected only the slow drift and left 0.04-0.12.

``hd_quantile`` is the Harrell-Davis quantile: a beta-weighted mean of all
order statistics, so that a quantile lying between two clusters of op
latencies does not hinge on the single sample at either edge.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_TICK_S = 0.003  # about one kernel run on a 2-vCPU Xeon VM in its fast state


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 2**31, size=150_000)
        self._words = rng.integers(0, 1000, size=20_000).tolist()
        self.ticks: list[float] = []

    def tick(self, times: int = 1) -> None:
        """Time ``times`` runs of the calibration kernel."""
        for _ in range(times):
            t0 = time.perf_counter()
            np.sort(self._keys, kind="quicksort")
            counts: dict[int, int] = {}
            for w in self._words:
                counts[w] = counts.get(w, 0) + 1
            self.ticks.append(time.perf_counter() - t0)

    def factor(self, lo: int, hi: int) -> float:
        """Reference-speed factor from the ticks ``lo:hi``."""
        return REFERENCE_TICK_S / statistics.median(self.ticks[lo:hi])


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    if n < 2 or min(a, b) < 1:  # the beta weights need a bounded density
        return float(np.quantile(x, p))
    steps = 64  # integration points per order statistic
    u = np.linspace(0.0, 1.0, n * steps + 1)
    log_density = (a - 1) * np.log(np.clip(u, 1e-300, None)) + (b - 1) * np.log(np.clip(1 - u, 1e-300, None))
    density = np.exp(log_density - log_density.max())
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2)])
    cdf /= cdf[-1]
    weights = np.diff(cdf[::steps])
    return float(weights @ x)
