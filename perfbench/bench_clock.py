"""Machine-speed reference timed between operations.

On a shared host the whole machine drifts between a fast and a slow state
for tens of seconds at a time (every scheme and this kernel ~1.5x slower
together), which no number of repeats inside a 30 s run averages out. The
benchmark therefore times this fixed NumPy kernel, independent of mmbgk,
before and after every operation, and divides each operation's wall time
by the slowdown s = (median kernel time of the probes within WINDOW_S of
the operation) / REFERENCE_S.

The kernel works in L2. Operations whose flux matrices overflow L2 wait on
L3 traffic, which the slow state slows less: in runs whose s ranged
1.0-1.4, dividing their times by s**0.5 left the smallest spread, while
dividing by s over-corrected them (8-16 % spread). The L2-resident
operations need the full s. In runs with s near 1.8 the square root
under-corrects, so the rescaling is approximate. Raw wall times are
reported next to the rescaled ones.
"""

import bisect
import os
import statistics
from time import perf_counter

import numpy as np

# kernel time in the host's fast state on the machine the bounds were set on
REFERENCE_S = 0.0022
# the slow and fast states last tens of seconds; a probe alone jitters by ~10 %
WINDOW_S = 2.0
L3_BOUND_EXPONENT = 0.5
# warm-up iterations refill the caches the previous operation has evicted
WARMUP = 3
ITERATIONS = 20


def l2_bytes():
    """Size of cpu0's L2 cache, or 2 MiB when the system does not say."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in os.listdir(base):
            with open(os.path.join(base, idx, "level"), encoding="utf-8") as fh:
                if fh.read().strip() != "2":
                    continue
            with open(os.path.join(base, idx, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return 2 * 1024 ** 2


class SpeedClock:
    def __init__(self):
        self.l2_bytes = l2_bytes()
        rng = np.random.default_rng(0)
        # shapes of the reference two-beam field and its flux matrices
        self._mats = rng.random((500, 10, 10))
        self._state = rng.random((500, 10))
        self._times = []  # probe midpoints, ascending
        self._durations = []

    def probe(self):
        """Time the kernel once and record it; the first iterations only warm the caches."""
        v = self._state
        for i in range(WARMUP + ITERATIONS):
            if i == WARMUP:
                t0 = perf_counter()
            v = self._step(v)
        t1 = perf_counter()
        self._times.append(0.5 * (t0 + t1))
        self._durations.append(t1 - t0)

    def _step(self, v):
        w = np.concatenate([v[:1], v, v[-1:]])
        d = w[1:] - w[:-1]
        ad = np.einsum("nij,nj->ni", self._mats, d[1:])
        m = np.zeros_like(self._mats)
        m[:, 0, 0] = v[:, 0]
        m[:, 1, 2] = 1.0 / (1.0 + v[:, 2])
        v = 0.5 * (v + 1e-3 * (ad + np.einsum("nij,nj->ni", m, ad)))
        if not np.all(np.isfinite(v)):
            raise ArithmeticError("speed probe diverged")
        return v

    def rescale(self, seconds, t0, working_set):
        """Wall seconds of an operation that started at t0, at the reference speed."""
        s = self.speed(t0, t0 + seconds)
        return seconds / (s if working_set <= self.l2_bytes else s ** L3_BOUND_EXPONENT)

    def speed(self, t0, t1):
        """Median probe time within WINDOW_S of [t0, t1] relative to REFERENCE_S (> 1: slow)."""
        lo = bisect.bisect_left(self._times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self._times, t1 + WINDOW_S)
        return statistics.median(self._durations[lo:hi]) / REFERENCE_S

    def overall(self):
        return statistics.median(self._durations) / REFERENCE_S
