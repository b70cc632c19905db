"""Reference seconds: program time corrected for the speed of a shared machine.

The benchmark runs on a few vCPUs of a shared host whose speed changes by
up to a factor of two, in phases from a fraction of a second to minutes
(other tenants on the same cores and caches).  The raw seconds of a run then
depend more on the phase it fell in than on frspec: identical repetitions
of one workload spread by 20-40% (quartile distance over median).

A ``SpeedClock`` takes a short calibration sample about every ``PERIOD_S``
seconds, from a SIGALRM handler, so on the measured thread itself.  A
sample runs fixed code of the kinds frspec runs (numpy FFT, sparse
``np.add.at``, Fraction and plain-integer arithmetic), once untimed to warm
caches and FFT plans, then timed.  Its slowness is its time over
``NOMINAL_S``.  ``seconds()`` converts raw intervals into reference
seconds: each stretch of program time between two samples is divided by
the mean slowness of those two samples, and the samples' own time is left
out.  The calibration code does not depend on frspec, so a change to frspec
moves reference seconds as it would move raw seconds at a steady speed.
On the 2-vCPU machine of BASELINE.md this cut the spread of identical
repetitions to 4-7%.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

import numpy as np

perf = time.perf_counter

# Time of one timed calibration sample when the machine of BASELINE.md runs
# in its fast phase (the 10th percentile of about 5,000 samples).  A
# reference second is a second at that speed.
NOMINAL_S = 0.53e-3

_FFT_IN = np.random.default_rng(5).standard_normal((16, 16, 16)) + 0j
_ACC = np.zeros(512)
_IDX = np.random.default_rng(7).integers(0, 512, 2000)


def _calibration() -> None:
    for _ in range(3):
        np.fft.fftn(_FFT_IN)
    for _ in range(20):
        np.add.at(_ACC, _IDX, 1.0)
    s = Fraction(0)
    for i in range(60):
        s += Fraction(i % 7, 3 + i % 5)
    x = 0
    for i in range(2000):
        x += i * i


# Mean time between samples; each wait is drawn from 0.5-1.5 times it, so
# the samples do not lock onto periodic load.
PERIOD_S = 0.05


class SpeedClock:
    def __init__(self):
        self._rng = random.Random(0)
        self.samples = []  # (start, end, slowness)
        self._running = False
        self._old_handler = None

    def _sample(self, *_) -> None:
        start = perf()
        _calibration()
        t0 = perf()
        _calibration()
        end = perf()
        self.samples.append((start, end, (end - t0) / NOMINAL_S))
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S * (0.5 + self._rng.random()))

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        self._sample()

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._old_handler)

    def seconds(self, intervals, raw: bool = False) -> float:
        """Reference seconds of the (start, end) intervals, samples left out.

        With ``raw`` the program time of the intervals in plain seconds.
        """
        s = self.samples
        if not s:
            raise RuntimeError("SpeedClock took no samples")
        # stretches of program time and the slowness around each
        gaps = [(-np.inf, s[0][0], s[0][2])]
        gaps += [(a[1], b[0], 0.5 * (a[2] + b[2])) for a, b in zip(s, s[1:])]
        gaps.append((s[-1][1], np.inf, s[-1][2]))
        total = 0.0
        for lo, hi in intervals:
            for g0, g1, slowness in gaps:
                overlap = min(hi, g1) - max(lo, g0)
                if overlap > 0:
                    total += overlap if raw else overlap / slowness
        return total
