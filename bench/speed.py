"""Machine-speed samples taken inside the measured process.

Other tenants of a shared machine slow its cores by up to 2x, switching
within fractions of a second and drifting over minutes. `SpeedProbe` times a
fixed kernel every 20 ms from SIGALRM, in the same thread as the program, so
its samples slow down when the program does. The kernel mixes Fraction
arithmetic with small-array NumPy work (an FFT, a matrix product, an
elementwise power): on this load that mix tracked all three workloads about
as well as the better of its two halves did for each, and much better than a
plain integer loop. A time measured over an interval is normalised to the
reference speed, with the speed in each tick taken as 1 / sample:

    normalised = (wall - probe time) * REFERENCE_S * mean(1 / probe samples)

Averaging speeds rather than sample times weighs each tick by the work done
in it; on repeated operations it left less spread than the mean sample time.

REFERENCE_S is the kernel's mean time inside the handler on an uncontended
core of the machine these bounds were set on (Intel Xeon, 2 vCPUs, Python
3.11, NumPy 2.4), estimated from `report_all` wall times measured while the
machine was quiet.
Normalised seconds read within about 15% of uncontended wall seconds there.
Comparisons between commits stay valid on any machine, because the kernel is
benchmark code that no change to ksl touches.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np
from numpy.fft import rfft  # loaded now: a handler must never run an import

INTERVAL_S = 0.02
REFERENCE_S = 4.6e-4


_FIELD = np.random.default_rng(0).standard_normal((34, 68))
_TABLE = np.random.default_rng(1).standard_normal((17, 34))


def _kernel() -> None:
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    for _ in range(4):
        np.abs(rfft(_FIELD, axis=1)) ** 2
        _TABLE @ _FIELD


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedProbe":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, since: int = 0) -> float:
        """Mean of 1 / sample since `mark()` returned `since`, or 1 / REFERENCE_S without samples."""
        window = self.samples[since:] or self.samples[-1:]  # an interval shorter than one tick
        return statistics.fmean(1.0 / s for s in window) if window else 1.0 / REFERENCE_S

    def normalise(self, wall: float, since: int) -> float:
        """`wall` seconds measured since `mark()` returned `since`, at reference speed."""
        return (wall - sum(self.samples[since:])) * REFERENCE_S * self.speed(since)
