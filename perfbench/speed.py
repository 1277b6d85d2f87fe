"""Machine-speed sampling, so that timings read in seconds at a fixed speed.

On a shared machine the speed of a core changes within tenths of a second,
and the wall times of identical 2-s ``risolve solve`` runs vary by 10-16%
(coefficient of variation).  While an operation runs,
SIGALRM fires every ``INTERVAL_S`` and the handler times a fixed piece of
pure-Python work (``kernel``).  The operation's time at the reference speed
is its wall time, less the handler's, times the mean over the samples of
``REFERENCE_S / sample``: the mean speed relative to the reference while the
operation ran.  On the machine of README.md this takes the coefficient of
variation of eight 2-s solves from 16% to 3%.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04
# near the kernel's median time during risolve operations on the machine
# of README.md (0.87 ms), so that seconds at the reference speed come out
# close to the wall seconds seen there
REFERENCE_S = 8.0e-4


def kernel(n: int = 800) -> float:
    acc = 0.0
    seen = {}
    for i in range(n):
        x = (i % 7) * 0.5 + 1.0
        acc += abs(x - 3.0) ** 0.5
        seen[i % 11] = acc
        acc += len(str(i)) + max(x, acc % 5)
    return acc


class SpeedSampler:
    """Context manager: samples the kernel's time while the body runs.

    ``spent`` is the time the handler took; ``reference(wall)`` converts a
    wall time measured around the body to seconds at the reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # body shorter than one interval
            spent = self.spent
            self._sample()
            self.spent = spent

    def factor(self) -> float:
        """Mean speed while sampling, relative to the reference speed."""
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

    def reference(self, wall: float) -> float:
        return (wall - self.spent) * self.factor()
