"""Machine-speed reference for the benchmark's timings.

On a shared machine the speed of one core drifts by up to a factor of two
over tens of seconds, while the process's CPU time stays equal to its wall
time: the drift is contention for the core's hardware, not waiting.  A
run's median alone then moves with the machine, not with the program.

The benchmark therefore measures the speed of a fixed pure-Python
reference loop while it measures the program.  During a pass, a
``SIGALRM`` timer interrupts the pass every ``PERIOD_S`` seconds and times
one reference loop.  A pass's time at the reference speed is its wall time
(less the time spent in the reference loops) times the mean of
``REF_SECONDS / loop time`` over its samples: the wall time it would have
taken on a core where one reference loop takes exactly ``REF_SECONDS``.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
REF_SECONDS = 1e-3
perf_counter = time.perf_counter


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    acc = 1
    table = {}
    for i in range(3000):
        acc = (acc * 1000003 + i) % 998244353
        table[i & 63] = (acc, i)
    return acc


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def speed(samples) -> float:
    """Mean speed relative to the reference speed (1.0 = nominal)."""
    return statistics.fmean(REF_SECONDS / s for s in samples)


class Pacer:
    """Context manager timing a block in wall and reference seconds.

    After the block: ``wall_s`` its wall time, ``spent_s`` the part spent
    in reference loops, ``speed`` the mean relative speed and ``seconds``
    the block's time at the reference speed.
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: list = []
        self.wall_s = self.spent_s = self.seconds = 0.0
        self.speed = 1.0

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_reference())

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.spent_s = sum(self.samples)
        if not self.samples:
            self.samples.append(time_reference())
        self.speed = speed(self.samples)
        self.seconds = (self.wall_s - self.spent_s) * self.speed
