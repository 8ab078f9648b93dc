"""Correction of measured times for the machine's current speed.

On the shared virtual machines this benchmark was built on, the same
operation runs up to 1.8x slower from one second to the next, and whole
half-minutes can run slow, because other tenants load the host. Neither
longer runs nor best-of-repeats kept a run's medians within 25% of the
next run's on the same seed.

A fixed calibration loop, built like the program's own work (small numpy
products and argmins, float conversions, dict and tuple churn), slows down
with the program: over one-second windows the ratio of an operation's time
to the loop's time varied 4x less than either time alone. So the benchmark
times everything with ``Clock``, which scales real time by
``REFERENCE_S / loop time``. A reported second is a second on a machine
that runs the loop in ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

REFERENCE_S = 1e-3
INTERVAL_S = 0.05

_MATRIX = np.linspace(0.1, 1.0, 360).reshape(12, 30)


def calibration_loop() -> float:
    """Seconds the fixed loop takes now."""
    started = time.perf_counter()
    v = np.linspace(1.0, 2.0, 30)
    table: dict[tuple[int, int], float] = {}
    acc = 0.0
    for i in range(120):
        r = _MATRIX @ v
        j = int(np.argmin(r))
        v[j % 30] += 1e-3
        acc += float(r[j])
        key = (i % 13, j)
        table[key] = table.get(key, 0.0) + acc
        acc -= sum(value for _, value in sorted(table.items())[:4]) * 1e-9
    return time.perf_counter() - started


class Clock:
    """A clock that runs in reference seconds.

    A reading advances the clock by the real time since the previous
    reading times the current speed factor ``REFERENCE_S / loop time``.
    ``retime`` times the loop again once ``INTERVAL_S`` has passed, scales
    the time since the last reading by the mean of the old and new factors,
    and leaves the loop's own time out. The benchmark retimes between
    operations and between the steps of a set-up, never inside an operation.
    """

    def __init__(self) -> None:
        self._loops: deque[float] = deque(maxlen=3)
        # The first run of the loop in a process pays numpy's first-call
        # costs, up to 6x the loop's time, so it is left out. The next three
        # fill the window, so that the first factor is a median too.
        calibration_loop()
        for _ in range(2):
            self._loops.append(calibration_loop())
        self.factor = self._factor()
        self._real = self._timed = time.perf_counter()
        self._virtual = 0.0

    def _factor(self) -> float:
        """From the median of the last three loop timings."""
        self._loops.append(calibration_loop())
        return REFERENCE_S / statistics.median(self._loops)

    def __call__(self) -> float:
        now = time.perf_counter()
        self._virtual += (now - self._real) * self.factor
        self._real = now
        return self._virtual

    def retime(self) -> None:
        now = time.perf_counter()
        if now - self._timed < INTERVAL_S:
            return
        factor = self._factor()
        self._virtual += (now - self._real) * (self.factor + factor) / 2
        self.factor = factor
        self._real = self._timed = time.perf_counter()
