"""Host-speed probe that scales measured times to a reference core speed.

On a shared virtual machine the same code runs up to about twice as slow
for seconds or minutes at a time, whenever another tenant loads the
physical core; nothing inside the guest reports it (no steal time, no
frequency change). A unit of this benchmark lasts seconds, so its raw wall
time follows the neighbour's load more than the code.

``SpeedProbe`` samples the core's speed while a measured region runs: a
SIGALRM timer fires every ``INTERVAL`` seconds and the handler times
``kernel``, fixed work that does not depend on the package. The region's
scaled time is its wall time minus the probe's own time, multiplied by
``REFERENCE_S`` over the kernel's mean time in the region. ``REFERENCE_S``
is the kernel's mean time inside a unit on an uncontended core of the
reference machine (a 2-core Intel Xeon VM at 2.0 GHz), so scaled times read
as seconds on that core. A change to the package moves its scaled times as
it moves its raw ones. Raw times are recorded beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05
MIN_SAMPLES = 20  # topped up after a region too short to collect them
REFERENCE_S = 0.0015

_DATA = np.linspace(0.0, 1.0, 40_000)
_GAPS = np.array([3, 1, 0, 5, 2, 7, 4, 9])
_INHERENT = np.linspace(0.3, 1.0, 8)
_MEMORY = np.linspace(7.0, 27.0, 8)


def kernel() -> None:
    """Fixed work shaped like the package's: many numpy calls on a few
    elements each (per-turn loops), then element-wise passes over an array
    the size of a training stack. It tracks the slowdown of the workloads
    far better than a plain interpreter loop does."""
    for _ in range(40):
        u = np.where(_GAPS != 1, _INHERENT + _MEMORY * np.exp(-_GAPS / 2.0), 0.0)
        int(np.searchsorted(np.cumsum(u / u.sum()), 0.5))
    x = _DATA
    for _ in range(3):
        x = np.where(x > 0.5, x * 0.5, x + 0.1)


class SpeedProbe:
    """Context manager that samples the kernel's time while it is active."""

    def __init__(self):
        self.samples: list = []
        self.busy_s = 0.0  # probe time spent inside the measured region
        self.wall_s = 0.0
        self._start = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.busy_s = sum(self.samples)
        if len(self.samples) < MIN_SAMPLES:
            kernel()  # the first call after other work runs cold
            while len(self.samples) < MIN_SAMPLES:
                self._sample(None, None)
        return False

    @property
    def factor(self) -> float:
        """Reference kernel time over the kernel's mean time in the region."""
        return REFERENCE_S / statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        """Multiplier from the region's raw times to reference-core times,
        net of the probe's own share of the region."""
        return (1.0 - self.busy_s / self.wall_s) * self.factor
