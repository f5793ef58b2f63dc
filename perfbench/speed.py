"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed available to one process swings by tens of
percent over a few seconds (other tenants on sibling hardware threads), and
a pure-Python loop slows exactly like the library does: CPU time tracks
wall time, so the loss is not descheduling but slower execution.  The
benchmark therefore times a fixed calibration unit, independent of
trinomax and in the same mix of scalar ``math`` calls and small numpy
array operations, every ``INTERVAL_S`` of the run, and scales each op's
wall time by ``REFERENCE_S`` over the median unit time of the ``WINDOW``
samples on each side of it.  Reported times are the
times on a machine where the unit takes ``REFERENCE_S``; the raw figures
are printed beside them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 3.0e-4
INTERVAL_S = 0.025
WINDOW = 3  # samples on each side of an op whose median sets its scale

_X = np.linspace(0.0, 6.0, 512)


def _unit() -> float:
    acc = 0.0
    for i in range(400):
        x = i * 0.01
        acc += math.sin(x) * math.cos(2.0 * x) + math.sqrt(x + 1.0)
    for _ in range(4):
        acc += float(np.abs(np.exp(1j * _X) + 0.5 * np.exp(2j * _X)).max())
    return acc


def unit_seconds() -> float:
    """Wall time of one fixed calibration unit (about 0.3 ms).

    The unit runs once untimed first: right after a long op its code and
    data are out of cache, which would read as a slow machine.
    """
    _unit()
    t0 = time.perf_counter()
    _unit()
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration samples taken through a run.

    Ops that run after sample k-1 and before sample k belong to interval k;
    ``factor(k)`` is REFERENCE_S over the median of the ``WINDOW`` samples
    on each side of that interval.
    """

    def __init__(self) -> None:
        self.units: list[float] = []
        self._last = time.perf_counter() - WINDOW * INTERVAL_S  # first call takes WINDOW samples

    @property
    def interval(self) -> int:
        return len(self.units)

    def sample_if_due(self) -> None:
        """Take a sample once INTERVAL_S has passed; after a long op take up
        to WINDOW of them, so the samples around an op stay close to it."""
        waited = time.perf_counter() - self._last
        if waited >= INTERVAL_S:
            for _ in range(min(WINDOW, int(waited / INTERVAL_S))):
                self.units.append(unit_seconds())
            self._last = time.perf_counter()

    def factor(self, k: int) -> float:
        return REFERENCE_S / statistics.median(self.units[max(0, k - WINDOW): k + WINDOW])
