"""Scaling of wall times to the reference host speed.

The reference machine is a shared 2-vCPU virtual machine whose speed drifts
with other tenants' load: one fixed rectangle-boundary job took 0.33 s to
0.71 s within a single minute, with slow phases lasting tens of seconds and
whole 40 s runs up to 1.7x slower than others (wall and CPU time alike, so
the process is not descheduled; the processor runs slower). Raw wall times
of identical runs therefore spread far wider than any useful regression
bound.

A ``SpeedProbe`` times a fixed calibration slice of the same kind of work
the program does (small-array complex numpy calls and interpreter overhead)
after every job, five times per second of the job and at least three times,
so its samples spread evenly over the run's time. Times multiplied by
``scale``, ``REFERENCE_S`` over the median sample, read as wall times at
the speed the host has when the slice takes ``REFERENCE_S``. The slice is
benchmark code that no change to affsurf touches, so a faster program still
reads faster.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the slice's time on the reference machine when it is not slowed down
REFERENCE_S = 0.015
SLICES_PER_SECOND = 5
MIN_SLICES = 3
_ROUNDS = 1500
_X = np.linspace(0.1, 0.9, 15) + 0.5j


def calibration_s() -> float:
    """Wall time of the fixed calibration slice."""
    t = time.perf_counter()
    acc = 0j
    for i in range(_ROUNDS):
        y = np.exp(0.3j * np.log1p(_X / (1.0 + 1e-3 * i)))
        acc += complex(np.sum(y * _X)) + abs(complex(i, 1.0)) ** 0.5
    return time.perf_counter() - t


class SpeedProbe:
    """Calibration samples taken through a run, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self, elapsed: float) -> None:
        """Time the slice after an interval of elapsed seconds."""
        n = max(MIN_SLICES, math.ceil(SLICES_PER_SECOND * elapsed))
        self.samples.extend(calibration_s() for _ in range(n))

    @property
    def scale(self) -> float:
        """Reference slice time over the run's median slice time."""
        return REFERENCE_S / statistics.median(self.samples)
