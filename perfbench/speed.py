"""Scaling timed calls to a reference core speed.

On a shared 2-vCPU Xeon VM, a core's speed flips between two states 1.4-1.7x
apart, each lasting from a fraction of a second to tens of seconds.  Run-to-run
spreads of raw command times reached 17-44 % whatever the number of passes.
So while a timed call runs, a SIGALRM every SAMPLE_PERIOD_S times a tiny fixed
kernel (Python arithmetic, small numpy matmuls and one add over 1 MiB arrays),
with one sample just before
and one just after the call.  The call's time is scaled by
REF_SAMPLE_S / (mean sample time): seconds at the reference speed.  A child
process is calibrated from samples taken just before and just after it only.
Raw seconds are kept beside the scaled ones.

The process is pinned to one CPU (``pin_to_one_cpu``) so that the samples,
the in-process commands and any child process share a core.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

SAMPLE_PERIOD_S = 0.01
BURST = 10                  # samples before and after a block timed with during=False
REF_SAMPLE_S = 4.7e-4       # about _sample() in the fast state on that VM, amid a workload
_SMALL = np.random.default_rng(0).random((4, 4)) * 0.25
# 1 MiB operands: one add streams 3 MiB, more than a core's L2, through the
# shared L3, so the sample also sees contention for cache and memory bandwidth.
_A = np.random.default_rng(1).random(2**17)
_B = _A.copy()
_C = np.empty_like(_A)


def _sample() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(2500):
        acc += i * i
    m = _SMALL
    for _ in range(20):
        m = m @ _SMALL
    np.add(_A, _B, out=_C)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """Context manager: ``scale(seconds)`` after the block gives reference seconds.

    With ``during=False`` no sample is taken while the block runs, only BURST
    samples just before it and BURST just after.  That is for a child process
    on the pinned CPU, which samples taken meanwhile would compete with.
    """

    def __init__(self, during: bool = True):
        self.during = during

    def _burst(self) -> list:
        return [_sample() for _ in range(1 if self.during else BURST)]

    def __enter__(self):
        self.samples = self._burst()
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def _on_alarm(self, _signum, _frame):
        self.samples.append(_sample())

    def __exit__(self, *exc):
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples += self._burst()
        return False

    def scale(self, seconds: float) -> float:
        return seconds * REF_SAMPLE_S * len(self.samples) / sum(self.samples)
