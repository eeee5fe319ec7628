"""The machine's speed while a run measures, from a fixed loop timed every 0.2 s.

The shared machine this benchmark was written on runs slower or faster, by
up to 1.8x, for seconds or for minutes at a time, and process CPU time moves
with wall time. A time scaled by the speed measured while it was taken reads
about the same in a slow phase and a fast one. The loop is plain Python and
calls nothing of neuronmf, so a change to the program does not move it.

While a run measures, a SIGALRM handler times the loop every INTERVAL_S
seconds, inside whatever the benchmark is timing; this adds about 1% to
every time, on every commit alike.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.2
# the loop's time when the machine is fast: the factor of a sample is
# REFERENCE_S over the loop's time, about 1 in a fast phase and below 1 in
# a slow one, so that a scaled time reads as if taken in a fast phase
REFERENCE_S = 1.8e-3


def _loop():
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


class Speedometer:
    """Speed factors, one per sample; as a context manager, one sample every INTERVAL_S."""

    def __init__(self):
        self.factors: list[float] = []

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        _loop()
        self.factors.append(REFERENCE_S / (time.perf_counter() - t0))

    def mean(self):
        return sum(self.factors) / len(self.factors)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factor_now(samples=10):
    """Mean factor of `samples` loops run back to back."""
    meter = Speedometer()
    for _ in range(samples):
        meter.sample()
    return meter.mean()
