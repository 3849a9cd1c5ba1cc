"""Scaling measured times to a reference interpreter speed.

A shared VM's vCPUs can drift in speed by tens of percent in states lasting
a few seconds (on a 2-vCPU Xeon VM, a fixed pure-Python loop timed back to
back moved between about 21 and 33 ms; CPU time moved with it, so this is
speed, not preemption).  Timed as is, two runs of the same code differ by
as much as the bounds a change is judged by.

So every timed run also times a fixed piece of interpreter work, the probe,
at the moment it runs: a burst of probes right after set-up, and during the
task one probe every ``INTERVAL_S`` from a SIGALRM handler.  A probe taking
``REFERENCE_S`` means the reference speed; the speed of a sample is
``REFERENCE_S / duration``.  A time is scaled by the mean speed of its
samples, which were taken at even steps of wall time, so the result is the
time the same work would take at the reference speed.  The probe's own time
is taken out of the task's first.

The probe allocates no container objects, so it never triggers the garbage
collector and its samples do not depend on the program's heap.  The probe
does not depend on sigmairr, so a change to the program moves scaled times
exactly as it moves wall times at a steady speed.
"""

from __future__ import annotations

import signal
import statistics
import time

# The probe's typical duration on a 2-vCPU Xeon at 2.1 GHz under Python
# 3.11, so that scaled seconds are close to wall seconds there.
REFERENCE_S = 55e-6
INTERVAL_S = 0.01
BURST = 50  # probes right after set-up

_TABLE = list(range(256))


def probe() -> float:
    """Seconds one round of the fixed work takes."""
    t0 = time.perf_counter()
    acc = 0
    table = _TABLE
    for i in range(400):
        acc = (acc + table[(i * 7919) & 255] * i) % 1000003
    return time.perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Mean speed of the samples relative to the reference (1.0 = reference)."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


def burst() -> float:
    """Speed now, from ``BURST`` probes back to back."""
    return speed([probe() for _ in range(BURST)])


class Sampler:
    """Context manager that takes a probe sample every ``INTERVAL_S`` of
    wall time while its block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if not self._busy:  # a late timer tick must not nest a probe in a probe
            self._busy = True
            self.samples.append(probe())
            self._busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time around this block, less the probes' own
        time, at the reference speed."""
        factor = speed(self.samples) if self.samples else burst()  # a block too short to sample
        return (seconds - sum(self.samples)) * factor
