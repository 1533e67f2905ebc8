"""Host-speed normalisation of wall-clock timings.

A virtual CPU of a shared host changes speed, by up to a factor of two,
from one few-second stretch to the next, with the load other tenants put
on the host; CPU time moves with wall time, so it does not help. A timed interval is therefore sampled while it runs: every
INTERVAL_S a SIGALRM handler runs a fixed reference snippet and records
how long it took. The normalised time of the interval is its wall time
less the time spent in the handler, times the mean over its samples of
NOMINAL_S / snippet time. That is the time the interval would take on a
host where the snippet takes NOMINAL_S, about the time it takes on a
2-vCPU Intel Xeon virtual machine when its host is lightly loaded.

The probe runs in the measured process itself, between bytecodes of the
workload, so it samples the same virtual CPU; it costs about 2% of the
wall time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01
NOMINAL_S = 2.0e-4
_TABLE = [0] * 256


def reference():
    """The fixed snippet: interpreter dispatch, integer arithmetic and
    list indexing, with no allocation the garbage collector tracks."""
    t = _TABLE
    acc = 0
    for i in range(2000):
        t[i & 255] = i
        acc += t[(i * 7) & 255] >> 3
    return acc


def normalise(wall, samples):
    """Normalised seconds of an interval of ``wall`` seconds during which
    the snippet took ``samples`` seconds, one entry per run."""
    if not samples:
        raise ValueError("no speed sample in an interval of %.3g s" % wall)
    speed = statistics.fmean(NOMINAL_S / s for s in samples)
    return (wall - sum(samples)) * speed


class SpeedProbe:
    """Samples the snippet's time every INTERVAL_S from start() to stop()."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference()
        self.samples.append(perf_counter() - t0)

    def start(self):
        """Start sampling; one sample is taken at once, so there is always
        a last one."""
        for _ in range(20):     # let the interpreter specialise it first
            reference()
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples)

    def since(self, mark, wall):
        """Normalised seconds of the ``wall`` seconds since ``mark``. An
        interval too short to hold a sample takes the last one's speed."""
        inside = self.samples[mark:]
        if not inside:
            return wall * NOMINAL_S / self.samples[-1]
        return normalise(wall, inside)
