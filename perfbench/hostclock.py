"""A clock that reads program time at a fixed host speed.

On a small shared VM the host lends this process a core whose speed
changes from millisecond to millisecond: whenever another tenant runs on
the same physical core, the same code runs 1.5-2x slower, with CPU time
still equal to wall time.  How often that happens drifts over minutes,
so the fastest of six 2-second passes of identical work can differ by
1.8x between two minutes, and plain wall times of the same run spread by
30% or more between runs a few minutes apart.

``HostClock.run`` measures that speed while the program runs.  An
interval timer interrupts the program every ``PERIOD`` seconds to run a
fixed probe (a little pure-Python arithmetic and a few small numpy
calls), and one probe runs right before and one right after the call.
Each stretch of program time between two probes is divided by the mean
duration of those two probes, and

    corrected seconds = REFERENCE_PROBE_S * sum(stretch / mean of probes)

is the call's wall time had every stretch run at the speed at which the
probe takes ``REFERENCE_PROBE_S``, about the fastest probe seen on a
quiet 2-vCPU Xeon VM.  Probe time itself is left out.  The reference is
a constant, not the fastest probe of each measurement, because in a busy
minute no probe runs at full speed.  On another host the corrected
seconds differ from wall seconds by a constant factor, so compare them
between runs on one host only.

The correction follows the host closely but not exactly: code that waits
on memory slows less than the probe when the core is shared, and the
other way round, so a run can still read up to 10-20% higher in one
minute than in another.  Callers take the median of several repeats.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD = 0.01      # seconds between probes inside a call
REFERENCE_PROBE_S = 2.0e-4
_SMALL = np.arange(16.0)


def probe() -> float:
    """Seconds taken by a fixed mix of Python arithmetic and numpy calls."""
    started = perf_counter()
    z, s = 0.3 + 0.2j, 0.0
    for _ in range(1000):
        z = z * z * 0.5 + 0.1j
        s += abs(z)
    a = _SMALL
    for _ in range(40):
        a = np.sqrt(a * 1.0001 + 1.0) - 1.0
    return perf_counter() - started


class HostClock:
    """Times calls in wall seconds and in corrected seconds."""

    def __init__(self):
        self.fastest_probe = float("inf")
        self._marks: list = []  # (start, end) of each probe in a call
        self._busy = False

    def _probe(self) -> None:
        self._busy = True
        started = perf_counter()
        elapsed = probe()
        self._marks.append((started, started + elapsed))
        self.fastest_probe = min(self.fastest_probe, elapsed)
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._probe()

    def run(self, fn, *args, interrupt: bool = True):
        """Call fn(*args); return (its result, wall s, corrected s).

        Neither time includes the probes.  ``interrupt=False`` probes
        only before and after the call, for a call that waits on a child
        process.
        """
        self._marks = []
        self._probe()
        if interrupt:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            result = fn(*args)
        finally:
            if interrupt:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self._probe()
        wall = units = 0.0
        for (a0, a1), (b0, b1) in zip(self._marks, self._marks[1:]):
            stretch = b0 - a1
            wall += stretch
            units += stretch / (((a1 - a0) + (b1 - b0)) / 2.0)
        return result, wall, units * REFERENCE_PROBE_S
