"""Machine-speed probe, for timings that survive a shared machine.

The cores of the machine this benchmark was written on are shared with
other tenants.  A fixed pure-Python loop took anywhere from 16 to 28 ms
within one minute, with CPU time equal to wall time (so the process was
not descheduled: its cores ran slower), and whole 25-second runs of the
same workload drifted by 30%.

So every timed interval is bracketed by probes: the probe kernel below
is timed just before and just after the interval, and every PERIOD_S
during it (on SIGALRM).  The interval's time, minus the probes run
inside it, is reported at reference speed: multiplied by REF_S over the
mean probe time.  A probe shares no code with padlog, so a change to
padlog moves the reported times and never the probe.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Time of one probe at reference speed: about the fastest this machine
# ran it (2 cores, Python 3.11.7).  It only fixes the unit of the
# scaled times.
REF_S = 0.0005
PERIOD_S = 0.02


def _kernel():
    """Interpreter-bound work of padlog's kind: modular big-integer
    arithmetic, tuple allocation and Fraction arithmetic."""
    m = 3 ** 20
    x, acc, row = 1, Fraction(0), []
    for i in range(1, 150):
        x = (x * 1000003 + i) % m
        row.append((x, i))
        acc += Fraction(x % 97, i)
    return acc, row


def probe():
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(probes):
    """Factor from measured to reference-speed time."""
    return REF_S * len(probes) / sum(probes)


class Ticker:
    """Probes every PERIOD_S while an interval runs, as a context
    manager; `ticks` holds the probe times of the last interval.
    `on_tick(dt)` is told of each one (the tracer excludes it from the
    span it interrupted)."""

    def __init__(self, on_tick=None):
        self.ticks = []
        self.on_tick = on_tick
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        dt = probe()
        self.ticks.append(dt)
        if self.on_tick is not None:
            self.on_tick(dt)

    def __enter__(self):
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False

    def close(self):
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
