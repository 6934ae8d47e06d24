"""How much the host slows this process down, measured by a fixed probe.

On a shared host the same work takes from 1x to 2x its quiet time, as
other tenants contend for the core and its caches; the slow-down moves
within tens of milliseconds and can last whole minutes.  The probe is a
fixed ~0.4 ms stretch of interpreter work of the kind k3cm does (Fraction
arithmetic, dict stores); it runs every PROBE_PERIOD_S from a SIGALRM
handler in the benchmark's one thread, and explicitly around every timed
item and fresh set-up.

An item's time is corrected to the speed of a quiet core:

    corrected = (measured - probe time inside it) * mean(REFERENCE_S / probe_i)

over the probes taken during the item and at both ends of it.  The load
changes within tens of milliseconds, so only probes taken during the item
track it: with one every 5 ms, the log of a ~0.1 s `verify` item's time
correlates with the log of its probes' mean at 0.96 (0.84 with one every
50 ms), and its corrected time spreads a third as much as the measured one.

REFERENCE_S is the probe's time on a quiet core of the host the bounds were
set on (a 2-vCPU Intel Xeon at 2.1 GHz: the fastest probes seen there over
many runs read 0.37-0.38 ms), so times read as seconds on that host at rest.
It is fixed rather than taken from the run's own fastest probe because a
heavy load can last a whole run: then no probe of the run is quiet, and
runs under load read up to 20 % slower than runs at rest.  On another host
the times are scaled to that one's speed.  The probe never calls k3cm, so a
change to k3cm moves the corrected time exactly as it moves the real one.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.005
REFERENCE_S = 0.375e-3


def _probe_work() -> int:
    d = {}
    x = Fraction(1, 3)
    for i in range(100):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 7)
        d[i % 97] = x.numerator % 1000003
    return len(d)


def at_reference(measured: float, probes: list[float]) -> float:
    """A time measured while `probes` ran, at the speed of the reference probe."""
    return measured * statistics.fmean(REFERENCE_S / t for t in probes)


class Probe:
    """Probe durations of one run, in the order taken."""

    def __init__(self):
        self.times: list[float] = []
        self.on_sample = None     # called with (start, end) of every probe
        self._busy = False

    def sample(self, *_):
        if self._busy:        # an alarm during an explicit sample
            return
        self._busy = True
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        if self.on_sample is not None:
            self.on_sample(t0, t1)
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def floor(self) -> float:
        return min(self.times)

    def slowdown(self) -> float:
        """Median probe time over the reference: how contended the run was."""
        return statistics.median(self.times) / REFERENCE_S


class Timed:
    """Times one item, with the probes taken during it."""

    def __init__(self, probe: Probe):
        self.probe = probe

    def __enter__(self):
        self.probe.sample()
        self.first = len(self.probe.times) - 1
        self.wall0, self.cpu0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        wall, cpu = time.perf_counter() - self.wall0, time.process_time() - self.cpu0
        inside = sum(self.probe.times[self.first + 1:])
        self.probe.sample()
        self.wall_s, self.cpu_s = wall - inside, cpu - inside
        self.probes = self.probe.times[self.first:]
        return False

    def corrected(self) -> tuple[float, float]:
        """(wall, cpu) at the speed of the reference probe."""
        return at_reference(self.wall_s, self.probes), at_reference(self.cpu_s, self.probes)
