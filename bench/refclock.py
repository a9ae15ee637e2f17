"""A wall clock corrected for the speed of a shared host.

On a machine shared with other tenants the same pure-Python work can take
twice as long from one second to the next, and phases of slowness last
minutes, so plain wall times of one run do not repeat.  ``RefClock`` samples
the host's speed while the program runs: a ``SIGALRM`` interval timer
interrupts the main thread every ``INTERVAL`` seconds of wall time and runs a
fixed reference probe there (``probe``: ``Fraction`` and ``dict`` work, like
the program's own inner loops).  The wall time before each probe is scaled by
the median of ``REF_PROBE_S / probe time`` over that probe and the ``WINDOW``
probes on each side of it, and the probes themselves take no reference
time.  A single probe is often delayed by an interrupt or a preemption that
the work around it did not suffer; the median leaves such a probe out but
still follows slow phases, which last seconds to minutes.  ``at(t)`` maps a
``time.perf_counter()`` reading to reference seconds: the time the same work
would take on the reference host, on which the probe takes ``REF_PROBE_S``,
when nothing else runs on it.

Because the probes sample the host's slowness at evenly spaced wall times,
the interval-weighted sum estimates the work's reference time without bias
for work that is as sensitive to contention as the probe; a sustained slow
phase slows the probes as much as the work and cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.01  # seconds of wall time between probes
WINDOW = 5  # probes on each side of a probe whose median factor it takes
# probe time on the reference host (2-core x86_64 VM, CPython 3) when idle;
# it only fixes the unit, so that reference seconds read as idle seconds
REF_PROBE_S = 0.00026


def probe():
    acc, d = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i % 13 - 6, i % 7 + 1)
        d[i % 31] = d.get(i % 31, 0) + i
    return acc


class RefClock:
    """Start with ``start()`` in the main thread, read with ``at(t)``."""

    def __init__(self):
        self.start_t = None
        self.probes = []  # (start, end) of each probe
        self._old = None
        self._knots = None

    def start(self):
        self.start_t = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.probes.append((t0, time.perf_counter()))
        self._knots = None

    def knots(self):
        """(raw times, reference times, factor of each segment after a knot)."""
        if self._knots is None:
            raw, ref, factor = [self.start_t], [0.0], []
            prev = self.start_t
            single = [REF_PROBE_S / max(t1 - t0, 1e-9) for t0, t1 in self.probes]
            for i, (t0, t1) in enumerate(self.probes):
                f = statistics.median(single[max(i - WINDOW, 0):i + WINDOW + 1])
                factor.append(f)
                raw += [t0, t1]
                ref += [ref[-1] + (t0 - prev) * f] * 2
                factor.append(0.0)  # the probe itself
                prev = t1
            self._knots = (raw, ref, factor)
        return self._knots

    def _factor(self, i):
        """Reference seconds per wall second of segment ``i`` of ``knots``."""
        raw, ref, factor = self.knots()
        if not factor:
            return 1.0
        if i < 0:
            return factor[0]
        if i >= len(factor):
            return factor[-2]  # past the last probe: the last probe's factor
        return factor[i]

    def at(self, t):
        """Reference time of the perf_counter reading ``t`` (0 at ``start``).

        Before ``start`` and after the last probe the nearest probe's factor
        applies."""
        raw, ref, _ = self.knots()
        i = bisect.bisect_right(raw, t) - 1
        return ref[max(i, 0)] + (t - raw[max(i, 0)]) * self._factor(i)

    def span(self, t0, t1):
        return self.at(t1) - self.at(t0)

    def summary(self):
        """Probe count and the median host slowness (probe time / REF_PROBE_S)."""
        times = sorted(t1 - t0 for t0, t1 in self.probes)
        return {
            "probes": len(times),
            "slowness": times[len(times) // 2] / REF_PROBE_S if times else None,
        }
