"""How fast this machine runs Python right now, measured without the library.

On a shared host the same pure-Python work runs up to about 1.8x slower for
minutes at a time, and swings by up to 2x from one tenth of a second to the
next, while neighbours load the shared caches.  Process CPU time slows with
wall time, so it cannot tell the two apart.  The probe here walks a fixed
set of small Python lists in a fixed random order: a pointer-chasing loop
whose working set (about 40 MB) is far larger than the per-core cache, so
its time follows that contention.  Of the probes tried (Fraction Horner,
dict building, and walks over 64 K and 256 K lists), the walk over 256 K
lists tracked the library's own slowdown best.

While a pass runs, a SIGALRM handler times one short walk every
SAMPLE_EVERY_S seconds.  An operation's time, less the time spent in the
handler during it, is divided by the mean slowdown sampled during it (or,
for an operation too short to hold a sample, around it): that is its time at
the reference speed, where one walk takes REFERENCE_S seconds.  The probe
never calls the library, so a change to the library moves normalised times
as it moves raw ones.  The walk, its size, the sampling rate and REFERENCE_S
are part of the benchmark's definition: change them and every recorded
baseline is void.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

WALK_OBJECTS = 1 << 18
WALK_STEPS = 1 << 12
SAMPLE_EVERY_S = 0.1
# Walks behind one slowdown() reading, taken before and after each set-up probe.
SETTLE_WALKS = 25
# Seconds one walk takes at the reference speed, about the fastest seen on
# the 2-core Xeon (Sapphire Rapids, 2 MB L2 per core) the benchmark was
# written on.
REFERENCE_S = 0.002


class SpeedProbe:
    def __init__(self):
        rng = random.Random(20170502)
        order = list(range(WALK_OBJECTS))
        rng.shuffle(order)
        # Successive walks take successive slices of the order, so no walk
        # finds the lists the one before it left in cache.
        self._slices = [order[k:k + WALK_STEPS] for k in range(0, WALK_OBJECTS, WALK_STEPS)]
        self._next = 0
        self._lists = [[i] for i in range(WALK_OBJECTS)]
        # Keep the lists out of the garbage collections of the code measured.
        gc.freeze()

    def walk_slowdown(self) -> float:
        """One walk's time over REFERENCE_S."""
        lists = self._lists
        steps = self._slices[self._next]
        self._next = (self._next + 1) % len(self._slices)
        t0 = time.perf_counter()
        total = 0
        for i in steps:
            total += lists[i][0]
        return (time.perf_counter() - t0) / REFERENCE_S

    def slowdown(self) -> float:
        """The machine's slowdown now: the median over SETTLE_WALKS walks."""
        return statistics.median(self.walk_slowdown() for _ in range(SETTLE_WALKS))


class Sampler:
    """Samples the slowdown every SAMPLE_EVERY_S seconds while running, and
    once at start and at stop, so every operation timed in between has a
    sample before and after it."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.starts, self.ends, self.values = [], [], []

    def _sample(self, *_):
        t0 = time.perf_counter()
        value = self.probe.walk_slowdown()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.values.append(value)

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def at_reference(self, t0: float, t1: float) -> float:
        """The time of an operation that ran from t0 to t1, less the
        sampling done during it, at the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        spent = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        inside = self.values[lo:hi] or [self.values[lo - 1], self.values[hi]]
        return (t1 - t0 - spent) / statistics.mean(inside)
