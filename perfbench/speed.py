"""Host-speed normalisation of the benchmark's times.

On a shared host the speed of one CPU wanders: the same pure-Python work
runs 20% faster or slower for stretches of a few seconds, and sets of runs
twenty minutes apart differ by a third.  Timing the reasoner alone cannot
tell that drift from a change of code.  So while the reasoner runs, a
SIGALRM handler in the same process times a fixed pure-Python loop of about
a tenth of a millisecond every 10 ms (the probe), and each timed path is
scaled by how fast the probe ran around it:

    normalised = (elapsed - probe time inside it) * REFERENCE_PROBE_S / probe

where `probe` is the typical probe time over the path (widened to at least
MIN_PROBES samples around its midpoint): the mean of its fastest three
quarters.  A probe is short, so a stall of the whole vCPU or a cache the
reasoner has just churned through multiplies a few samples many times over;
a plain mean of the window followed those more than the host's speed, and a
median jumped between the two modes of the samples.  The result is in
seconds on a host whose probe takes REFERENCE_PROBE_S; on the 2-vCPU Xeon
host the benchmark was built on that is about its own speed, so normalised
and raw seconds are of the same size there.  The probe costs about 1% of the run and its own
time is taken out of every path.  A dense probe tracks the host better than
a sparse one: at one probe every 50 ms, the scaled times of single corpus
inputs spread about half as much again as at one every 10 or 20 ms.
Set-up cannot hold a signal handler while the interpreter starts, so it is
scaled by probe bursts run just before and just after each spawn.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01
# about the typical probe time on the reference host; fixes the scale of the
# normalised times, not how two runs compare
REFERENCE_PROBE_S = 0.0001
MIN_PROBES = 20
BURST = 200

# the loop writes into a fixed list of ints, so it allocates no object the
# garbage collector tracks and never starts a collection in the reasoner
_SLOTS = [0] * 512


def probe_once() -> float:
    start = time.perf_counter()
    s = 0
    slots = _SLOTS
    for i in range(1000):
        s += i * i % 7
        slots[i & 511] = s
    return time.perf_counter() - start


def burst() -> list[float]:
    return [probe_once() for _ in range(BURST)]


def typical(durations) -> float:
    """Mean of the fastest three quarters of the probe durations."""
    xs = sorted(durations)
    return statistics.fmean(xs[: max(1, len(xs) - len(xs) // 4)])


class Probe:
    """Times probe_once every PERIOD_S from SIGALRM; samples are (start, s)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, probe_once()))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def normalise(start: float, end: float, samples: list[tuple[float, float]]) -> tuple[float, float]:
    """(raw, normalised) seconds of the span [start, end].

    raw excludes the probes that ran inside the span; samples are sorted by
    start, as Probe records them.
    """
    starts = [s for s, _ in samples]
    lo = bisect.bisect_left(starts, start)
    hi = bisect.bisect_right(starts, end)
    raw = (end - start) - sum(d for _, d in samples[lo:hi])
    if hi - lo < MIN_PROBES:
        # widen to the MIN_PROBES samples nearest the span
        mid = (start + end) / 2
        centre = bisect.bisect_left(starts, mid)
        lo = max(0, min(centre - MIN_PROBES // 2, len(samples) - MIN_PROBES))
        hi = min(len(samples), lo + MIN_PROBES)
    if hi <= lo:
        raise ValueError("no probe samples to normalise by")
    probe = typical(d for _, d in samples[lo:hi])
    return raw, raw * REFERENCE_PROBE_S / probe
