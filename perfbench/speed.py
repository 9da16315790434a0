"""How fast the machine runs interpreter work, sampled while operations run.

On a shared machine the speed available to one process changes with load
outside it: on a 2-vCPU Intel Xeon virtual machine it switched between two
levels about 1.75x apart, for seconds at a time. A fixed piece of
pure-Python work, timed every PROBE_INTERVAL_S from a SIGALRM handler,
tracks that speed. An operation's latency, less the probe's own time
inside it, scaled by REF_PROBE_S over the mean probe time around the
operation, reads in reference seconds: the seconds it would take where the
probe takes REF_PROBE_S. Those stay comparable from run to run. The probe
never touches cogex, so the program under test cannot move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# The probe's time on the machine above, so that reference seconds read
# close to the seconds measured there.
REF_PROBE_S = 0.0005
PROBE_INTERVAL_S = 0.05
# Speed is averaged over this much time either side of an operation: long
# enough to smooth the noise of single probes, short next to the seconds a
# speed level lasts.
PROBE_WINDOW_S = 0.25


_TABLE = {(i * 7919) % 65521: (i, i ^ 0x5555) for i in range(8000)}
_KEYS = [(i * 7919) % 65521 for i in range(0, 8000, 8)]


def probe_work() -> None:
    """Dict lookups spread over a table, then a sort of fresh tuples: the
    mix of memory access and allocation that cogex's DP and oracle do.  The
    garbage collector is off meanwhile, so the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0
        for k in _KEYS:
            a, b = _TABLE[k]
            acc += (a & b).bit_count()
        sorted([(i * 7919 % 1009, i) for i in range(800)])
    finally:
        if enabled:
            gc.enable()


def time_probe() -> float:
    t0 = perf_counter()
    probe_work()
    return perf_counter() - t0


class SpeedProbe:
    """Samples (start, duration) of the probe work while the context is open."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        probe_work()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()


def reference_latencies(intervals: list[tuple[float, float]],
                        samples: list[tuple[float, float]]) -> list[float]:
    """Each (start, end) interval's length in reference seconds.

    The probe's own time inside the interval is removed; the rest is scaled
    by REF_PROBE_S over the mean probe time from PROBE_WINDOW_S before the
    start to PROBE_WINDOW_S after the end (the nearest sample if none falls
    there).
    """
    starts = [t for t, _ in samples]
    out = []
    for a, b in intervals:
        near = samples[bisect_left(starts, a - PROBE_WINDOW_S):
                       bisect_right(starts, b + PROBE_WINDOW_S)]
        if not near:
            near = [min(samples, key=lambda s: abs(s[0] - a))]
        inside = sum(d for t, d in near if a <= t <= b)
        speed = statistics.fmean(d for _, d in near)
        out.append((b - a - inside) * REF_PROBE_S / speed)
    return out
