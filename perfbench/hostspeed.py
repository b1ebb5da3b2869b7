"""Host-speed correction for op times.

The benchmark runs on shared virtual machines whose speed drifts: the
same op on the same input can take 1.6 times as long from one ten-second
stretch to the next, and a run's wall-clock median moves with the host,
not with the program.  To take the host out of the figure, a fixed piece
of interpreter work (``reference``, which calls no ardtk code) is timed
every ``INTERVAL_S`` seconds of wall time while an op runs, from a
SIGALRM handler, and once just before the op starts.  The op's corrected
time is its wall time, less the time spent in the handler, scaled by the
mean of ``NOMINAL_S / sample`` over its samples:

    corrected = (wall - sampling) * mean(NOMINAL_S / s for s in samples)

which is the op's time on a host that runs the reference in exactly
``NOMINAL_S``.  A change that makes the program slower raises it in
proportion; a host that slows everything down raises the samples and
the wall time together and leaves it where it was.

Python runs a signal handler only between bytecodes of the main thread,
so a long numpy call delays a sample but is never interrupted.
"""
from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.05
# a unit, not a measurement: about what the reference took on the 2-vCPU
# Xeon guest the baseline was measured on, in its fast spells, so that
# corrected times there read close to wall times
NOMINAL_S = 0.0006
_ITERS = 1000


def reference() -> int:
    """A fixed amount of pure-Python integer work, shaped like an
    arithmetic coder's inner loop (the interpreter work ardtk spends most
    of its time in)."""
    lo, hi, shifts = 0, 0xFFFFFFFF, 0
    for i in range(_ITERS):
        mid = lo + ((hi - lo) * (13000 if i & 4 else 40000) >> 16)
        if (i * 2654435761) & 0x100:
            hi = mid
        else:
            lo = mid + 1
        while (lo ^ hi) & 0x80000000 == 0:
            lo = (lo << 1) & 0xFFFFFFFF
            hi = ((hi << 1) & 0xFFFFFFFF) | 1
            shifts += 1
    return shifts


class SpeedSampler:
    """Times ``reference`` before and during each op; see the module
    docstring.  Use as a context manager around one op, then read
    ``corrected(wall)``."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: "list[float]" = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples.clear()
        reference()  # untimed, so the first sample does not run cold code
        self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def corrected(self, wall: float) -> float:
        """The op's wall time with the sampling taken out, at the nominal
        host speed."""
        scale = sum(NOMINAL_S / s for s in self.samples) / len(self.samples)
        return (wall - self.spent) * scale
