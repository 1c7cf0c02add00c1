"""Machine-speed calibration of measured times.

On a shared host the speed of one core drifts by up to 1.6x, in stretches
that last from a fraction of a second to minutes, so raw times of identical
runs disagree by more than any useful regression bound.  ``Clock`` times a
fixed kernel next to the measured work and rescales each measured interval
by

    K_REF / median kernel time around the interval

The result is in seconds at the reference speed: how long the interval
would have taken had the kernel run at K_REF.  The kernel is part of the
benchmark, never of the program, so a change to the program cannot move it.

Kernel samples come from two places.  One is taken between operations, after
every CAL_GAP seconds of measured work, so a short operation is judged by the
samples just before and just after it.  An interval timer also runs the
kernel every PERIOD seconds inside operations, so a long one (seconds, at
c_rank 8) is judged by the speed while it ran; the time of those samples is
taken out of the interval.
"""

import gc
import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

# Seconds one kernel run takes on the reference machine in its fast state
# (a 2-core x86-64 VM, Python 3.11).  It fixes the unit of calibrated times
# and never changes: both sides of a comparison use the same constant.
K_REF = 0.001
CAL_GAP = 0.02
PERIOD = 0.1


class _Reflection:
    __slots__ = ("t", "f")

    def __init__(self, t, f):
        self.t = t
        self.f = f

    def __mul__(self, other):
        return _Reflection(self.t - other.t if self.f else self.t + other.t,
                           self.f ^ other.f)


def kernel():
    """Fixed work of the kinds the program does: small integer matrix
    products, rational scaling, big-integer arithmetic, and memoised
    products of small objects."""
    n = 6
    a = [[(i * 7 + j * 3) % 5 - 2 for j in range(n)] for i in range(n)]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(12):
        m = [[sum(r[k] * a[k][j] for k in range(n)) % 1000003
              for j in range(n)] for r in m]
    scale = Fraction(1, 1 << 16)
    total = sum((scale * Fraction(x, 3) for x in m[0] * 4), Fraction(0))
    x = (1 << 300) + 12345
    for k in range(200):
        x = (x * 3 + k) ^ (x >> 5)
    memo = {}
    vals = [_Reflection(k, k & 1) for k in range(8)]
    for step in range(600):
        key = step % 97
        if key not in memo:
            memo[key] = vals[step % 8] * vals[(step * 3) % 8]
        vals[step % 8] = memo[key] * vals[(step + 1) % 8]
    return total, x, vals


def timed_kernel():
    """(start, end) of one kernel run.  Garbage collection is held off so
    that a collection owed to the measured work does not land in the sample;
    it runs at the work's next allocation instead."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    if collecting:
        gc.enable()
    return t0, t1


class Clock:
    """Calibrates intervals of this process.  ``add`` registers a measured
    interval and returns a ticket; ``seconds`` gives its calibrated length
    (or that of a sub-interval) once the ``with`` block has ended."""

    def __init__(self):
        self.starts = []  # interval-timer samples, in time order
        self.ends = []
        self.between = []  # kernel seconds of the samples between intervals
        self._tickets = []  # [start, end, kernel seconds]
        self._open = 0
        self._since = 0.0
        self._handler = None

    def __enter__(self):
        self.between.append(self._between())
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.flush()

    def _tick(self, signum, frame):
        t0, t1 = timed_kernel()
        self.starts.append(t0)
        self.ends.append(t1)

    def _between(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        try:
            t0, t1 = timed_kernel()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])
        return t1 - t0

    def add(self, start, end):
        self._tickets.append([start, end, None])
        self._since += end - start
        if self._since >= CAL_GAP:
            self.flush()
        return len(self._tickets) - 1

    def flush(self):
        """Take a sample between intervals; it closes every open ticket."""
        if self._open == len(self._tickets):
            return
        self.between.append(self._between())
        bracket = self.between[-2:]
        for ticket in self._tickets[self._open:]:
            lo, hi = self._inside(ticket[0], ticket[1])
            inner = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
            ticket[2] = statistics.median(bracket + inner)
        self._open = len(self._tickets)
        self._since = 0.0

    def _inside(self, start, end):
        """Index range of the timer samples that ran inside [start, end]."""
        return bisect_left(self.starts, start), bisect_left(self.ends, end)

    def seconds(self, ticket, start=None, end=None):
        """Calibrated seconds of a ticket's interval, or of [start, end]
        within it, less the timer samples that ran inside."""
        t_start, t_end, kernel_seconds = self._tickets[ticket]
        start = t_start if start is None else start
        end = t_end if end is None else end
        lo, hi = self._inside(start, end)
        busy = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return (end - start - busy) * K_REF / kernel_seconds
