"""A clock in nominal seconds: measured time corrected for the host's speed.

On a shared machine the same pure-Python work can take from 0.7 to 1.4
times its usual wall time, in phases of a second to a minute, because other
tenants contend for the physical cores; process CPU time moves with wall
time, so neither can compare two commits measured minutes apart.  While a
:class:`HostClock` is entered, a ``SIGALRM`` handler runs a fixed reference
kernel every ``INTERVAL_S`` of wall time -- exact ``Fraction`` arithmetic
and tuple-keyed dict lookups, the instruction mix of ``bctk``'s inner
loops, using only the standard library -- and times it.  The clock leaves
out the time spent in the kernel and advances by ``NOMINAL_S / k`` nominal
seconds per measured second, where ``k`` is a running estimate of the
kernel's time.  Each new kernel time moves ``k`` by ``SMOOTHING`` of the way
to it, after being clamped to within a factor ``CLAMP`` of ``k``, so that one
sample that a preemption lands in shrinks the factor by at most a quarter.
The kernel runs with the garbage collector off, so that the size of the
program's heap does not reach into the kernel's time.  A faster program
reads less nominal time; a faster host reads the same.  ``NOMINAL_S`` is the
kernel's typical time on the 2-core machine the benchmark was defined on, so
nominal seconds read close to wall seconds there.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.002
INTERVAL_S = 0.025
# A new kernel time moves the estimate by SMOOTHING of the way to it, so the
# clock follows the host's bursts of about 100 ms within a few ticks.  A
# median of the last 3 or 9 kernel times followed them too slowly and left
# them in the item latency tails (lct-refute p99 up by 15 %, its spread
# doubled).
SMOOTHING = 0.3
CLAMP = 2.0  # a kernel time counts as at most CLAMP times the estimate, or 1/CLAMP

_TABLE = {(i, i % 7): Fraction(i % 97, 64) for i in range(512)}
_KEYS = tuple(_TABLE)
_HALF = Fraction(1, 2)


def reference_kernel(offset: int, steps: int = 400) -> Fraction:
    """Fixed work independent of bctk; ``offset`` varies the keys visited."""
    acc = Fraction(0)
    for j in range(offset, offset + steps):
        acc += _TABLE[_KEYS[(j * 7919) % 512]] * _HALF
    return acc


class HostClock:
    """``now()`` reads nominal seconds; only one clock may be entered at a time."""

    def __init__(self):
        self.ticks = 0
        self.kernel_s = 0.0      # measured time spent in the kernel, left out
        self.nominal = 0.0       # nominal seconds up to the last tick
        self.last = 0.0          # program time at the last tick
        self.factor = 1.0        # nominal seconds per measured second
        self.first_factor = 1.0
        self.started = 0.0       # time.monotonic() when entered
        self._estimate = None  # the kernel's recent time
        self._busy = False
        self._previous = None

    def _program_s(self) -> float:
        return time.perf_counter() - self.kernel_s

    def _tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            now = self._program_s()
            self.nominal += (now - self.last) * self.factor
            self.last = now
            begin = time.perf_counter()
            collecting = gc.isenabled()
            gc.disable()
            try:
                reference_kernel(self.ticks * 400)
                spent = time.perf_counter() - begin
            finally:
                if collecting:
                    gc.enable()
            if self._estimate is None:
                self._estimate = spent
            else:
                spent = min(max(spent, self._estimate / CLAMP), self._estimate * CLAMP)
                self._estimate += SMOOTHING * (spent - self._estimate)
            self.factor = NOMINAL_S / self._estimate
            self.ticks += 1
            self.kernel_s += time.perf_counter() - begin
        finally:
            self._busy = False

    def now(self) -> float:
        while True:
            ticks = self.ticks
            value = self.nominal + (self._program_s() - self.last) * self.factor
            if ticks == self.ticks:  # no tick landed while reading
                return value

    def measured_s(self) -> float:
        """Wall seconds since entry, kernel time left out."""
        return self._program_s() - self._start_program

    def __enter__(self) -> "HostClock":
        self.started = time.monotonic()
        self.last = self._program_s()
        self._start_program = self.last
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        for _ in range(3):  # the first reading is not a single sample
            self._tick()
        self.first_factor = self.factor
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
