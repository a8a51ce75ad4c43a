"""Wall-clock timing corrected for the machine's current speed.

Shared virtual machines change speed by up to 2x within seconds when
their neighbours load the host: on a 2-core VM the raw wall time of the
same 50 ms of work spread by 30-45% (quartile spread over median). So
the benchmark times work through a `Clock`. While it runs, a SIGALRM
interval timer interrupts the program every PERIOD_S and the handler
times a fixed pure-Python kernel: a probe of the machine's speed, taken
in the benchmark's own thread. A timed call is then scaled by CAL_REF_S
over the median probe taken during it (widened by one period on each
side), and the time the handler spent inside the call is left out. A
stretch in which the machine ran slow is counted at reference speed;
on a quiet machine a normalised second is a wall-clock second.

Probes only run between Python bytecodes, so a long call into native
code delays them; the median over the call's window still applies.
This module imports nothing beyond the standard library, so it can time
the import of the package itself.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

# One run of `_kernel` on a quiet 2-core 2.1 GHz Xeon VM, Python 3.11.
CAL_REF_S = 5.5e-4
PERIOD_S = 0.025


def _kernel() -> None:
    s = 0.0
    d = {}
    for i in range(6000):
        s += i * 0.5
        d[i & 255] = s


class Clock:
    """Speed probes on a timer, and normalised durations of timed calls.

    A timed call is recorded as (start, end, raw seconds); `seconds`
    turns such records into normalised seconds once the probes after
    them exist, that is after `stop`.
    """

    def __init__(self):
        self.at = array("d")      # probe midpoints (perf_counter)
        self.probes = array("d")  # probe durations
        self.stolen = 0.0         # time spent in the handler so far

    def _probe(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.probes.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if signal.getitimer(signal.ITIMER_REAL)[1] == 0.0:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe(None, None)  # every window then has a probe after it

    def timed(self, sink: list, fn, *args, **kwargs):
        """Call fn, append its (start, end, raw) record to sink, return its result."""
        t0, s0 = time.perf_counter(), self.stolen
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        sink.append((t0, t1, (t1 - t0) - (self.stolen - s0)))
        return result

    def factor(self, t0: float, t1: float) -> float:
        """CAL_REF_S over the median probe of the window [t0, t1], widened."""
        lo = bisect.bisect_left(self.at, t0 - PERIOD_S)
        hi = bisect.bisect_right(self.at, t1 + PERIOD_S)
        if hi <= lo:  # no probe landed inside: take the nearest on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return CAL_REF_S / statistics.median(self.probes[lo:hi])

    def seconds(self, records) -> list[float]:
        return [raw * self.factor(t0, t1) for t0, t1, raw in records]

    def speed(self) -> float:
        """Median machine speed over the whole run, 1.0 at reference speed."""
        return CAL_REF_S / statistics.median(self.probes)
