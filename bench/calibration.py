"""Machine-speed calibration for timings taken on a shared machine.

Other tenants of the test machine slow everything in a process by up to
about 1.8x, for stretches of one to tens of seconds, and a median over
a whole run moved by 15-20% from run to run.  calibrate() times a fixed
piece of work that never calls the library: Python loops with tuple
churn and small numpy calls, like the library's own code, which slow
down by about the same factor.  A latency t is reported as
t * REFERENCE_S / c, where c is the median of the calibrations taken
during the request and next to it: its value on a machine where the
calibration takes REFERENCE_S.
"""

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 100e-6
TICK_S = 0.02     # a request longer than this is calibrated while it runs
NEIGHBOURS = 2    # calibrations on each side of a request
_POLY = np.array([1.0, -2.0, 0.5, 3.0])


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(300):
        t = (k * 0.5, k + 1.0, -k, 2.0)
        acc += t[0] * t[1] - t[2] * t[3]
    for _ in range(4):
        acc += float(np.polyval(_POLY, 0.5))
    return time.perf_counter() - start


class Calibrator:
    """Calibrations taken on demand and, while active, every TICK_S seconds.

    The timer runs calibrate() in a SIGALRM handler, between bytecodes
    of whatever the main thread is doing, so a long request gets
    calibrations from inside it.  Their time is taken out of the
    request's latency again.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def sample(self, *_signal_args):
        if self._busy:  # a tick that lands in an on-demand calibration
            return
        self._busy = True
        try:
            duration = calibrate()
            self.ends.append(time.perf_counter())
            self.durations.append(duration)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def latency(self, start: float, end: float) -> float:
        """Calibrated latency of a request that ran from start to end."""
        a = bisect.bisect_left(self.ends, start)
        b = bisect.bisect_right(self.ends, end)
        inside = sum(self.durations[a:b])
        around = self.durations[max(0, a - NEIGHBOURS):b + NEIGHBOURS]
        return (end - start - inside) * REFERENCE_S / statistics.median(around)
