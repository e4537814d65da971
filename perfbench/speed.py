"""The CPU's speed, measured beside the work it is compared with.

The host's speed drifts (see README.md, "Host speed"), so each timing is
also given at a fixed reference speed.  A burst is a fixed pure-Python
loop; the speed is proportional to 1 / burst.  A time at the reference
speed is wall seconds times REFERENCE_BURST_S * mean(1 / burst) over the
bursts taken on the same CPU while, or just before and after, the work
ran: the time the work would take where a burst takes REFERENCE_BURST_S.
"""

import statistics
import threading
import time

BURST_ROUNDS = 120
REFERENCE_BURST_S = 0.0005
SAMPLE_EVERY_S = 0.1

clock = time.perf_counter


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b


_POINTS = [_Point(i, 1) for i in range(64)]


def burst():
    """Seconds a fixed loop of small method calls takes on this CPU now.

    Of the loops tried (integer arithmetic, dict and list walks of several
    sizes, method calls), this one's slowdown tracked that of `eval` and
    `verify all` most closely: a log-log slope of 1.0 against eval batches.
    """
    t0 = clock()
    acc = 0
    for _ in range(BURST_ROUNDS):
        for p in _POINTS:
            acc += p.at(2)
    return clock() - t0


def scale(bursts):
    """The factor that turns wall seconds into reference seconds."""
    return REFERENCE_BURST_S * statistics.fmean(1 / b for b in bursts)


def timed(fn):
    """fn(), its wall seconds and its reference seconds, with one burst
    just before it and one just after."""
    b0 = burst()
    t0 = clock()
    out = fn()
    seconds = clock() - t0
    return out, seconds, seconds * scale((b0, burst()))


class SpeedSampler:
    """Bursts on this process's CPU, one every SAMPLE_EVERY_S until stop(),
    which returns scale() over them: the factor for a child process that
    ran meanwhile on the same CPU.  The bursts take about 1% of the CPU."""

    def __init__(self):
        self.bursts = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            self.bursts.append(burst())
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def stop(self):
        self._stop.set()
        self._thread.join()
        self.bursts.append(burst())
        return scale(self.bursts)
