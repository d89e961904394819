"""Host speed, from a fixed piece of reference work timed around and during
each question.

The shared host this benchmark runs on changes speed by up to 2x, in CPU
time as well as in wall time, and switches between fast and slow states
within seconds, so two runs of the same code can differ by more than any
useful bound.  The benchmark therefore times a fixed piece of work,
:func:`reference`, between questions and, from a timer signal, every
``PERIOD_S`` while a question runs, and reports each question's time scaled
to a host on which that work takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / (mean reference time around and during it)

The time the sampler spends inside a question is taken out of the
question's measured time.  The reference work is exact arithmetic in Q(i)
on integer triples, with truncated series products and dict traffic, which
is what the program's own kernels do; it lives here, not in the program, so
a change to the program never changes it.  Stdlib only: nothing here
imports ``cuspfol``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from math import gcd

# Seconds the reference work takes on the host the benchmark was defined on
# (Python 3.11, shared 2-core x86-64 box) in its fast state.
NOMINAL_S = 0.0025
# Wall seconds between the reference samples taken while a question runs.
PERIOD_S = 0.1


def _qnorm(a, b, d):
    g = gcd(gcd(a, b), d)
    return (a // g, b // g, d // g) if g > 1 else (a, b, d)


def _qmul(t, u):
    a1, b1, d1 = t
    a2, b2, d2 = u
    return _qnorm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def _qadd(t, u):
    a1, b1, d1 = t
    a2, b2, d2 = u
    return _qnorm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _work():
    """Square a truncated series over Q(i) a few times, keyed in a dict."""
    n = 14
    for _ in range(5):
        f = {k: (k + 1, (-1) ** k * k, k + 2) for k in range(n)}
        for _ in range(3):
            g = {}
            for i, u in f.items():
                for j, v in f.items():
                    if i + j < n:
                        g[i + j] = _qadd(g.get(i + j, (0, 0, 1)), _qmul(u, v))
            f = g
    return f


def reference():
    """Seconds the reference work takes now.

    The garbage collector is held off meanwhile, so that the reference never
    pays for collecting the program's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """While entered, times the reference work every ``PERIOD_S`` from a
    SIGALRM handler, between :meth:`start` and :meth:`stop`.  ``samples``
    holds the reference times and ``spent`` the seconds the handler took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.active = False

    def _tick(self, signum, frame):
        if not self.active:  # between questions
            return
        start = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - start

    def start(self):
        """Sample from now on, until :meth:`stop`."""
        self._mark = (len(self.samples), self.spent)
        self.active = True

    def stop(self):
        """Stop sampling; return (samples since start, seconds they took)."""
        self.active = False
        taken, spent = self._mark
        return self.samples[taken:], self.spent - spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(times, refs, inside=None):
    """Scale ``times[i]``, measured between the reference samples ``refs[i]``
    and ``refs[i + 1]`` and with the samples ``inside[i]`` taken during it,
    to the nominal host."""
    assert len(refs) == len(times) + 1
    inside = inside or [()] * len(times)
    return [t * NOMINAL_S / statistics.fmean((refs[i], *inside[i], refs[i + 1]))
            for i, t in enumerate(times)]
