"""Wall time normalized to a reference CPU speed.

On a shared host the speed of one core swings by up to ~1.7x for seconds to
minutes at a time (measured on a 2-vCPU VM: the same pure-Python loop took
10.6-16.7 ms, and CPU time swung with wall time).  Raw wall time then varies
more between runs than any bound a benchmark could usefully gate on.  So the
benchmark times a fixed reference kernel, which does not touch qopt, right
before and right after each timed region and every ``SAMPLE_PERIOD_S``
inside it, and scales each stretch between two samples to the speed at which
the kernel takes ``REFERENCE_NOMINAL_S``:

    normalized s = sum over stretches of
                   stretch wall s * REFERENCE_NOMINAL_S / mean(its two samples)

The time spent sampling inside a region is excluded from both figures.  The
kernel mixes the two kinds of work the workloads do: Python-level calls on
tiny numpy arrays, like the accelerated solver's inner loops, and
large-array numpy kernels, like the baselines' projection and LMO.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Normalized seconds are wall seconds at the speed where the kernel takes this long.
REFERENCE_NOMINAL_S = 0.010
#: Interval of the samples taken inside a timed region (from a SIGALRM timer).
SAMPLE_PERIOD_S = 0.5

perf_counter = time.perf_counter


class ReferenceClock:
    """Times regions of code in wall seconds and in normalized seconds."""

    def __init__(self, sample_inside=True):
        rng = np.random.default_rng(0)
        self._lower = np.array([-1.0, -1.0])
        self._upper = np.array([1.0, 1.0])
        self._shift = np.array([0.3, -0.1])
        self._large = rng.random(30_000)
        self.sample_inside = sample_inside
        self.sample()  # the first call pays one-time costs; keep them out of the samples
        self.last = self.sample()

    def _small_calls(self, steps=800):
        x = np.array([0.5, -0.2])
        for _ in range(steps):
            d = x - self._shift
            value, grad = float(np.dot(d, d)), d
            x = np.clip(x - 0.1 * grad, self._lower, self._upper)
            float(np.linalg.norm(x)) + value

    def _large_arrays(self, repeats=20):
        for _ in range(repeats):
            np.cumsum(np.sort(self._large))

    def sample(self):
        """Seconds the reference kernel takes right now."""
        t0 = perf_counter()
        self._small_calls()
        self._large_arrays()
        return perf_counter() - t0

    def timed(self, fn):
        """Run ``fn()``; returns (its result, wall seconds, normalized seconds).

        The last sample of one region is the first sample of the next.
        """
        marks = []  # (sample start, sample end, sample seconds)

        def tick(signum, frame):
            t0 = perf_counter()
            seconds = self.sample()
            marks.append((t0, perf_counter(), seconds))

        if self.sample_inside:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            start = perf_counter()
            result = fn()
            end = perf_counter()
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        marks = [m for m in marks if m[0] < end]
        before, self.last = self.last, self.sample()

        wall = norm = 0.0
        t, speed = start, before
        for t0, t1, seconds in marks:
            wall += t0 - t
            norm += (t0 - t) * REFERENCE_NOMINAL_S / (0.5 * (speed + seconds))
            t, speed = t1, seconds
        wall += end - t
        norm += (end - t) * REFERENCE_NOMINAL_S / (0.5 * (speed + self.last))
        return result, wall, norm
