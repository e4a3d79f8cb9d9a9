"""Host-speed reference: times measured in reference seconds.

On a shared host the speed of one core swings by up to 2x over tens of seconds
(other tenants contending for the core); CPU time slows with wall time, so
neither clock is steady.  The slowdown hits all interpreted Python alike: a
fixed pure-Python reference computation slows by the same factor as the
package does (their time ratio stayed within a few percent while raw times
doubled).

``HostClock`` runs a short reference on a SIGALRM interval timer, so host speed
is sampled inside long items too, and converts a raw interval into reference
seconds: the raw time minus the time spent sampling, times the mean over the
samples taken in the interval of ``REF_SAMPLE_S`` over the sample's time.  One
reference second is one second on a core that runs the reference in
``REF_SAMPLE_S``.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import fmean, median
from time import perf_counter

# One reference sample on an uncontended core of the 2-vCPU Xeon VM this
# benchmark was calibrated on (CPython 3.11); it fixes the unit, nothing else.
REF_SAMPLE_S = 0.0006
INTERVAL_S = 0.1


def _reference() -> int:
    """Exact Fraction elimination plus tuple-keyed table lookups: the package's
    hot operations, in code the package cannot change."""
    m = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(6)]
         for i in range(5)]
    for c in range(5):
        p = next((r for r in range(c, 5) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for r in range(5):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    table = {(a, b): (a + b) % 17 for a in range(17) for b in range(17)}
    acc = 0
    for a in range(17):
        for b in range(17):
            acc += table.get((table[(a, b)], b), 0)
    return acc + sum(x.numerator for row in m for x in row)


class HostClock:
    """Samples the reference every ``INTERVAL_S`` while entered.

    ``mark()`` before and after an interval, then ``convert`` its raw seconds.
    """

    def __init__(self):
        self.samples: list[float] = []   # raw seconds per reference run
        self.spent = 0.0                 # raw seconds spent sampling

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal) -> None:
        # The first run refills the caches the package's work evicted, so the
        # timed second run measures the host, not the package's memory use.
        start = perf_counter()
        _reference()
        mid = perf_counter()
        _reference()
        self.samples.append(perf_counter() - mid)
        self.spent += perf_counter() - start

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def convert(self, before: tuple[int, float], after: tuple[int, float],
                raw: float) -> float:
        """Reference seconds of a raw interval between two marks.

        An interval too short to hold a sample uses the last three samples.
        """
        (i0, spent0), (i1, spent1) = before, after
        window = self.samples[i0:i1] or self.samples[max(0, i1 - 3):i1]
        return (raw - (spent1 - spent0)) * fmean(REF_SAMPLE_S / d for d in window)

    def slowdown(self) -> float:
        """Median reference time over ``REF_SAMPLE_S``: 1.0 on an idle core."""
        return median(self.samples) / REF_SAMPLE_S
