"""A fixed pure-Python loop that measures how fast the machine runs right now.

The host this benchmark was sized on shares its cores with other tenants:
the same verify run takes anywhere from 1x to 1.8x its uncontended time,
in episodes lasting from seconds to minutes, so medians of raw wall time
moved by 20-55% between runs.  The benchmark therefore runs this loop a few
times before and after each sample it measures and reports times at a
reference speed:

    reported = median over samples of
               sample time * REFERENCE_S / median(loop times around the sample)

The loop imitates the program's hot path (tuple building, float conversion,
type checks and pairwise absolute differences) but calls none of its code,
so a change to the program moves the reported time and a change in the
machine's speed cancels out.  REFERENCE_S is the loop's time on that host
when uncontended, so reported times read as uncontended seconds there.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.014

_POINTS = tuple(((i * 37) % 200 - 100.0, (i * 11) % 200 - 100.0, (i * 7) % 200 - 100.0)
                for i in range(64))


def _canon(p):
    if not isinstance(p, (tuple, list)):
        raise TypeError(f"expected a point, got {p!r}")
    return tuple(float(c) for c in p)


def _pair_sum(pts):
    total = 0.0
    for i, xi in enumerate(pts):
        for xj in pts[i + 1:]:
            for a, b in zip(xi, xj):
                total += abs(a - b)
    return total


def loop_seconds() -> float:
    """Wall time of one pass of the calibration loop."""
    start = perf_counter()
    total = 0.0
    for _ in range(150):
        for i in range(0, 60, 4):
            total += _pair_sum(tuple(_canon(p) for p in _POINTS[i:i + 4]))
    elapsed = perf_counter() - start
    if total <= 0.0:
        raise RuntimeError("calibration loop computed nothing")
    return elapsed


def speed_factor(loop_times: list[float]) -> float:
    """Factor taking a time measured amid `loop_times` to the reference speed."""
    return REFERENCE_S / statistics.median(loop_times)


class Sampler:
    """Times samples with `passes` calibration passes before and after each."""

    def __init__(self, passes: int):
        self.passes = passes
        self.times: list[float] = []
        self.factors: list[float] = []
        self._before = self._loops()

    def _loops(self) -> list[float]:
        return [loop_seconds() for _ in range(self.passes)]

    def add(self, seconds: float):
        """Record a sample that has just been timed."""
        after = self._loops()
        self.times.append(seconds)
        self.factors.append(speed_factor(self._before + after))
        self._before = after

    def at_reference_speed(self) -> float:
        """Median over samples of each time scaled by its own speed factor."""
        return statistics.median(t * f for t, f in zip(self.times, self.factors))
