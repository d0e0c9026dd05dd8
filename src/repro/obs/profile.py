"""Timers feeding the metrics registry.

:func:`timed` is a context manager observing the elapsed wall time of a
block into a named histogram of the run's registry::

    with timed(metrics, "refute.seconds"):
        verdict = refute_candidate(system, metrics=metrics)

Elapsed time is observed even when the block raises, so budget-exhausted
runs still report how long they ran — the property the CLI's
budget-exhaustion path relies on.
"""

from __future__ import annotations

from time import perf_counter

from .metrics import Histogram, MetricsRegistry


class Timer:
    """A reusable context-manager stopwatch.

    ``elapsed`` holds the duration of the most recent ``with`` block; if
    a histogram is attached, each block observes into it on exit
    (including exceptional exit).
    """

    __slots__ = ("histogram", "elapsed", "_started")

    def __init__(self, histogram: Histogram | None = None) -> None:
        self.histogram = histogram
        self.elapsed = 0.0
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = perf_counter() - self._started
        if self.histogram is not None:
            self.histogram.observe(self.elapsed)


def timed(metrics: MetricsRegistry, name: str) -> Timer:
    """A timer observing into ``metrics.histogram(name)`` on block exit."""
    return Timer(metrics.histogram(name))

