"""Counters, gauges, and histograms for the runtime layers.

A :class:`MetricsRegistry` is a named collection of three instrument
kinds:

* :class:`Counter` — monotone accumulator (states explored, transitions
  taken, budget consumed, linearization checks);
* :class:`Gauge` — last-write-wins value (hook-search depth, frontier
  size);
* :class:`Histogram` — streaming count/total/min/max summary of observed
  samples (step durations from :mod:`repro.obs.profile`).

``snapshot()`` exports everything as a plain nested dict, ready for JSON
or table rendering (:func:`render_metrics_table`).  The disabled
singleton :data:`NULL_METRICS` hands out shared no-op instruments, so
uninstrumented callers pay one dict lookup and an empty method call at
most — instrumented hot loops additionally guard on ``metrics.enabled``.
"""

from __future__ import annotations

import math
from typing import Any, Dict


class Counter:
    """A monotone counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value


def percentile(sorted_samples, q: float) -> float:
    """Linear-interpolated quantile ``q`` of an ascending sample list."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample list")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    position = q * (len(sorted_samples) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return sorted_samples[lower]
    weight = position - lower
    return sorted_samples[lower] * (1 - weight) + sorted_samples[upper] * weight


class Histogram:
    """A streaming summary of observed samples.

    Besides the exact count/total/min/max, the histogram retains a
    bounded sample set for quantiles: every ``_stride``-th observation
    is kept, and when the retained set hits :data:`SAMPLE_CAP` it is
    decimated (every other sample dropped, stride doubled).  Quantiles
    are therefore exact up to ``SAMPLE_CAP`` observations and a uniform
    thinning beyond — deterministic, no RNG involved.
    """

    SAMPLE_CAP = 8192

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_stride")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list = []
        self._stride = 1

    def observe(self, sample: float) -> None:
        if self.count % self._stride == 0:
            samples = self._samples
            samples.append(sample)
            if len(samples) >= self.SAMPLE_CAP:
                del samples[::2]
                self._stride *= 2
        self.count += 1
        self.total += sample
        if sample < self.min:
            self.min = sample
        if sample > self.max:
            self.max = sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Interpolated quantile from the retained samples (None if empty)."""
        if not self._samples:
            return None
        return percentile(sorted(self._samples), q)

    def summary(self) -> dict:
        retained = sorted(self._samples)
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": percentile(retained, 0.50) if retained else None,
            "p95": percentile(retained, 0.95) if retained else None,
            "p99": percentile(retained, 0.99) if retained else None,
        }


class MetricsRegistry:
    """A named registry of counters, gauges, and histograms.

    Instruments are created on first access and shared thereafter, so
    independent layers accumulate into the same counter by agreeing on a
    name (dotted names by convention: ``explore.states``,
    ``hook.outer_iterations``, ``refute.silenced_steps``).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> dict:
        """All instruments as a plain nested dict."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument (a fresh registry without re-plumbing)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, sample: float) -> None:
        pass


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: hands out shared no-op instruments."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        return self._null_histogram


#: The shared disabled registry; instrumentation parameters default to it.
NULL_METRICS: MetricsRegistry = NullMetricsRegistry()

def render_metrics_table(snapshot: dict) -> str:
    """Render a ``snapshot()`` dict as an aligned text table."""
    rows: list[tuple[str, str, str]] = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append(("counter", name, str(value)))
    for name, value in snapshot.get("gauges", {}).items():
        rows.append(("gauge", name, str(value)))
    for name, summary in snapshot.get("histograms", {}).items():
        rendered = (
            f"count={summary['count']} total={summary['total']:.6g} "
            f"mean={summary['mean']:.6g}"
        )
        if summary.get("p50") is not None:
            rendered += (
                f" p50={summary['p50']:.6g} p95={summary['p95']:.6g} "
                f"p99={summary['p99']:.6g}"
            )
        rows.append(("histogram", name, rendered))
    if not rows:
        return "(no metrics recorded)"
    name_width = max(len(name) for _, name, _ in rows)
    lines = [
        f"{kind:9}  {name:<{name_width}}  {value}" for kind, name, value in rows
    ]
    return "\n".join(lines)
