"""Process-local metrics registry: counters, gauges, histograms.

Design constraints (ISSUE 1):

* **Cheap when disabled.**  Instrumented hot paths call the module-level
  helpers (:func:`count`, :func:`gauge_set`, :func:`observe`); with the
  registry disabled each call is one attribute read and a ``return`` —
  no instrument lookup, no allocation.
* **Strict names.**  Metric names must be declared in
  :mod:`repro.obs.catalog`; an undeclared name raises ``KeyError`` so typos
  die in tests rather than silently forking a new time series.
* **Plain data out.**  :meth:`MetricsRegistry.snapshot` returns nothing but
  dicts and numbers, ready for :class:`repro.obs.report.RunReport`.
"""

from __future__ import annotations

from typing import Dict, Optional

from .catalog import CATALOG, COUNTER, GAUGE, HISTOGRAM, kind_of

__all__ = [
    "SAMPLE_CAP",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "set_registry",
    "count",
    "gauge_set",
    "observe",
]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` events (``n`` must be non-negative)."""
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


#: retained observations per histogram before deterministic decimation
SAMPLE_CAP = 4096


class Histogram:
    """Count / sum / min / max plus percentile summaries over observed values.

    Deliberately bucketless: count/sum/min/max stay exact, and percentiles
    come from a bounded sample of the raw observations.  Up to
    :data:`SAMPLE_CAP` observations are kept verbatim; past the cap every
    other retained sample is dropped and the keep-stride doubles, so the
    reduction is deterministic (no RNG) and evenly spread over the run.
    """

    __slots__ = ("name", "count", "total", "min", "max", "samples", "_stride")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: "list[float]" = []
        self._stride = 1

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if (self.count - 1) % self._stride == 0:
            self.samples.append(value)
            if len(self.samples) >= SAMPLE_CAP:
                del self.samples[1::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` (0..100) over the retained samples."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(int(-(-q * len(ordered) // 100)), 1)  # ceil(q/100 * n), >= 1
        return ordered[min(rank, len(ordered)) - 1]


_KIND_CLASSES = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}


class MetricsRegistry:
    """Named instruments, lazily created against the canonical catalogue."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._instruments: "Dict[str, object]" = {}

    # ------------------------------------------------------------------
    def _instrument(self, name: str, kind: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            declared = kind_of(name)  # KeyError on undeclared names
            if declared != kind:
                raise KeyError(f"{name} is declared as a {declared}, not a {kind}")
            instrument = _KIND_CLASSES[kind](name)
            self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._instrument(name, COUNTER)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._instrument(name, GAUGE)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._instrument(name, HISTOGRAM)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every instrument (values restart from zero)."""
        self._instruments.clear()

    def snapshot(self) -> "Dict[str, Dict]":
        """Plain-data view: ``{'counters': {...}, 'gauges': {...}, 'histograms': {...}}``."""
        counters: "Dict[str, int]" = {}
        gauges: "Dict[str, float]" = {}
        histograms: "Dict[str, Dict[str, float]]" = {}
        for name, instrument in sorted(self._instruments.items()):
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "min": instrument.min if instrument.count else 0.0,
                    "max": instrument.max if instrument.count else 0.0,
                    "mean": instrument.mean,
                    "p50": instrument.percentile(50.0),
                    "p90": instrument.percentile(90.0),
                    "p99": instrument.percentile(99.0),
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


#: the process-local default registry all instrumentation writes to
_REGISTRY = MetricsRegistry(enabled=False)


def registry() -> MetricsRegistry:
    """The process-local default registry."""
    return _REGISTRY


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = new
    return previous


# ----------------------------------------------------------------------
# hot-path helpers: one flag check, then straight back to the caller
# ----------------------------------------------------------------------
def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n`` if observability is enabled."""
    reg = _REGISTRY
    if not reg.enabled:
        return
    reg.counter(name).inc(n)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` if observability is enabled."""
    reg = _REGISTRY
    if not reg.enabled:
        return
    reg.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record ``value`` in histogram ``name`` if observability is enabled."""
    reg = _REGISTRY
    if not reg.enabled:
        return
    reg.histogram(name).observe(value)
