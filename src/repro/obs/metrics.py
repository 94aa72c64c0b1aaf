"""A registry of counters, gauges, and histograms.

Each :class:`~repro.engine.TuningEngine` owns one :class:`MetricsRegistry`
(stage wall times are ``stage.<name>`` histograms, cache traffic and
alternative generations are counters), and the same instance can be
installed process-wide so instrumentation sites without engine access —
the cleanup driver's rewrite counts, the filters' survivor counts, the
simulator's per-alternative times — record into it too. The engine
records its own events only into its registry, so installing it counts
nothing twice. The module-level helpers
(:func:`inc`, :func:`observe`, :func:`set_gauge`) are no-ops when no
registry is installed, mirroring the tracer's fast path.

All instruments are thread-safe: the jobs of a thread-isolated
``repro serve`` daemon may record from several threads at once.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_lock", "value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down; keeps the last set value."""

    __slots__ = ("name", "_lock", "value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Streaming summary of observed values: count/total/min/max plus
    percentile estimates (p50/p90) from a bounded sample reservoir.

    The reservoir is deterministic (no RNG, so runs reproduce exactly):
    when it fills, every other sample is dropped and the keep-stride
    doubles, so it always holds an evenly-strided subsequence of the
    observation stream, bounded at :data:`SAMPLE_CAP` values.
    """

    __slots__ = ("name", "_lock", "count", "total", "min", "max",
                 "_samples", "_stride")

    #: bound on retained samples per histogram
    SAMPLE_CAP = 4096

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: list = []
        self._stride = 1

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            if self.count % self._stride == 0:
                self._samples.append(value)
                if len(self._samples) > self.SAMPLE_CAP:
                    self._samples = self._samples[::2]
                    self._stride *= 2
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @staticmethod
    def _rank(ordered: list, q: float) -> float:
        """Nearest-rank percentile over an already-sorted sample list."""
        if not ordered:
            return 0.0
        index = max(0, min(len(ordered) - 1,
                           int(-(-q * len(ordered) // 1)) - 1))
        return ordered[index]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate, ``q`` in (0, 1]."""
        with self._lock:
            ordered = sorted(self._samples)
        return self._rank(ordered, q)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            ordered = sorted(self._samples)
            return {"count": self.count, "total": self.total,
                    "mean": self.total / self.count if self.count else 0.0,
                    "min": self.min if self.min is not None else 0.0,
                    "p50": self._rank(ordered, 0.50),
                    "p90": self._rank(ordered, 0.90),
                    "max": self.max if self.max is not None else 0.0}


class MetricsRegistry:
    """Get-or-create home for named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    # -- read-side views -----------------------------------------------------

    def counter_value(self, name: str) -> int:
        """A counter's value without creating it (0 when absent)."""
        with self._lock:
            instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def counter_values(self) -> Dict[str, int]:
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    def gauge_values(self) -> Dict[str, float]:
        with self._lock:
            return {name: g.value for name, g in self._gauges.items()}

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            instruments = list(self._histograms.values())
        return {h.name: h.summary() for h in instruments}

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-data view of every instrument, for export/JSON."""
        return {"counters": self.counter_values(),
                "gauges": self.gauge_values(),
                "histograms": self.histogram_summaries()}

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        with self._lock:
            return "MetricsRegistry(%d counters, %d gauges, %d histograms)" \
                % (len(self._counters), len(self._gauges),
                   len(self._histograms))


#: the process-wide registry for engine-less instrumentation sites
_active: Optional[MetricsRegistry] = None


def install(registry: MetricsRegistry) -> MetricsRegistry:
    global _active
    _active = registry
    return registry


def uninstall() -> None:
    global _active
    _active = None


def current() -> Optional[MetricsRegistry]:
    return _active


def enabled() -> bool:
    return _active is not None


def inc(name: str, amount: int = 1) -> None:
    """Bump a counter on the installed registry; no-op when none."""
    registry = _active
    if registry is not None:
        registry.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record into a histogram on the installed registry; no-op when none."""
    registry = _active
    if registry is not None:
        registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    registry = _active
    if registry is not None:
        registry.gauge(name).set(value)


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None
               ) -> Iterator[MetricsRegistry]:
    """Install a registry for the duration of the block, then restore."""
    global _active
    previous = _active
    _active = registry if registry is not None else MetricsRegistry()
    try:
        yield _active
    finally:
        _active = previous
