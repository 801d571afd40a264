"""A registry of labelled counters, gauges and histograms, one per context.

Every tier counts here under one naming scheme (``tier.metric`` plus
labels, Prometheus-style).  A :class:`~repro.core.scoop.ScoopContext`
hands its registry to its tiers at construction
(:class:`~repro.obs.Telemetry`); a tier built on its own gets a private
one.  The registry is the only writer: the per-tier bundles
(``TransferMetrics``, ``ClientStats``, the cluster's ``counters``,
``SandboxStats``) are views of its series (:class:`CounterView`).

Thread-safety: one leaf lock guards all three maps; it is held for
dict arithmetic only, never across I/O (docs/concurrency.md).
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default fixed buckets (upper bounds, seconds) for wall-clock latency
#: histograms: roughly exponential from 1 ms to 5 minutes, chosen so the
#: benchmark harness's per-point timings land in distinct buckets at
#: both laptop and CI speeds.  Values above the last bound fall into an
#: implicit ``+inf`` overflow bucket.
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Default fixed buckets (upper bounds, seconds) for *simulated* run
#: durations, which span three orders of magnitude (a pushed-down 50 GB
#: query takes a few seconds; a plain 3 TB ingest takes thousands).
SIMULATED_SECONDS_BUCKETS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Entries every in-memory decision or invocation log keeps (the
#: delegator's, the placement engine's, a sandbox's);
#: the oldest leave first.  Totals live in the registry, not in a log.
LOG_LENGTH = 1024


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


@dataclass
class HistogramStats:
    """Summary statistics for one labelled histogram series.

    With ``buckets`` (a sorted tuple of upper bounds) every observation
    is also counted into a fixed bucket -- plus an implicit ``+inf``
    overflow bucket -- which makes percentile *estimation* possible
    without retaining samples (the Prometheus histogram model).  Without
    buckets the series keeps summary stats only, exactly as before.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))
    #: Sorted upper bounds of the fixed buckets (empty = unbucketed).
    buckets: Tuple[float, ...] = ()
    #: Per-bucket observation counts; one extra slot for ``+inf``.
    bucket_counts: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Normalize the bucket bounds and size the count vector."""
        if self.buckets:
            self.buckets = tuple(sorted(self.buckets))
            if not self.bucket_counts:
                self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        """Record one sample (and count it into its fixed bucket)."""
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if self.buckets:
            self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1

    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> Optional[float]:
        """Estimate the ``quantile`` (in [0, 1]) from the fixed buckets.

        Uses the Prometheus ``histogram_quantile`` model: find the first
        bucket whose cumulative count covers the target rank and
        interpolate linearly within it, clamping to the observed
        min/max so estimates never leave the data's actual range.
        Returns ``None`` for an unbucketed or empty series.
        """
        if not self.buckets or not self.count:
            return None
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {quantile}")
        target = quantile * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                lower = self.buckets[index - 1] if index > 0 else min(
                    self.minimum, self.buckets[0]
                )
                upper = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else self.maximum
                )
                estimate = lower + (upper - lower) * max(0.0, fraction)
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += bucket_count
        return self.maximum

    def percentiles(self) -> Optional[Dict[str, float]]:
        """The reporting trio -- ``{"p50": .., "p95": .., "p99": ..}`` --
        or ``None`` for an unbucketed/empty series."""
        if not self.buckets or not self.count:
            return None
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Summary stats as JSON-ready data (plus buckets/percentiles
        when the series is bucketed)."""
        if not self.count:
            base: Dict[str, Any] = {
                "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            }
        else:
            base = {
                "count": self.count,
                "total": self.total,
                "min": self.minimum,
                "max": self.maximum,
                "mean": self.mean(),
            }
        if self.buckets:
            base["buckets"] = list(self.buckets)
            base["bucket_counts"] = list(self.bucket_counts)
            quantiles = self.percentiles()
            if quantiles is not None:
                base.update(quantiles)
        return base


class MetricsRegistry:
    """Counters (monotonic), gauges (last value) and histograms, all
    keyed by ``(name, sorted labels)``."""

    def __init__(self):
        """Create an empty registry with no declared bucket layouts."""
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, LabelKey], float] = {}
        self._histograms: Dict[Tuple[str, LabelKey], HistogramStats] = {}
        self._bucket_layouts: Dict[str, Tuple[float, ...]] = {}

    # -- write side ---------------------------------------------------------

    def declare_histogram(
        self, name: str, buckets: Sequence[float]
    ) -> None:
        """Fix the bucket upper bounds for every series of ``name``.

        Series created by later :meth:`observe` calls count samples into
        these buckets, enabling :meth:`HistogramStats.percentile`
        reporting.  Declaring is idempotent for identical bounds;
        changing the bounds of an already-declared name raises (bucket
        counts would silently stop being comparable).
        """
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("declare_histogram needs at least one bound")
        with self._lock:
            existing = self._bucket_layouts.get(name)
            if existing is not None and existing != bounds:
                raise ValueError(
                    f"histogram {name!r} already declared with different "
                    f"buckets: {existing} != {bounds}"
                )
            self._bucket_layouts[name] = bounds

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to the counter ``name{labels}``."""
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name{labels}`` to its latest ``value``."""
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one sample into the histogram ``name{labels}`` (using
        the bucket layout declared for ``name``, if any)."""
        key = (name, _label_key(labels))
        with self._lock:
            stats = self._histograms.get(key)
            if stats is None:
                stats = self._histograms[key] = HistogramStats(
                    buckets=self._bucket_layouts.get(name, ())
                )
            stats.observe(float(value))

    # -- read side -----------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one labelled counter series (0 if unseen)."""
        with self._lock:
            return self._counters.get((name, _label_key(labels)), 0.0)

    def counter_total(self, name: str, **labels: Any) -> float:
        """Sum of a counter across all label sets (those carrying
        ``labels``)."""
        wanted = set(_label_key(labels))
        with self._lock:
            return sum(
                value
                for (counter, key), value in self._counters.items()
                if counter == name and (not wanted or wanted <= set(key))
            )

    def counter_series(self, name: str) -> List[Tuple[Dict[str, str], float]]:
        """Every label set counted under ``name`` with its value,
        ``(labels, value)`` sorted by labels (deterministic)."""
        with self._lock:
            return [
                (dict(labels), value)
                for (counter, labels), value in sorted(self._counters.items())
                if counter == name
            ]

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        """Latest value of one labelled gauge (None if never set)."""
        with self._lock:
            return self._gauges.get((name, _label_key(labels)))

    def histogram(self, name: str, **labels: Any) -> HistogramStats:
        """Stats object of one labelled histogram series (empty stats,
        with ``name``'s declared buckets, if unseen)."""
        with self._lock:
            return self._histograms.get(
                (name, _label_key(labels)),
                HistogramStats(buckets=self._bucket_layouts.get(name, ())),
            )

    def histogram_series(self, name: str) -> Dict[str, HistogramStats]:
        """Every label set observed for histogram ``name``, rendered as
        ``{"name{k=v,...}": stats}`` (sorted, deterministic)."""
        with self._lock:
            return {
                _render(series, labels): stats
                for (series, labels), stats in sorted(
                    self._histograms.items()
                )
                if series == name
            }

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Everything, as plain JSON-ready data.

        Series names render as ``name{k=v,...}`` (sorted labels), so the
        snapshot is deterministic for a deterministic workload.
        """
        with self._lock:
            return {
                "counters": {
                    _render(name, labels): value
                    for (name, labels), value in sorted(self._counters.items())
                },
                "gauges": {
                    _render(name, labels): value
                    for (name, labels), value in sorted(self._gauges.items())
                },
                "histograms": {
                    _render(name, labels): stats.to_dict()
                    for (name, labels), stats in sorted(
                        self._histograms.items()
                    )
                },
            }

    def reset(self, *names: str) -> None:
        """Clear every series of ``names`` -- of every name when none is
        given (declared bucket layouts survive)."""
        with self._lock:
            for series in (self._counters, self._gauges, self._histograms):
                for key in [key for key in series if not names or key[0] in names]:
                    del series[key]


def _render(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{rendered}}}"


class CounterView:
    """A read-only bundle of one tier's counters: each :class:`Counted`
    attribute reads ``registry`` (a view holds no count of its own),
    narrowed to the view's ``labels``."""

    #: Series of a :class:`Counted` attribute ``x``: ``<prefix>.x``.
    prefix = ""

    def __init__(self, registry: MetricsRegistry, **labels: Any):
        self._registry = registry
        self._labels = labels


class Counted:
    """A :class:`CounterView` attribute: ``cast`` of the counter
    ``<prefix>.<series or attribute name>`` summed over its label sets
    carrying the view's and these ``labels``."""

    def __init__(self, series: str = "", cast: type = int, **labels: Any):
        self.series, self.cast, self.labels = series, cast, labels

    def __set_name__(self, owner: type, name: str) -> None:
        self.series = f"{owner.prefix}.{self.series or name}"

    def __get__(self, view: Optional[CounterView], owner: type = None) -> Any:
        if view is None:
            return self
        labels = {**view._labels, **self.labels}
        return self.cast(view._registry.counter_total(self.series, **labels))
