"""Request-scoped tracing and unified metrics (docs/observability.md).

The paper's headline claims are measurements -- bytes discarded at the
store vs. shipped over the constrained link, storlet CPU on storage
nodes, retry behaviour under faults -- so the reproduction needs to
attribute costs per tier for a single GET the way PushdownDB does for
S3-side vs. compute-side work.  This package provides the two shared
primitives every tier hooks into:

* :mod:`repro.obs.trace` -- spans propagated via the ``X-Trace-Id``
  header from the Stocator connector down to the object backend, plus
  JSON and Chrome ``trace_event`` exporters;
* :mod:`repro.obs.metrics` -- a registry of labelled
  counters/gauges/histograms, the one writer behind every per-tier
  counter bundle.

A context owns one of each (:class:`Telemetry`); nothing is process-wide.
"""

from typing import NamedTuple

from repro.obs.metrics import (
    LATENCY_BUCKETS_SECONDS,
    SIMULATED_SECONDS_BUCKETS,
    HistogramStats,
    MetricsRegistry,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    TraceCollector,
    validate_chrome_trace,
)


class Telemetry(NamedTuple):
    """One context's registry and span collector, handed to the tiers
    the context builds (storlet engine, cluster, Spark context); every
    other tier takes them from the object it is built with."""

    registry: MetricsRegistry
    tracer: TraceCollector

    @classmethod
    def standalone(cls) -> "Telemetry":
        """A private registry and a disabled collector: what a tier
        built on its own counts into."""
        return cls(MetricsRegistry(), TraceCollector())


__all__ = [
    "TRACE_HEADER",
    "LATENCY_BUCKETS_SECONDS",
    "SIMULATED_SECONDS_BUCKETS",
    "HistogramStats",
    "Span",
    "Telemetry",
    "TraceCollector",
    "MetricsRegistry",
    "validate_chrome_trace",
]
