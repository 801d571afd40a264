"""Request-scoped trace spans across every tier of the GET/query path.

One analytics read crosses six tiers -- connector, Swift client, load
balancer/proxy, middleware, storlet sandbox, object backend -- and the
only way to explain *where* bytes were discarded or time was spent is to
follow a single request through all of them.  A :class:`TraceCollector`
does that: the connector mints a trace id, attaches it to the request as
the ``X-Trace-Id`` header, and every tier underneath records a
:class:`Span` carrying the same id.

Design constraints (shared with the chaos suite, docs/observability.md):

* **Deterministic ids.**  Trace and span ids come from seeded process
  counters, never from clocks or RNGs, so two runs of the same workload
  assign the same ids (modulo thread interleaving of *allocation
  order*, which nothing fingerprints).
* **No wall time in fingerprints.**  Spans do carry wall durations
  (``time.perf_counter``), but nothing the chaos suite fingerprints is
  derived from them; byte counts and retry counts are exact.
* **Streaming-safe.**  The data plane is lazy: a response body streams
  *after* the request returns.  Spans for streaming tiers therefore
  stay open until the stream drains (or is abandoned) and are finalized
  from the iterator's ``finally`` block, so their byte counts reconcile
  exactly with :class:`~repro.connector.stocator.TransferMetrics`.
* **Bounded, coherently.**  The collector is bounded by
  :attr:`~TraceCollector.max_spans` via *head-based sampling*: the
  keep/drop decision is made once per trace id, when the trace's first
  span arrives, and applies to every later span of that trace.  An
  exported trace is therefore always complete -- never truncated
  mid-request -- at the price of a soft cap (a trace admitted near the
  limit records all of its spans).  ``dropped`` counts whole dropped
  traces (anonymous spans, which carry no trace id, count
  individually).  Overflow is *counted*, never silent.

One collector per context: a :class:`~repro.core.scoop.ScoopContext`
hands its collector to every tier at construction
(:class:`~repro.obs.Telemetry`), and a tier built on its own gets a
private, disabled one.  Tiers record only when their collector is
enabled, which costs a single attribute check on the hot path.  Enable
it with ``ScoopContext(trace=True)``, the ``REPRO_TRACE=1`` environment
variable (read by the context) or :meth:`TraceCollector.enable`.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Header propagating the trace id between tiers (case-insensitive; the
#: HeaderDict normalizes).  Mirrors the W3C/B3 style single-header model.
TRACE_HEADER = "x-trace-id"


@dataclass
class Span:
    """One tier's view of one operation.

    ``bytes_in``/``bytes_out`` are the tier's own accounting (what it
    read from below / emitted above); ``attributes`` carries flat
    string/number facts (node, worker, retries, admission wait...).
    """

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    tier: str
    operation: str
    start: float = 0.0
    duration: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)
    # Whether this span is being recorded (False when the collector was
    # disabled at start time: every mutation becomes a cheap no-op).
    _live: bool = field(default=True, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """The span as plain JSON-ready data."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tier": self.tier,
            "operation": self.operation,
            "start": self.start,
            "duration": self.duration,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


_NULL_SPAN = Span("", 0, None, "", "", _live=False)


class TraceCollector:
    """Thread-safe sink for spans, with deterministic id allocation.

    Spans are recorded via the ``start``/``finish`` pair (streaming
    tiers finish from a ``finally``) or the :meth:`span` context
    manager.  Parenting uses a per-thread stack of open spans: the GET
    path is synchronous down the tiers within one thread, so nesting
    falls out naturally; cross-thread streams simply start a new root
    under the same trace id.
    """

    def __init__(self, enabled: bool = False, max_spans: int = 100_000):
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: List[Span] = []
        #: Whole traces (or anonymous spans) discarded because
        #: ``max_spans`` was reached -- counted, never silent (exported
        #: alongside the spans).
        self.dropped = 0
        #: Head-based sampling decisions, one per trace id, made when
        #: the trace's first span is allocated.
        self._trace_keep: Dict[str, bool] = {}
        self._lock = threading.Lock()
        # Seeded counters: ids are deterministic, clock/RNG-free.
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._stacks = threading.local()

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        """Start recording spans."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording spans (already-recorded spans are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Forget every recorded span and rewind the id counters."""
        with self._lock:
            self.spans = []
            self.dropped = 0
            self._trace_keep = {}
            self._trace_ids = itertools.count(1)
            self._span_ids = itertools.count(1)

    # -- recording ----------------------------------------------------------

    def new_trace_id(self) -> str:
        """Mint the next deterministic trace id (``t00000001``, ...)."""
        with self._lock:
            return f"t{next(self._trace_ids):08d}"

    def start(
        self,
        tier: str,
        operation: str,
        trace_id: str = "",
        **attributes: Any,
    ) -> Span:
        """Open a span; finish it with :meth:`finish` (also on errors)."""
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack()
        with self._lock:
            span_id = next(self._span_ids)
            if trace_id:
                # Head-based sampling: decide the whole trace's fate at
                # root-span creation (first sight of the trace id).
                self._keep_locked(trace_id)
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            tier=tier,
            operation=operation,
            start=time.perf_counter(),
            attributes=dict(attributes),
        )
        stack.append(span)
        return span

    def finish(
        self, span: Span, status: Optional[str] = None, **attributes: Any
    ) -> None:
        """Close a span and record it (idempotent for the null span)."""
        if not span._live or span is _NULL_SPAN:
            return
        span._live = False
        span.duration = time.perf_counter() - span.start
        if status is not None:
            span.status = status
        span.attributes.update(attributes)
        stack = self._stack()
        # Streaming spans can finish out of stack order (the connector
        # span outlives the client span that opened after it): remove by
        # identity wherever it sits.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                break
        self._append(span)

    def span(self, tier: str, operation: str, trace_id: str = "", **attrs):
        """Context manager sugar over ``start``/``finish``."""
        return _SpanContext(self, tier, operation, trace_id, attrs)

    def record_complete(
        self,
        tier: str,
        operation: str,
        duration: float,
        trace_id: str = "",
        bytes_in: int = 0,
        bytes_out: int = 0,
        status: str = "ok",
        **attributes: Any,
    ) -> None:
        """Record a span whose duration is already known (e.g. a task
        logged after the fact); never touches the parenting stacks."""
        if not self.enabled:
            return
        with self._lock:
            span_id = next(self._span_ids)
        self._append(
            Span(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=None,
                tier=tier,
                operation=operation,
                start=time.perf_counter() - duration,
                duration=duration,
                bytes_in=bytes_in,
                bytes_out=bytes_out,
                status=status,
                attributes=dict(attributes),
                _live=False,
            )
        )

    def record_event(
        self, tier: str, operation: str, trace_id: str = "", **attributes: Any
    ) -> None:
        """Record an instantaneous event (e.g. an injected fault)."""
        if not self.enabled:
            return
        with self._lock:
            span_id = next(self._span_ids)
        stack = self._stack()
        self._append(
            Span(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=stack[-1].span_id if stack else None,
                tier=tier,
                operation=operation,
                start=time.perf_counter(),
                duration=0.0,
                attributes=dict(attributes),
                _live=False,
            )
        )

    # -- queries -------------------------------------------------------------

    def snapshot(self) -> List[Span]:
        """A point-in-time copy of every recorded span."""
        with self._lock:
            return list(self.spans)

    def byte_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-tier byte totals, for reconciliation assertions."""
        totals: Dict[str, Dict[str, int]] = {}
        for span in self.snapshot():
            entry = totals.setdefault(
                span.tier, {"bytes_in": 0, "bytes_out": 0, "spans": 0}
            )
            entry["bytes_in"] += span.bytes_in
            entry["bytes_out"] += span.bytes_out
            entry["spans"] += 1
        return totals

    # -- exporters -----------------------------------------------------------

    def export_json(self) -> Dict[str, Any]:
        """Span list plus the overflow counter, as plain JSON data."""
        spans = self.snapshot()
        return {
            "span_count": len(spans),
            "dropped": self.dropped,
            "byte_totals": self.byte_totals(),
            "spans": [span.to_dict() for span in spans],
        }

    def export_chrome(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` format (load in chrome://tracing or
        Perfetto): complete events (``ph: "X"``) with one virtual thread
        per tier, named via metadata events."""
        spans = self.snapshot()
        tiers = sorted({span.tier for span in spans})
        tids = {tier: index + 1 for index, tier in enumerate(tiers)}
        events: List[Dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tids[tier],
                "args": {"name": tier},
            }
            for tier in tiers
        ]
        for span in spans:
            events.append(
                {
                    "name": span.operation,
                    "cat": span.tier,
                    "ph": "X",
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 1,
                    "tid": tids[span.tier],
                    "args": {
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "bytes_in": span.bytes_in,
                        "bytes_out": span.bytes_out,
                        "status": span.status,
                        **span.attributes,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # -- internals ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _keep_locked(self, trace_id: str) -> bool:
        """The memoized head-sampling decision for ``trace_id``.

        Caller holds ``_lock``.  The first consultation decides (is
        there room for another trace?) and bumps ``dropped`` once when
        the answer is no; later spans of the same trace inherit the
        decision, so kept traces are always exported complete even if
        they overshoot ``max_spans`` (a soft cap).
        """
        keep = self._trace_keep.get(trace_id)
        if keep is None:
            keep = len(self.spans) < self.max_spans
            self._trace_keep[trace_id] = keep
            if not keep:
                self.dropped += 1
        return keep

    def _append(self, span: Span) -> None:
        with self._lock:
            if span.trace_id:
                if not self._keep_locked(span.trace_id):
                    return
                self.spans.append(span)
                return
            # Anonymous spans carry no trace id: each is its own
            # one-span pseudo-trace, decided individually.
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return
            self.spans.append(span)


def validate_chrome_trace(data: Any) -> None:
    """Assert that ``data`` is a loadable Chrome ``trace_event`` export.

    The round-trip contract the CI observability job and the benchmark
    harness both rely on: a top-level ``traceEvents`` list whose events
    are complete (``ph: "X"``, with numeric ``ts``/``dur >= 0``) or
    metadata (``ph: "M"``) entries carrying integer ``pid``/``tid``, and
    every virtual thread used by a complete event has a ``thread_name``
    metadata record.  Raises :class:`ValueError` on the first violation.
    """
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError("chrome trace must be an object with traceEvents")
    events = data["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    named_tids = set()
    used_tids = set()
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        if event.get("ph") not in ("X", "M"):
            raise ValueError(f"{where}: ph must be 'X' or 'M'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: {key} must be an integer")
        if event["ph"] == "M":
            if event.get("name") != "thread_name":
                raise ValueError(f"{where}: metadata must name a thread")
            named_tids.add(event["tid"])
            continue
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: name must be a string")
        for key in ("ts", "dur"):
            if not isinstance(event.get(key), (int, float)):
                raise ValueError(f"{where}: {key} must be numeric")
        if event["dur"] < 0:
            raise ValueError(f"{where}: dur must be >= 0")
        used_tids.add(event["tid"])
    unnamed = used_tids - named_tids
    if unnamed:
        raise ValueError(f"spans on unnamed virtual threads: {sorted(unnamed)}")


class _SpanContext:
    def __init__(self, collector, tier, operation, trace_id, attributes):
        self._collector = collector
        self._args = (tier, operation, trace_id)
        self._attributes = attributes
        self.span = _NULL_SPAN

    def __enter__(self) -> Span:
        tier, operation, trace_id = self._args
        self.span = self._collector.start(
            tier, operation, trace_id, **self._attributes
        )
        return self.span

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self._collector.finish(
            self.span, status="error" if exc_type is not None else None
        )
