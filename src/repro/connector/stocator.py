"""Partition discovery, split reads and pushdown injection."""

from __future__ import annotations

import logging
import os
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.catalog import ObjectCatalog, decode_catalog
from repro.columnar.layout import ColumnarFooter, StripeMeta, footer_from_tail
from repro.core.pushdown import PushdownTask
from repro.csvscan import owned_records
from repro.sql.filters import Filter
from repro.sql.types import Schema
from repro.obs.metrics import LOG_LENGTH, Counted, CounterView
from repro.obs.trace import TRACE_HEADER, Span
from repro.storlets.api import StorletFailure
from repro.storlets.engine import StorletRequestHeaders
from repro.swift.client import SwiftClient
from repro.swift.exceptions import RangeNotSatisfiable, SwiftError
from repro.swift.http import HeaderDict, close_body

logger = logging.getLogger("repro.connector")


class PushdownError(SwiftError):
    """A pushdown GET did not produce filtered data.

    Carries enough context to retry the read without the storlet: the
    object path, the requested byte range and the storlet that failed.
    ``degradable`` tells callers whether falling back to a plain GET
    plus a compute-side filter is sound:

    * ``True`` -- the storlet failed at *runtime* (sandbox crash, CPU or
      output budget, deadline, injected fault); the stored bytes are
      fine, so re-reading them plainly yields correct results.
    * ``False`` -- a *configuration* problem (middleware missing, filter
      not deployed, unexpected HTTP error); degrading would mask a
      misconfigured cluster, so callers must fail loudly.
    """

    status = 500

    def __init__(
        self,
        message: str,
        *,
        container: str = "",
        name: str = "",
        byte_range: Tuple[int, int] = (0, 0),
        storlet: str = "",
        reason: str = "",
        degradable: bool = False,
    ):
        super().__init__(message)
        self.container = container
        self.name = name
        self.byte_range = byte_range
        self.storlet = storlet
        self.reason = reason
        self.degradable = degradable


@dataclass(frozen=True)
class ObjectSplit:
    """One byte range of one object, handled by one analytics task."""

    container: str
    name: str
    start: int
    length: int
    object_size: int
    index: int

    @property
    def end(self) -> int:
        """Inclusive last byte of the split."""
        return self.start + self.length - 1

    @property
    def is_first(self) -> bool:
        return self.start == 0

    @property
    def is_last(self) -> bool:
        return self.start + self.length >= self.object_size


@dataclass(frozen=True)
class ColumnarSplit:
    """A group of whole RCF1 stripes of one object, plus their metadata.

    Columnar partitioning is stripe-aligned rather than byte-aligned:
    the footer tells discovery where every stripe (and every column
    segment inside it) lives, so a split never bisects a record and a
    reader can fetch exactly the segments a query references.  The
    embedded :class:`ObjectSplit` covers the byte extent of the grouped
    stripes, which keeps the ranged-GET, tracing and metering machinery
    identical to the row path.
    """

    split: ObjectSplit
    schema: Schema
    stripes: Tuple[StripeMeta, ...]

    @property
    def index(self) -> int:
        return self.split.index

    @property
    def length(self) -> int:
        return self.split.length


class TransferMetrics(CounterView):
    """Bytes that actually crossed the store->compute boundary: a view
    of the ``connector.*`` counters of the connector's registry.

    Totals are interleaving-independent -- addition commutes -- which is
    what lets the concurrency tests assert identical metrics at
    parallelism 1 and 8 for full-drain queries.
    """

    prefix = "connector"
    TOTALS = (
        "requests", "bytes_transferred", "bytes_requested",
        "pushdown_requests", "pushdown_fallbacks",
    )
    requests = Counted()
    pushdown_requests = Counted("requests", pushdown=True)
    bytes_requested = Counted()
    bytes_transferred = Counted()
    #: Pushdown reads that degraded to a plain GET + compute-side filter
    #: after a runtime storlet failure.
    pushdown_fallbacks = Counted()

    def record(self, transferred: int, requested: int, pushdown: bool) -> None:
        self.record_request(requested, pushdown)
        self.record_bytes(transferred)

    def record_request(self, requested: int, pushdown: bool) -> None:
        """Charge one store round-trip covering ``requested`` bytes."""
        self._registry.inc("connector.requests", pushdown=pushdown)
        self._registry.inc("connector.bytes_requested", requested)

    def record_bytes(self, transferred: int) -> None:
        """Charge bytes as they cross the wire, one chunk at a time."""
        self._registry.inc("connector.bytes_transferred", transferred)

    def record_fallback(self) -> None:
        self._registry.inc("connector.pushdown_fallbacks")

    def totals(self) -> Tuple[int, int, int, int, int]:
        """Every counter, for cross-run equality assertions."""
        return tuple(getattr(self, name) for name in self.TOTALS)

    def savings_ratio(self) -> float:
        """Fraction of requested bytes that did NOT need to travel."""
        if self.bytes_requested == 0:
            return 0.0
        return 1.0 - self.bytes_transferred / self.bytes_requested

    def reset(self) -> None:
        """Zero every counter of this view (its registry series)."""
        self._registry.reset(*{getattr(TransferMetrics, name).series for name in self.TOTALS})


class StocatorConnector:
    """The Hadoop-driver role: discovery + ranged reads + task injection.

    ``chunk_size`` plays the part of the HDFS chunk size that drives
    partition discovery -- Section VII notes this is "not adapted to
    object stores", which the chunk-size ablation benchmark explores.
    The connector counts and traces into its client's telemetry.
    """

    def __init__(
        self,
        client: SwiftClient,
        chunk_size: int = 1 * 2**20,
        range_lookahead: int = 8 * 1024,
        skipping: Optional[bool] = None,
    ):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive: {chunk_size}")
        if range_lookahead <= 0:
            raise ValueError(
                f"range_lookahead must be positive: {range_lookahead}"
            )
        self.client = client
        self.chunk_size = chunk_size
        # Bytes fetched past a split to finish its last record when the
        # connector (not the storlet) performs record alignment; must be
        # at least the maximum record length.
        self.range_lookahead = range_lookahead
        self.registry, self.tracer = client.registry, client.tracer
        self.metrics = TransferMetrics(self.registry)
        #: ``(container, name, reason)`` for every object discovery
        #: declined to split (zero-length / missing content-length).
        self.skipped_objects: List[Tuple[str, str, str]] = []
        #: ``(container, name, reason)`` for every object quote-aware
        #: planning demoted to a single split (no silent caps: demotions
        #: are counted here and in ``connector.splits_demoted``).
        self.demoted_objects: List[Tuple[str, str, str]] = []
        # Object-level data-skipping catalog: ``skipping=None`` defers
        # to the REPRO_SKIPPING env var; True/False force it.
        if skipping is None:
            skipping = os.environ.get("REPRO_SKIPPING", "") not in ("", "0")
        self.skipping = bool(skipping)
        #: Catalog entries decoded from discovery HEAD responses, keyed
        #: by ``(container, name)``; ``None`` = no (usable) entry.
        #: Populated even with skipping off, so flipping the knob after
        #: discovery still works and the cost stays zero either way.
        self._catalog_cache: Dict[Tuple[str, str], Optional[ObjectCatalog]] = {}
        #: ``(container, name)`` of the latest :data:`LOG_LENGTH` whole
        #: objects the catalog refuted for some query -- skipped with
        #: zero GETs (all counted in ``connector.objects_catalog_skipped``).
        self.catalog_skipped: Deque[Tuple[str, str]] = deque(maxlen=LOG_LENGTH)

    # -- partition discovery ---------------------------------------------

    def discover_partitions(
        self, container: str, prefix: str = "", record_aligned: bool = False
    ) -> List[ObjectSplit]:
        """Split every matching object into chunk-size byte ranges.

        Mirrors Hadoop RDD partition discovery: total size divided by the
        chunk size, one task per split.  Happens before any query is
        known (paper Section V-B).

        With ``record_aligned`` (the CSV relation's default) each
        object's boundaries are checked against its quoting: a boundary
        that would land inside a quoted field slides forward to the next
        record start (see :mod:`repro.connector.split_planner`), and an
        object whose quoting never closes is demoted to a single split
        -- counted in :attr:`demoted_objects` and the
        ``connector.splits_demoted{reason=...}`` registry counter, and
        logged.  Boundaries of unquoted data are byte-identical to the
        plain chunk arithmetic.

        Objects that yield no split -- zero-length objects, or HEAD
        responses missing ``content-length`` entirely -- are *counted and
        logged* rather than silently dropped (no silent caps): see the
        ``connector.objects_skipped{reason=...}`` registry counter and
        :attr:`skipped_objects`.
        """
        splits: List[ObjectSplit] = []
        for name, size, _headers in self._discovered_objects(container, prefix):
            starts = list(range(0, size, self.chunk_size))
            if record_aligned and size > self.chunk_size:
                starts = self._aligned_starts(container, name, size)
            for position, start in enumerate(starts):
                end = starts[position + 1] if position + 1 < len(starts) else size
                splits.append(
                    ObjectSplit(
                        container, name, start, end - start, size, len(splits)
                    )
                )
        return splits

    def _discovered_objects(
        self, container: str, prefix: str
    ) -> Iterator[Tuple[str, int, HeaderDict]]:
        """The one discovery walk -- a listing, then a HEAD per object:
        ``(name, size, HEAD headers)`` of every object with bytes to
        split; the others are recorded, counted and logged.  The
        data-skipping catalog rides the HEAD we just paid for: its
        decoded entry is cached, so per-query consults cost no request.
        """
        registry = self.registry
        for name in self.client.list_objects(container, prefix=prefix):
            headers = self.client.head_object(container, name)
            self._catalog_cache[(container, name)] = decode_catalog(headers)
            raw_size = headers.get("content-length")
            if raw_size is None:
                reason = "missing-content-length"
            elif int(raw_size) == 0:
                reason = "zero-length"
            else:
                yield name, int(raw_size), headers
                continue
            self.skipped_objects.append((container, name, reason))
            registry.inc("connector.objects_skipped", reason=reason)
            logger.warning("discovery skipping /%s/%s: %s", container, name, reason)

    def count_discovery_bytes(self, kind: str, body: bytes) -> None:
        """Count one control-plane body read (``quote_scan``, ``footer``,
        ``schema``) as ``connector.discovery_bytes{kind=}`` -- in the
        registry only: :class:`TransferMetrics` stays query traffic."""
        self.registry.inc("connector.discovery_bytes", len(body), kind=kind)

    def _aligned_starts(
        self, container: str, name: str, size: int
    ) -> List[int]:
        """Quote-safe split starts for one CSV object (control plane).

        The planning read -- the *whole object* -- goes straight through
        the client: like schema inference it is discovery work, not
        query traffic, so it is counted as discovery bytes and neither
        metered in :class:`TransferMetrics` nor traced.
        """
        from repro.connector.split_planner import plan_quote_safe_starts

        _headers, data = self.client.get_object(container, name)
        self.count_discovery_bytes("quote_scan", data)
        starts = plan_quote_safe_starts(data, self.chunk_size)
        if starts is None:
            reason = "unterminated-quote"
            self.demoted_objects.append((container, name, reason))
            self.registry.inc("connector.splits_demoted", reason=reason)
            logger.warning(
                "discover_partitions demoting /%s/%s to a single split: %s",
                container,
                name,
                reason,
            )
            return [0]
        return starts

    # -- columnar discovery ------------------------------------------------

    #: First tail read when fetching an RCF1 footer; a second, exactly
    #: sized read follows only when the footer is longer than this.
    FOOTER_PROBE_BYTES = 8 * 1024

    def read_columnar_footer(
        self, container: str, name: str, object_size: int
    ) -> ColumnarFooter:
        """Fetch and decode an RCF1 object's footer via tail ranged GETs.

        Control-plane traffic, like schema inference: at most two small
        ranged reads (probe, then exact), counted as discovery bytes and
        neither metered nor traced -- the data plane never touches the
        footer.
        """
        probe = min(object_size, self.FOOTER_PROBE_BYTES)
        _headers, tail = self.client.get_object(
            container, name, byte_range=(object_size - probe, object_size - 1)
        )
        self.count_discovery_bytes("footer", tail)
        footer, needed = footer_from_tail(tail, object_size)
        if footer is None:
            needed = min(needed, object_size)
            _headers, tail = self.client.get_object(
                container,
                name,
                byte_range=(object_size - needed, object_size - 1),
            )
            self.count_discovery_bytes("footer", tail)
            footer, _needed = footer_from_tail(tail, object_size)
        if footer is None:
            raise ValueError(
                f"/{container}/{name}: footer longer than the object"
            )
        return footer

    def discover_columnar_partitions(
        self, container: str, prefix: str = ""
    ) -> List[ColumnarSplit]:
        """Stripe-aligned partition discovery over RCF1 footers.

        Consecutive stripes are grouped until a group's byte extent
        reaches :attr:`chunk_size`, one task per group, over the same
        walk (and skip accounting) as :meth:`discover_partitions`.
        Record alignment is free here: stripes never bisect a record by
        construction.
        """
        splits: List[ColumnarSplit] = []
        for name, size, _headers in self._discovered_objects(container, prefix):
            footer = self.read_columnar_footer(container, name, size)
            group: List[StripeMeta] = []
            for stripe in footer.stripes:
                group.append(stripe)
                start = group[0].start
                if (
                    stripe.end - start < self.chunk_size
                    and stripe is not footer.stripes[-1]
                ):
                    continue
                extent = ObjectSplit(
                    container, name, start, stripe.end - start, size, len(splits)
                )
                splits.append(ColumnarSplit(extent, footer.schema, tuple(group)))
                group = []
        return splits

    # -- object-level data skipping ----------------------------------------

    def catalog_filter_splits(self, splits, filters: Sequence[Filter]):
        """Drop every split of every object the catalog refutes.

        Called per query (at scan-build time, when the filter
        conjunction is finally known) with the splits discovery
        produced; accepts both :class:`ObjectSplit` and
        :class:`ColumnarSplit` sequences.  Consults only the entries
        cached from discovery HEADs, so a skipped object costs **zero
        GETs** -- and an object without a usable entry (absent,
        unparseable, version-mismatched) is never skipped.  Skips are
        recorded in :attr:`catalog_skipped` and the
        ``connector.objects_catalog_skipped`` registry counter.

        Sound because the shared refutation
        (:mod:`repro.columnar.stats`) never refutes an object holding a
        row that passes ``filters``, and the scan returns exactly the
        rows that do: a dropped object would have contributed none.
        """
        if not self.skipping or not filters:
            return list(splits)
        registry = self.registry
        verdicts: Dict[Tuple[str, str], bool] = {}
        kept = []
        for item in splits:
            split = getattr(item, "split", item)
            key = (split.container, split.name)
            if key not in verdicts:
                catalog = self._catalog_cache.get(key)
                may = catalog is None or catalog.may_match(filters)
                verdicts[key] = may
                if not may:
                    self.catalog_skipped.append(key)
                    registry.inc("connector.objects_catalog_skipped")
                    logger.info(
                        "catalog refuted /%s/%s for this query: "
                        "skipping the whole object (0 GETs)",
                        key[0],
                        key[1],
                    )
            if verdicts[key]:
                kept.append(item)
        return kept

    # -- segment-granular reads --------------------------------------------

    def read_byte_ranges(
        self, split: ObjectSplit, ranges: Sequence[Tuple[int, int]]
    ) -> List[bytes]:
        """Fetch absolute ``(offset, length)`` extents of a split's object.

        The columnar plain-read path: each referenced column segment is
        a ranged GET (adjacent extents coalesce into one), every request
        metered and span-traced exactly like a split read -- which is
        what keeps trace byte totals reconciling with
        :class:`TransferMetrics` even though segment-granular reads
        transfer fewer bytes than the object (or even the split) holds.
        Extents must be ascending and non-overlapping, which segment
        layout guarantees.
        """
        pieces: List[bytes] = []
        for start, end, members in self._coalesce_ranges(ranges):
            if end == start:
                pieces.extend(b"" for _member in members)
                continue
            tracer = self.tracer
            trace_id = tracer.new_trace_id() if tracer.enabled else ""
            span = tracer.start(
                "connector",
                "segment_get",
                trace_id=trace_id,
                container=split.container,
                object=split.name,
                split_index=split.index,
                range_start=start,
                range_length=end - start,
                pushdown=False,
            )
            extra: Dict[str, str] = {TRACE_HEADER: trace_id} if trace_id else {}
            try:
                response = self.client.get_object_stream(
                    split.container,
                    split.name,
                    byte_range=(start, end - 1),
                    headers=extra,
                )
            except BaseException:
                # No stream was opened, so _metered() will never finish
                # the span: close it or it stays on this thread's stack.
                tracer.finish(span, status="error")
                raise
            self.metrics.record_request(end - start, pushdown=False)
            data = b"".join(
                self._metered(response.iter_body(), split, None, span)
            )
            for offset, length in members:
                pieces.append(data[offset - start : offset - start + length])
        return pieces

    @staticmethod
    def _coalesce_ranges(
        ranges: Sequence[Tuple[int, int]],
    ) -> List[Tuple[int, int, List[Tuple[int, int]]]]:
        """Merge ascending adjacent ``(offset, length)`` extents into
        ``(start, end, members)`` GET groups (``end`` exclusive)."""
        groups: List[Tuple[int, int, List[Tuple[int, int]]]] = []
        for offset, length in ranges:
            if length < 0:
                raise ValueError(f"negative range length: {length}")
            if groups and offset == groups[-1][1]:
                start, _end, members = groups[-1]
                members.append((offset, length))
                groups[-1] = (start, offset + length, members)
            else:
                groups.append((offset, offset + length, [(offset, length)]))
        return groups

    # -- split reads --------------------------------------------------------

    def open_split_stream(
        self, split: ObjectSplit, task: Optional[PushdownTask] = None
    ) -> Tuple[HeaderDict, Iterator[bytes]]:
        """Open a split read as ``(headers, chunk iterator)``.

        With a pushdown task: one storlet GET streams the already
        filtered, record-aligned data for the split.  Without: the raw
        byte range (plus lookahead) streams through and the caller
        aligns records client-side with :mod:`repro.csvscan`
        (:meth:`read_split_records` for raw records).

        Configuration and replica-exhaustion failures surface *at open
        time* (the proxy tries every replica before answering), so
        callers can still degrade to a plain read before consuming any
        data.  Bytes are charged to :attr:`metrics` per chunk as the
        stream is consumed, never all at once.
        """
        tracer = self.tracer
        pushdown = task is not None and not task.is_noop()
        trace_id = tracer.new_trace_id() if tracer.enabled else ""
        span = tracer.start(
            "connector",
            "pushdown_get" if pushdown else "plain_get",
            trace_id=trace_id,
            container=split.container,
            object=split.name,
            split_index=split.index,
            range_start=split.start,
            range_length=split.length,
            pushdown=pushdown,
        )
        try:
            if pushdown:
                headers: Dict[str, str] = {}
                task.apply_to_headers(headers)
                headers[StorletRequestHeaders.RANGE] = (
                    f"bytes={split.start}-{split.end}"
                )
                if trace_id:
                    headers[TRACE_HEADER] = trace_id
                try:
                    response = self.client.get_object_stream(
                        split.container, split.name, headers=headers
                    )
                except SwiftError as error:
                    failure_reason = (getattr(error, "headers", None) or {}).get(
                        StorletRequestHeaders.FAILURE
                    )
                    # A storlet that failed at runtime on every replica
                    # left the data intact, so the caller may degrade to
                    # a plain GET + compute-side filter.
                    what = (
                        f"storlet {task.storlet!r} failed ({failure_reason})"
                        if failure_reason
                        else "GET failed"
                    )
                    raise PushdownError(
                        f"pushdown {what} for "
                        f"/{split.container}/{split.name} "
                        f"bytes {split.start}-{split.end}: {error}",
                        container=split.container,
                        name=split.name,
                        byte_range=(split.start, split.end),
                        storlet=task.storlet,
                        reason=failure_reason or f"http-{error.status}",
                        degradable=bool(failure_reason),
                    ) from error
                if StorletRequestHeaders.INVOKED not in response.headers:
                    # Nothing intercepted the request: the store has no
                    # storlet engine (or the filter is not deployed).
                    # Parsing raw data with the pruned schema would
                    # silently corrupt results, so this is loud and
                    # non-degradable.
                    raise PushdownError(
                        f"pushdown task {task.storlet!r} was not executed "
                        f"by the object store for "
                        f"/{split.container}/{split.name}; "
                        "is the storlet middleware installed and the "
                        "filter deployed?",
                        container=split.container,
                        name=split.name,
                        byte_range=(split.start, split.end),
                        storlet=task.storlet,
                        reason="not-executed",
                        degradable=False,
                    )
                self.metrics.record_request(split.length, pushdown=True)
                return response.headers, self._metered(
                    response.iter_body(), split, task, span
                )

            end = min(split.end + self.range_lookahead, split.object_size - 1)
            extra: Dict[str, str] = (
                {TRACE_HEADER: trace_id} if trace_id else {}
            )
            try:
                response = self.client.get_object_stream(
                    split.container,
                    split.name,
                    byte_range=(split.start, end),
                    headers=extra,
                )
            except RangeNotSatisfiable:
                self.metrics.record_request(split.length, pushdown=False)
                tracer.finish(span, status="range-not-satisfiable")
                return HeaderDict(), iter(())
            self.metrics.record_request(split.length, pushdown=False)
            return response.headers, self._metered(
                response.iter_body(), split, None, span
            )
        except PushdownError as error:
            tracer.finish(span, status="error", reason=error.reason)
            raise
        except BaseException:
            # Same for any other open-time failure (e.g. the object was
            # deleted after discovery): no stream was handed out, so
            # _metered() will never finish the span.
            tracer.finish(span, status="error")
            raise

    def _metered(
        self,
        chunks: Iterable[bytes],
        split: ObjectSplit,
        task: Optional[PushdownTask],
        span: Optional[Span] = None,
    ) -> Iterator[bytes]:
        """Charge transferred bytes chunk-by-chunk as they are consumed.

        A storlet failure surfacing *mid-stream* (the sandbox charges
        budgets per chunk, so a CPU or output limit can trip after the
        first bytes flowed) is re-raised as a degradable
        :class:`PushdownError` so the caller's fallback path still
        engages.

        The connector span stays open while the body streams (the data
        plane is lazy) and is finalized here, from the ``finally``
        block, carrying *exactly* the bytes that were consumed -- which
        is what makes trace byte totals reconcile with
        :class:`TransferMetrics`.
        """
        storlet = task.storlet if task is not None else ""
        consumed = 0
        status = "ok"
        try:
            for chunk in chunks:
                consumed += len(chunk)
                self.metrics.record_bytes(len(chunk))
                yield chunk
        except StorletFailure as failure:
            status = "error"
            raise PushdownError(
                f"pushdown storlet {storlet!r} failed mid-stream "
                f"({failure.reason}) for /{split.container}/{split.name} "
                f"bytes {split.start}-{split.end}: {failure}",
                container=split.container,
                name=split.name,
                byte_range=(split.start, split.end),
                storlet=storlet,
                reason=failure.reason,
                degradable=True,
            ) from failure
        except BaseException:
            status = "error"
            raise
        finally:
            # Deterministic teardown: closing this generator closes the
            # underlying stream too, releasing its pool slot *now*
            # rather than whenever the chunk iterator is collected.
            close_body(chunks)
            if span is not None:
                span.bytes_out = consumed
                self.tracer.finish(
                    span, status=None if status == "ok" else status
                )

    def read_split_raw(
        self, split: ObjectSplit, task: Optional[PushdownTask] = None
    ) -> bytes:
        """Fetch a split's data fully materialized.

        Convenience wrapper over :meth:`open_split_stream` for callers
        that need the whole payload at once (e.g. aggregation partials).
        """
        _headers, chunks = self.open_split_stream(split, task)
        return b"".join(chunks)

    def read_split_records(self, split: ObjectSplit) -> Iterator[bytes]:
        """Plain (no pushdown) read yielding the records the split owns.

        The line-level view of :mod:`repro.csvscan`, so the Hadoop split
        ownership rule is the storlet's own: skip the partial first
        record unless the split starts the object; own every record
        starting before the split end; finish the last owned record
        from the lookahead bytes.  Chunks are pulled from the store on
        demand: once the first record past the split completes, no
        further lookahead bytes cross the wire.
        """
        _headers, chunks = self.open_split_stream(split, task=None)
        return owned_records(chunks, split.start, split.length)

    # -- uploads -----------------------------------------------------------------

    def upload(
        self,
        container: str,
        name: str,
        data: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> str:
        """PUT an object through the store (ETL policies may transform it)."""
        self.client.put_container(container)
        return self.client.put_object(container, name, data, headers=headers)

    def dataset_size(self, container: str, prefix: str = "") -> int:
        total = 0
        for name in self.client.list_objects(container, prefix=prefix):
            total += int(
                self.client.head_object(container, name).get(
                    "content-length", "0"
                )
            )
        return total
