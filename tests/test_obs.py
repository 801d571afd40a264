"""Tests for the unified observability layer: trace spans, the metrics
registry, and the acceptance invariant -- a traced parallel query under
an injected fault plan whose per-tier byte totals reconcile exactly
with the legacy counters (TransferMetrics / resilience_summary)."""

import json
import threading

import pytest

from repro.core import ScoopContext
from repro.faults import named_plan
from repro.obs import MetricsRegistry, TraceCollector
from repro.sql import Schema
from repro.swift.client import SwiftClient
from repro.swift.exceptions import NotFound
from repro.swift.proxy import SwiftCluster


class TestTraceCollector:
    def test_disabled_collector_records_nothing(self):
        collector = TraceCollector(enabled=False)
        span = collector.start("client", "GET /a/c/o")
        collector.finish(span, status="error")
        with collector.span("proxy", "GET"):
            pass
        collector.record_event("faults", "flaky")
        collector.record_complete("scheduler", "task", 0.1)
        assert collector.snapshot() == []

    def test_start_finish_records_span(self):
        collector = TraceCollector(enabled=True)
        trace_id = collector.new_trace_id()
        span = collector.start(
            "connector", "pushdown_get", trace_id=trace_id, split_index=3
        )
        span.bytes_out = 42
        collector.finish(span, status="ok", rows=7)
        (recorded,) = collector.snapshot()
        assert recorded.trace_id == "t00000001"
        assert recorded.tier == "connector"
        assert recorded.bytes_out == 42
        assert recorded.attributes == {"split_index": 3, "rows": 7}
        assert recorded.duration >= 0

    def test_nested_spans_parent_within_thread(self):
        collector = TraceCollector(enabled=True)
        outer = collector.start("connector", "get")
        inner = collector.start("client", "GET /a/c/o")
        collector.finish(inner)
        collector.finish(outer)
        inner_rec, outer_rec = collector.snapshot()
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None

    def test_streaming_span_may_finish_out_of_order(self):
        collector = TraceCollector(enabled=True)
        streaming = collector.start("connector", "get")
        request = collector.start("client", "GET")
        # The connector span outlives the client span that opened after
        # it (the body streams after request() returns).
        collector.finish(streaming)
        collector.finish(request)
        assert len(collector.snapshot()) == 2

    def test_ids_are_deterministic_not_clock_derived(self):
        first = TraceCollector(enabled=True)
        second = TraceCollector(enabled=True)
        for collector in (first, second):
            collector.start("a", "op")
            assert collector.new_trace_id() == "t00000001"
        assert [s.span_id for s in first.snapshot()] == [
            s.span_id for s in second.snapshot()
        ]

    def test_reset_rewinds_id_counters(self):
        collector = TraceCollector(enabled=True)
        collector.finish(collector.start("a", "op"))
        collector.reset()
        assert collector.snapshot() == []
        assert collector.new_trace_id() == "t00000001"

    def test_overflow_is_counted_not_silent(self):
        collector = TraceCollector(enabled=True, max_spans=2)
        for _ in range(5):
            collector.finish(collector.start("a", "op"))
        assert len(collector.snapshot()) == 2
        assert collector.dropped == 3
        assert collector.export_json()["dropped"] == 3

    def test_head_sampling_keeps_whole_traces(self):
        """The keep/drop decision is made once per trace id at root-span
        creation: a trace admitted under the cap keeps *all* its spans
        (even overshooting max_spans -- a soft cap), so exported traces
        are always complete."""
        collector = TraceCollector(enabled=True, max_spans=2)
        kept = collector.new_trace_id()
        for _ in range(3):
            collector.finish(collector.start("a", "op", trace_id=kept))
        dropped = collector.new_trace_id()
        for _ in range(3):
            collector.finish(collector.start("a", "op", trace_id=dropped))
        spans = collector.snapshot()
        assert len(spans) == 3
        assert {span.trace_id for span in spans} == {kept}
        # ``dropped`` counts whole traces, not spans.
        assert collector.dropped == 1

    def test_head_sampling_decision_is_sticky(self):
        """A trace keeps accepting spans after the cap fills, and a
        dropped trace stays dropped even after spans are recorded."""
        collector = TraceCollector(enabled=True, max_spans=1)
        kept = collector.new_trace_id()
        root = collector.start("a", "root", trace_id=kept)
        late = collector.new_trace_id()
        # ``late`` arrives while the cap still has room: also kept.
        collector.finish(collector.start("a", "op", trace_id=late))
        collector.finish(root)
        # Both traces were admitted before the cap filled; new ones die.
        doomed = collector.new_trace_id()
        collector.finish(collector.start("a", "op", trace_id=doomed))
        collector.finish(collector.start("a", "op", trace_id=kept))
        collector.finish(collector.start("a", "op", trace_id=doomed))
        spans = collector.snapshot()
        assert {span.trace_id for span in spans} == {kept, late}
        assert collector.dropped == 1

    def test_byte_totals_aggregate_per_tier(self):
        collector = TraceCollector(enabled=True)
        for bytes_out in (10, 20):
            span = collector.start("connector", "get")
            span.bytes_out = bytes_out
            collector.finish(span)
        span = collector.start("storlet", "csvstorlet")
        span.bytes_in = 100
        collector.finish(span)
        totals = collector.byte_totals()
        assert totals["connector"] == {
            "bytes_in": 0,
            "bytes_out": 30,
            "spans": 2,
        }
        assert totals["storlet"]["bytes_in"] == 100

    def test_span_context_manager_marks_errors(self):
        collector = TraceCollector(enabled=True)
        with pytest.raises(ValueError):
            with collector.span("client", "GET"):
                raise ValueError("boom")
        (span,) = collector.snapshot()
        assert span.status == "error"


class TestMetricsRegistry:
    def test_labelled_counters_are_independent_series(self):
        registry = MetricsRegistry()
        registry.inc("connector.requests", pushdown=True)
        registry.inc("connector.requests", pushdown=True)
        registry.inc("connector.requests", pushdown=False)
        assert registry.counter_value("connector.requests", pushdown=True) == 2
        assert (
            registry.counter_value("connector.requests", pushdown=False) == 1
        )
        assert registry.counter_total("connector.requests") == 3

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("cluster.proxy_peak_inflight", 3)
        registry.set_gauge("cluster.proxy_peak_inflight", 7)
        assert registry.gauge_value("cluster.proxy_peak_inflight") == 7.0

    def test_histogram_summary_statistics(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.observe("scheduler.task_seconds", value)
        stats = registry.histogram("scheduler.task_seconds")
        assert stats.count == 3
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.mean() == pytest.approx(2.0)

    def test_snapshot_renders_prometheus_style_names(self):
        registry = MetricsRegistry()
        registry.inc("sandbox.errors", node="storage1")
        registry.inc("client.requests")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["sandbox.errors{node=storage1}"] == 1.0
        assert snapshot["counters"]["client.requests"] == 1.0
        # The snapshot is JSON-ready.
        json.dumps(snapshot)

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 1)
        registry.observe("c", 1.0)
        registry.reset()
        empty = registry.snapshot()
        assert empty == {"counters": {}, "gauges": {}, "histograms": {}}


class TestBucketedHistograms:
    def test_declared_buckets_enable_percentiles(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (0.1, 0.5, 1.0, 5.0))
        for value in (0.05, 0.2, 0.3, 0.7, 2.0):
            registry.observe("lat", value)
        stats = registry.histogram("lat")
        assert stats.bucket_counts == [1, 2, 1, 1, 0]
        quantiles = stats.percentiles()
        assert set(quantiles) == {"p50", "p95", "p99"}
        # Estimates interpolate inside the fixed buckets but never
        # leave the observed range.
        assert stats.minimum <= quantiles["p50"] <= quantiles["p95"]
        assert quantiles["p95"] <= quantiles["p99"] <= stats.maximum

    def test_percentile_interpolates_within_bucket(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (1.0, 2.0))
        for value in (1.2, 1.4, 1.6, 1.8):
            registry.observe("lat", value)
        # All four samples sit in the (1.0, 2.0] bucket: the median
        # estimate is the bucket midpoint, clamped estimates stay
        # inside [min, max].
        stats = registry.histogram("lat")
        assert stats.percentile(0.5) == pytest.approx(1.5)
        assert stats.percentile(0.0) == pytest.approx(1.2)
        assert stats.percentile(1.0) == pytest.approx(1.8)

    def test_overflow_bucket_uses_observed_maximum(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (1.0,))
        registry.observe("lat", 10.0)
        stats = registry.histogram("lat")
        assert stats.bucket_counts == [0, 1]
        assert stats.percentile(0.99) == 10.0

    def test_unbucketed_series_has_no_percentiles(self):
        registry = MetricsRegistry()
        registry.observe("plain", 1.0)
        assert registry.histogram("plain").percentiles() is None
        assert "p50" not in registry.histogram("plain").to_dict()

    def test_redeclaring_different_buckets_raises(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (1.0, 2.0))
        registry.declare_histogram("lat", (2.0, 1.0))  # same set: fine
        with pytest.raises(ValueError):
            registry.declare_histogram("lat", (5.0,))

    def test_to_dict_carries_buckets_and_percentiles(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (1.0, 2.0))
        registry.observe("lat", 0.5)
        payload = registry.histogram("lat").to_dict()
        assert payload["buckets"] == [1.0, 2.0]
        assert payload["bucket_counts"] == [1, 0, 0]
        assert {"p50", "p95", "p99"} <= set(payload)
        json.dumps(payload)

    def test_histogram_series_lists_label_sets(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (1.0,))
        registry.observe("lat", 0.5, experiment="fig1")
        registry.observe("lat", 0.7, experiment="fig5")
        registry.observe("other", 1.0)
        series = registry.histogram_series("lat")
        assert list(series) == [
            "lat{experiment=fig1}",
            "lat{experiment=fig5}",
        ]
        assert all(stats.count == 1 for stats in series.values())

    def test_declared_layouts_survive_reset(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (1.0,))
        registry.observe("lat", 0.5)
        registry.reset()
        registry.observe("lat", 0.5)
        assert registry.histogram("lat").percentiles() is not None


SCHEMA = Schema.of("vid", "date", "index:float", "city")


def _meter_rows(count: int) -> str:
    return "".join(
        f"m{i:05d},2015-01-{(i % 28) + 1:02d},{i}.5,"
        f"{'Paris' if i % 3 else 'Rotterdam'}\n"
        for i in range(count)
    )


@pytest.fixture
def traced_scoop():
    """A traced Scoop stack: parallelism 8, named fault plan, small
    chunks so the query fans out over many splits."""
    context = ScoopContext(
        trace=True,
        parallelism=8,
        fault_plan=named_plan("flaky-object"),
        chunk_size=16 * 1024,
        storage_node_count=3,
        disks_per_node=2,
        num_workers=8,
    )
    context.upload_csv("meters", "data.csv", _meter_rows(3000))
    context.register_csv_table(
        "meters", "meters", schema=SCHEMA, pushdown=True
    )
    return context


class TestAcceptanceReconciliation:
    """The PR's acceptance criterion: a parallelism-8 query under a
    named fault plan produces a trace whose per-tier byte totals exactly
    reconcile with TransferMetrics / resilience_summary."""

    def test_trace_reconciles_with_legacy_counters(self, traced_scoop):
        frame, report = traced_scoop.run_query(
            "SELECT vid, city FROM meters WHERE index > 100"
        )
        assert len(frame.collect()) > 0

        tracer = traced_scoop.tracer
        spans = tracer.snapshot()
        totals = tracer.byte_totals()
        metrics = traced_scoop.connector.metrics
        summary = traced_scoop.resilience_summary()

        # Connector spans are finalized from the streaming iterator's
        # ``finally`` with exactly the consumed byte count, so the trace
        # and TransferMetrics agree to the byte.
        assert totals["connector"]["bytes_out"] == metrics.bytes_transferred
        assert report.bytes_transferred == metrics.bytes_transferred

        # One client span per request(), carrying the attempt count:
        # summed, they equal the resilience loop's own request counter.
        client_spans = [s for s in spans if s.tier == "client"]
        assert client_spans
        assert (
            sum(s.attributes["attempts"] for s in client_spans)
            == summary["client_requests"]
        )

        # Every injected fault emitted one trace event.
        fault_events = [s for s in spans if s.tier == "faults"]
        assert summary["faults_injected"] == len(fault_events)
        assert summary["faults_injected"] > 0  # the plan actually fired

        # Every pushdown degradation emitted one trace event.
        degraded = [
            s for s in spans if s.operation == "pushdown_degraded"
        ]
        assert summary["pushdown_fallbacks"] == len(degraded)

        # The storlet tier saw the raw bytes; the connector received the
        # filtered stream, so pushdown moved strictly fewer bytes.
        assert totals["storlet"]["bytes_in"] > totals["storlet"]["bytes_out"]

    def test_columnar_segment_reads_reconcile(self):
        """Columnar reads are segment-granular: even a plain (degraded,
        no-pushdown) scan fetches only the referenced byte ranges, so
        the connector tier moves fewer bytes than the objects hold --
        and the trace must still balance with TransferMetrics exactly,
        with no phantom bytes from ranges that were coalesced, pruned
        via stripe stats, or abandoned by an early-stopping LIMIT."""
        context = ScoopContext(
            trace=True,
            parallelism=8,
            fault_plan=named_plan("flaky-object"),
            chunk_size=16 * 1024,
        )
        context.upload_csv("meters", "data.csv", _meter_rows(3000))
        context.register_csv_table(
            "meters", "meters", schema=SCHEMA, format="columnar"
        )
        reports = [
            context.run_query(sql)[1]
            for sql in (
                "SELECT vid, city FROM meters WHERE index > 100",
                "SELECT city FROM meters",  # single-column projection
                "SELECT vid FROM meters LIMIT 5",  # early stop
            )
        ]

        profile = context.explain_profile()
        tier = profile["tiers"]["connector"]
        metrics = context.connector.metrics
        assert tier["bytes_out"] == metrics.bytes_transferred
        # Sub-object granularity actually happened: no single query
        # moved as many bytes as the columnar objects hold.
        object_bytes = context.connector.dataset_size("meters--columnar")
        assert all(
            0 < report.bytes_transferred < object_bytes
            for report in reports
        )
        # Per-span finalization means the totals are a sum of exact
        # consumed counts, not request sizes: re-deriving the tier total
        # from the raw spans must give the same number.
        spans = context.tracer.snapshot()
        connector_bytes = sum(
            s.bytes_out for s in spans if s.tier == "connector"
        )
        assert connector_bytes == metrics.bytes_transferred

    @pytest.mark.parametrize("read", ["plain_get", "segment_get"])
    def test_failed_open_finishes_the_connector_span(self, read):
        """An object deleted after discovery makes the GET raise before
        any chunk iterator is handed out, so no stream teardown will
        ever finish the connector span: the connector must close it
        itself, or it stays on the thread's span stack and mis-parents
        every later span there."""
        context = ScoopContext(trace=True, chunk_size=16 * 1024)
        context.upload_csv("meters", "data.csv", _meter_rows(300))
        split = context.connector.discover_partitions("meters")[0]
        context.client.delete_object("meters", "data.csv")
        tracer = context.tracer
        tracer.reset()
        with pytest.raises(NotFound):
            if read == "plain_get":
                context.connector.open_split_stream(split, None)
            else:
                context.connector.read_byte_ranges(split, [(0, 10)])
        assert tracer._stack() == []
        connector_spans = [
            (s.operation, s.status)
            for s in tracer.snapshot()
            if s.tier == "connector"
        ]
        assert connector_spans == [(read, "error")]

    def test_json_export_round_trips(self, traced_scoop):
        traced_scoop.run_query("SELECT vid FROM meters WHERE index > 100")
        exported = traced_scoop.tracer.export_json()
        parsed = json.loads(json.dumps(exported))
        assert parsed["span_count"] == len(parsed["spans"])
        assert (
            parsed["byte_totals"]["connector"]["bytes_out"]
            == traced_scoop.connector.metrics.bytes_transferred
        )

    def test_chrome_export_is_valid_trace_event_json(self, traced_scoop):
        traced_scoop.run_query("SELECT vid FROM meters WHERE index > 100")
        exported = traced_scoop.tracer.export_chrome()
        parsed = json.loads(json.dumps(exported))
        events = parsed["traceEvents"]
        assert events
        named_tids = set()
        for event in events:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "M":
                assert event["name"] == "thread_name"
                named_tids.add(event["tid"])
            else:
                assert isinstance(event["ts"], (int, float))
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0
                assert isinstance(event["name"], str)
        # Every virtual thread used by a span has a name.
        assert {e["tid"] for e in events if e["ph"] == "X"} <= named_tids

    def test_explain_profile_surfaces_every_dimension(self, traced_scoop):
        _frame, report = traced_scoop.run_query(
            "SELECT vid FROM meters WHERE index > 100"
        )
        profile = traced_scoop.explain_profile()
        assert profile["tiers"]["connector"]["bytes_out"] == (
            traced_scoop.connector.metrics.bytes_transferred
        )
        assert (
            profile["selectivity"]["achieved"] == report.data_selectivity
        )
        assert profile["storlet_cpu_seconds"] > 0
        assert profile["retry"]["schedule_taken"] == list(
            traced_scoop.client.stats.delays
        )
        assert profile["faults_injected"] == traced_scoop.fault_plan.fired()
        json.dumps(profile)  # JSON-ready


class TestPutPathTracing:
    """PUT-path ETL invocations carry a trace id end to end: the client
    mints one per upload (the connector only does so for GETs), and the
    proxy, ETL storlet sandbox and object tiers attach their spans to
    it."""

    def _etl_upload(self):
        context = ScoopContext(
            trace=True,
            storage_node_count=2,
            disks_per_node=1,
        )
        raw = "m0001, 2015-01-01 ,1.5,Paris\n\nm0002,2015-01-02,2.5,Lyon\n"
        context.upload_csv("meters", "data.csv", raw, etl_schema=SCHEMA)
        return context

    def test_upload_spans_share_one_minted_trace_id(self):
        context = self._etl_upload()
        spans = context.tracer.snapshot()
        put_spans = [
            s for s in spans
            if s.trace_id and "PUT" in s.operation or s.tier == "storlet"
        ]
        put_ids = {
            s.trace_id
            for s in spans
            if s.tier == "client" and s.operation.startswith("PUT /")
            and "data.csv" in s.operation
        }
        assert len(put_ids) == 1
        (trace_id,) = put_ids
        assert trace_id  # minted, not blank
        tiers = {
            s.tier for s in spans if s.trace_id == trace_id
        }
        # Full per-tier coverage for the upload pipeline.
        assert {"client", "proxy", "storlet", "object"} <= tiers
        assert put_spans

    def test_etl_storlet_bytes_reconcile_on_put(self):
        context = self._etl_upload()
        spans = context.tracer.snapshot()
        storlet_spans = [
            s for s in spans if s.tier == "storlet" and s.trace_id
        ]
        assert storlet_spans
        # The cleansing storlet consumed the raw upload and emitted the
        # cleansed object actually stored (replica writes then fan out),
        # so trace bytes reconcile with what the store holds.
        bytes_out = sum(s.bytes_out for s in storlet_spans)
        _headers, stored = context.client.get_object("meters", "data.csv")
        replicas = context.cluster.object_ring.replica_count
        assert bytes_out == len(stored) * len(storlet_spans)
        assert sum(s.bytes_in for s in storlet_spans) > 0
        assert len(storlet_spans) <= max(replicas, 1)

    def test_plain_put_without_tracer_stays_unlabelled(self):
        # Pinned off: "without tracer" must not depend on REPRO_TRACE.
        context = ScoopContext(
            trace=False, storage_node_count=2, disks_per_node=1
        )
        context.upload_csv("c", "o.csv", "a,1\n")
        assert context.tracer.snapshot() == []


class TestTraceDisabledByDefault:
    def test_untraced_context_records_no_spans(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        context = ScoopContext(
            storage_node_count=2,
            disks_per_node=1,
            proxy_count=1,
            replica_count=1,
        )
        context.upload_csv("c", "o.csv", "a,1\nb,2\n")
        context.register_csv_table(
            "t", "c", schema=Schema.of("k", "v:int"), pushdown=True
        )
        context.run_query("SELECT k FROM t WHERE v > 1")
        assert context.tracer.snapshot() == []
        assert context.explain_profile()["tiers"] == {}


# -- one registry and one tracer per context ----------------------------------

AB_SCHEMA = Schema.of("vid", "n:int", "city")
AB_ROWS = "".join(f"v{i},{i},{'Paris' if i % 2 else 'Lyon'}\n" for i in range(300))
#: Full-drain queries: their request and byte counts are exact at any
#: parallelism.
AB_QUERIES = (
    "SELECT vid FROM t WHERE n < 100",
    "SELECT city, COUNT(*) FROM t GROUP BY city",
    "SELECT * FROM t WHERE city = 'Paris'",
)


def _ab_context(upload=True, **kwargs):
    options = dict(chunk_size=1024, placement="object", skipping=False)
    options.update(kwargs)
    context = ScoopContext(**options)
    if upload:
        context.upload_csv("meters", "a.csv", AB_ROWS)
    return context


def _register(context):
    context.register_csv_table("t", "meters", schema=AB_SCHEMA, format="csv")


def _snapshot(context) -> str:
    return json.dumps(context.registry.snapshot(), sort_keys=True)


def _counts(context):
    """Every deterministic count a full-drain workload leaves."""
    profile = context.explain_profile()
    return (
        context.connector.metrics.totals(),
        context.client.stats.requests,
        profile["sql"],
        profile["delegation"],
        {
            node: (row["invocations"], row["bytes_in"], row["bytes_out"])
            for node, row in context.sandbox_summary().items()
        },
    )


class TestOneRegistryPerContext:
    def test_a_query_counts_in_its_own_context_only(self):
        """Build A, upload, build B, then register and query on A."""
        a = _ab_context()
        b = _ab_context(upload=False)
        before = _snapshot(b)
        _register(a)
        a.run_query("SELECT vid FROM t WHERE n < 100")
        assert _snapshot(b) == before
        assert b.registry.counter_total("sandbox.invocations") == 0
        profile = a.explain_profile()
        assert profile["sql"]["queries"] == {"batch": 1}
        assert profile["sql"]["filters"] == {"handled": 1}
        assert [entry["reason"] for entry in profile["delegation"]] == ["placed:object"]
        assert a.registry.counter_total("client.requests") == a.client.stats.requests
        assert a.registry.counter_total("sandbox.invocations") > 0

    def test_interleaved_contexts_at_parallelism_8_keep_their_own_counts(self):
        def built():
            context = _ab_context(parallelism=8)
            _register(context)
            return context

        alone = built()
        for sql in AB_QUERIES:
            alone.run_query(sql)
        pair = [built(), built()]
        barrier = threading.Barrier(len(pair))

        def work(context):
            for sql in AB_QUERIES:
                barrier.wait(timeout=30)
                context.run_query(sql)

        threads = [threading.Thread(target=work, args=(ctx,)) for ctx in pair]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for context in pair:
            assert _counts(context) == _counts(alone)
            assert context.registry.counter_total("client.requests") == (
                context.client.stats.requests
            )

    def test_a_traced_context_beside_an_untraced_one(self):
        traced = _ab_context(trace=True)
        untraced = _ab_context(trace=False)
        for context in (traced, untraced):
            _register(context)
        traced.run_query(AB_QUERIES[0])
        recorded = len(traced.tracer.snapshot())
        assert recorded > 0
        untraced.run_query(AB_QUERIES[0])
        assert untraced.tracer.snapshot() == []
        assert len(traced.tracer.snapshot()) == recorded
        traced.run_query(AB_QUERIES[0])
        assert len(traced.tracer.snapshot()) > recorded

    def test_a_bare_cluster_and_client_count_into_their_own_registry(self):
        cluster = SwiftCluster(storage_node_count=2, disks_per_node=1)
        other = SwiftCluster(storage_node_count=2, disks_per_node=1)
        client = SwiftClient(cluster, "AUTH_bare")
        client.put_container("c")
        client.put_object("c", "o", b"payload")
        assert client.get_object("c", "o")[1] == b"payload"
        assert client.registry is cluster.registry
        assert client.stats.requests == 4
        assert cluster.registry.counter_total("client.requests") == 4
        assert cluster.counters["requests"] == 4
        assert other.registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert not cluster.tracer.enabled


class TestOneBookForTheSandbox:
    """``sandbox_summary()`` and the registry's ``sandbox.*`` series are
    one count: bytes and charged CPU as they flow, invocations on
    drain -- including streams a LIMIT abandons and invocations a
    fault kills."""

    @pytest.mark.parametrize("plan", [None, "storlet-crash"])
    def test_sandbox_summary_is_the_registry(self, plan):
        context = _ab_context(
            upload=False,
            chunk_size=1 << 20,
            fault_plan=named_plan(plan) if plan else None,
        )
        rows = "".join(f"v{i:06d},{i},Paris\n" for i in range(20000))
        context.upload_csv("meters", "a.csv", rows)
        _register(context)
        context.run_query("SELECT vid FROM t WHERE n >= 0 LIMIT 5")
        context.run_query("SELECT vid FROM t WHERE n < 100")
        summary = context.sandbox_summary()
        assert sum(row["bytes_in"] for row in summary.values()) > 0
        for node, row in summary.items():
            for name in ("invocations", "bytes_in", "bytes_out", "cpu_seconds"):
                counted = context.registry.counter_value(f"sandbox.{name}", node=node)
                assert row[name] == counted, (node, name)
        assert context.storage_cpu_seconds() == pytest.approx(
            sum(
                context.registry.counter_value("sandbox.cpu_seconds", node=node)
                for node in summary
                if node.startswith("storage")
            )
        )
