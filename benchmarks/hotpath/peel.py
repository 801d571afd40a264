"""The traced run: benchmark-side spans, the five-depth peel, layer drills.

Nothing inside ``src/`` is instrumented.  For each query the same splits
are driven at five depths through the layers' public functions, one span
per call; a layer's self time is its depth minus the depth below, so the
five sum to the ``run_query`` time (L4) by construction:

====  =========  ===========================================================
L0    swift      ``SwiftClient.get_object_stream`` over each split's range
L1    storlets   the same GET carrying ``PushdownTask.apply_to_headers``
                 (skipped, self time 0, when pushdown is off)
L2    connector  ``StocatorConnector.open_split_stream`` drained
                 (``read_split_records`` for plain reads)
L3    spark      ``relation.build_scan_filtered(...)`` drained through
                 ``SparkContext.iter_batches`` -- the call the session makes
L4    sql        ``ScoopContext.run_query``
====  =========  ===========================================================

L0-L2 run on the driver thread through the sync client; L3-L4 run under
the workload's own scheduler, so on the threaded / async workloads a
self time may come out slightly negative (overlap the serial depths do
not have).  It is reported as measured.  Depth and drill times are in
reference-speed seconds like every other time (see :mod:`refclock`);
span ``start`` / ``end`` are raw ``perf_counter`` readings and each
depth span carries its ``reference_s`` beside them.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.columnar import decode_footer, decode_stripe, encode_columnar
from repro.core.pushdown import PushdownTask
from repro.gridpocket.generator import METER_SCHEMA, MeterDataGenerator
from repro.sql.catalyst import Optimizer, build_logical_plan, extract_pushdown
from repro.sql.executor import execute_query
from repro.sql.parser import parse_query
from repro.storlets.api import StorletInputStream, StorletLogger
from repro.storlets.columnar_storlet import CsvToColumnarStorlet
from repro.storlets.csv_storlet import CsvStorlet
from repro.storlets.engine import StorletRequestHeaders
from repro.swift.http import DEFAULT_CHUNK_SIZE, chunk_bytes

from workloads import (
    CSV_CONTAINER,
    QUERIES,
    RCF_CONTAINER,
    TABLE,
    Bench,
    Scale,
    Workload,
)

#: Layer charged with each depth, bottom up.
LAYERS = ("swift", "storlets", "connector", "spark", "sql")

#: Share of ``--seconds`` spent on (untraced pass, peel pass) pairs and
#: on the trace-on cell; the drills take what little is left.
PAIRS_SHARE, TRACE_ON_SHARE = 0.6, 0.25
MIN_PAIRS = 2


class SpanLog:
    """Spans kept in memory and written as JSON when the run ends."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: List[dict] = []

    @contextmanager
    def span(
        self, name: str, layer: str, op: str, run_id: str,
        parent: Optional[int] = None,
    ) -> Iterator[dict]:
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "workload": self.workload,
            "op": op,
            "run_id": run_id,
            "parent": parent,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"workload": self.workload, "seed": self.seed, "spans": self.spans}
            )
        )


def _drain(chunks: Iterable[bytes]) -> int:
    return sum(len(chunk) for chunk in chunks)


def _split_task(scan, part) -> Optional[PushdownTask]:
    """The task one split's GET carries.  A columnar split's task also
    names its stripes; the scan RDD's own (private) helpers build that,
    the one place the peel reaches under a public surface."""
    if scan.task is None or scan.task.is_noop():
        return None
    if hasattr(part, "stripes"):
        return scan._split_task(scan._pruned_stripes(part))
    return scan.task


def peel_query(
    bench: Bench, log: SpanLog, name: str, sql: str, run_id: str
) -> Dict[str, float]:
    """Drive one query at the five depths.

    Returns each layer's *depth* seconds (``storlets`` equals ``swift``
    when no pushdown task travels) plus the bytes L0 moved as ``l0_bytes``.
    """
    ctx = bench.ctx
    client, connector = ctx.client, ctx.connector
    relation = ctx.session.relation(TABLE)
    pushdown = extract_pushdown(parse_query(sql), relation.schema())
    columns = pushdown.required_columns or relation.schema().names
    # Untimed: only to learn which splits and task the scan would use.
    scan = relation.build_scan_filtered(columns, pushdown.filters)
    parts = [
        (getattr(part, "split", part), _split_task(scan, part))
        for part in scan.splits
    ]

    def depth(level: int, body: Callable[[dict], None]) -> float:
        """Time ``body(depth span)`` as depth ``level``."""

        def spanned() -> dict:
            with log.span(f"L{level}", LAYERS[level], name, run_id) as outer:
                body(outer)
            return outer

        outer, seconds = bench.clock.timed(spanned)
        outer["reference_s"] = seconds
        return seconds

    def per_split(call: str, read: Callable) -> Callable[[dict], None]:
        """``read(split, task)`` over every split, one child span each."""

        def body(outer: dict) -> None:
            for split, task in parts:
                with log.span(call, outer["layer"], name, run_id, outer["id"]):
                    read(split, task)

        return body

    def raw_get(split, _task):
        response = client.get_object_stream(
            split.container, split.name, byte_range=(split.start, split.end)
        )
        _drain(response.iter_body())

    def storlet_get(split, task):
        headers: Dict[str, str] = {}
        task.apply_to_headers(headers)
        headers[StorletRequestHeaders.RANGE] = f"bytes={split.start}-{split.end}"
        response = client.get_object_stream(
            split.container, split.name, headers=headers
        )
        _drain(response.iter_body())

    def connector_read(split, task):
        if task is None:
            _drain(connector.read_split_records(split))
        else:
            _headers, chunks = connector.open_split_stream(split, task)
            _drain(chunks)

    def scan_drained(_outer):
        fresh = relation.build_scan_filtered(columns, pushdown.filters)
        for _batch in ctx.spark_context.iter_batches(fresh):
            pass

    depths = {
        "swift": depth(0, per_split("SwiftClient.get_object_stream", raw_get)),
        "l0_bytes": sum(split.length for split, _task in parts),
    }
    if any(task is not None for _split, task in parts):
        depths["storlets"] = depth(
            1, per_split("SwiftClient.get_object_stream+task", storlet_get)
        )
    else:
        depths["storlets"] = depths["swift"]
    depths["connector"] = depth(
        2, per_split("StocatorConnector.open_split_stream", connector_read)
    )
    depths["spark"] = depth(3, scan_drained)
    # L4's span covers the bracketing work samples and the oracle check
    # too; its reference_s is the run_query call alone.
    with log.span("L4", "sql", name, run_id) as outer:
        depths["sql"] = bench.run_query(name, sql)
    outer["reference_s"] = depths["sql"]
    return depths


def self_times(depths: Dict[str, float]) -> Dict[str, float]:
    """Per-layer self seconds: each depth minus the depth below."""
    below = 0.0
    result = {}
    for layer in LAYERS:
        result[layer] = depths[layer] - below
        below = depths[layer]
    return result


# -- counters ----------------------------------------------------------------


def _counters(bench: Bench) -> Dict[str, float]:
    """Every cumulative counter the layers keep, flattened."""
    ctx = bench.ctx
    resilience = ctx.resilience_summary()
    concurrency = ctx.concurrency_summary()
    sandboxes = ctx.sandbox_summary().values()
    metrics = ctx.connector.metrics
    return {
        "swift.requests": resilience["client_requests"],
        "swift.retries": resilience["client_retries"],
        "swift.get_failovers": resilience["get_failovers"],
        "swift.pool_waits": concurrency["client_pool_waits"],
        "swift.proxy_queue_waits": concurrency["proxy_queue_waits"],
        "storlets.invocations": sum(s["invocations"] for s in sandboxes),
        "storlets.cpu_s": sum(s["cpu_seconds"] for s in sandboxes),
        "storlets.bytes_in": sum(s["bytes_in"] for s in sandboxes),
        "storlets.bytes_out": sum(s["bytes_out"] for s in sandboxes),
        "connector.bytes_requested": metrics.bytes_requested,
        "connector.bytes_transferred": metrics.bytes_transferred,
        "connector.pushdown_requests": metrics.pushdown_requests,
        "connector.pushdown_fallbacks": metrics.pushdown_fallbacks,
        "spark.tasks": len(ctx.spark_context.task_log),
        "spark.task_retries": resilience["task_retries"],
        # The clock's work samples run on this process too; take them out.
        "process.cpu_s": time.process_time() - sum(bench.clock.samples),
    }


# -- drills ------------------------------------------------------------------


def _median_seconds(
    bench: Bench, call: Callable[[], object], repeats: int = 3
) -> float:
    return statistics.median(bench.clock.timed(call)[1] for _ in range(repeats))


def storlet_drills(bench: Bench) -> Dict[str, float]:
    """Storlets fed directly, outside the store.

    ``csv_mb_per_s`` feeds ``DEFAULT_CHUNK_SIZE`` (64 KiB) chunks as the
    object backend does; ``csv_whole_object_mb_per_s`` feeds the same
    bytes as one chunk, which makes ``_owned_lines`` re-slice its whole
    buffer per record -- quadratic in the chunk, and the shape the
    existing micro-benchmark measures.  Half the corpus (~1.5 MB) is
    enough to show the gap; both are reported so it stays visible.
    """
    objects = [data for _name, data in bench.corpus.objects]
    half_corpus = b"".join(objects[: len(objects) // 2])
    selective = extract_pushdown(parse_query(QUERIES["q_selective"]), METER_SCHEMA)
    filter_parameters = PushdownTask(
        schema=METER_SCHEMA,
        columns=selective.required_columns,
        filters=selective.filters,
    ).to_parameters()
    convert_parameters = {
        "schema": METER_SCHEMA.to_header(),
        "has_header": "false",
        "stripe_bytes": str(bench.scale.chunk_size),
    }

    def mb_per_s(storlet, parameters, data, chunks, repeats=3) -> float:
        def feed() -> int:
            return _drain(
                storlet.process(
                    StorletInputStream(chunks(data)),
                    dict(parameters),
                    StorletLogger("drill"),
                    {},
                )
            )

        return len(data) / 1e6 / _median_seconds(bench, feed, repeats)

    def backend_chunks(data):
        return chunk_bytes(data, DEFAULT_CHUNK_SIZE)

    return {
        "storlets.csv_mb_per_s": mb_per_s(
            CsvStorlet(), filter_parameters, half_corpus, backend_chunks
        ),
        "storlets.csv_whole_object_mb_per_s": mb_per_s(
            CsvStorlet(), filter_parameters, half_corpus, lambda data: [data],
            repeats=1,
        ),
        "storlets.csv2columnar_mb_per_s": mb_per_s(
            CsvToColumnarStorlet(), convert_parameters, objects[0], backend_chunks
        ),
    }


def library_drills(bench: Bench) -> Dict[str, float]:
    """``repro.sql`` and ``repro.columnar`` over in-memory typed rows."""
    corpus = bench.corpus
    rows = list(MeterDataGenerator(corpus.spec).rows())

    def plan_all() -> None:
        for sql in QUERIES.values():
            query = parse_query(sql)
            Optimizer().optimize(build_logical_plan(query, METER_SCHEMA))
            extract_pushdown(query, METER_SCHEMA)

    encoded: List[bytes] = []

    def decode_all() -> None:
        footer = decode_footer(encoded[-1])
        for stripe in footer.stripes:
            decode_stripe(encoded[-1], stripe, footer.schema)

    encode_s = _median_seconds(
        bench, lambda: encoded.append(encode_columnar(METER_SCHEMA, rows))
    )
    return {
        "sql.plan_ms": 1e3 * _median_seconds(bench, plan_all, repeats=20),
        "sql.execute_rows_per_s": len(rows)
        / _median_seconds(
            bench, lambda: execute_query(QUERIES["q_groupby"], METER_SCHEMA, rows)
        ),
        "columnar.encode_rows_per_s": len(rows) / encode_s,
        "columnar.decode_rows_per_s": len(rows)
        / _median_seconds(bench, decode_all),
        "columnar.bytes_per_csv_byte": len(encoded[-1]) / corpus.csv_bytes,
    }


def store_drills(bench: Bench) -> Dict[str, float]:
    """Partition discovery and raw PUT throughput on the live store."""
    ctx, corpus = bench.ctx, bench.corpus
    if bench.workload.table_format == "columnar":
        discover = lambda: ctx.connector.discover_columnar_partitions(RCF_CONTAINER)
    else:
        discover = lambda: ctx.connector.discover_partitions(
            CSV_CONTAINER, record_aligned=True
        )

    def put_all() -> None:
        ctx.client.put_container("drill")
        for name, data in corpus.objects:
            ctx.client.put_object("drill", name, data)

    _none, put_s = bench.clock.timed(put_all)
    return {
        "connector.discover_s": _median_seconds(bench, discover),
        "swift.put_mb_per_s": corpus.csv_bytes / 1e6 / put_s,
    }


# -- the run -----------------------------------------------------------------


def run_traced(
    workload: Workload, scale: Scale, seed: int, seconds: float, span_path: Path
) -> dict:
    """One traced run: returns ``attempted``, ``failed`` and every
    per-layer metric by name."""
    bench = Bench(workload, scale, seed)
    bench.setup()
    rows = bench.corpus.rows
    log = SpanLog(workload.name, seed)
    bench.run_pass()  # unmeasured warm-up

    # (untraced pass, peel pass) pairs; the layers' counters are read
    # around the untraced passes only, so the peel's extra GETs and
    # storlet invocations never leak into them.
    plain: List[Dict[str, float]] = []
    peels: List[Dict[str, Dict[str, float]]] = []
    counted = dict.fromkeys(_counters(bench), 0.0)
    deadline = time.perf_counter() + PAIRS_SHARE * seconds
    while len(plain) < MIN_PAIRS or time.perf_counter() < deadline:
        before = _counters(bench)
        plain.append(bench.run_pass())
        for key, value in _counters(bench).items():
            counted[key] += value - before[key]
        run = len(peels)
        peels.append(
            {
                name: peel_query(bench, log, name, sql, f"{run}:{name}")
                for name, sql in QUERIES.items()
            }
        )
    passes = len(plain)

    metrics: Dict[str, float] = {}
    l4_total = plain_total = l3_total = 0.0
    for name in QUERIES:
        depths = {
            key: statistics.median(peel[name][key] for peel in peels)
            for key in LAYERS
        }
        for layer, seconds_self in self_times(depths).items():
            metrics[f"{layer}.self_s.{name}"] = seconds_self
            metrics[f"{layer}.self_share.{name}"] = seconds_self / depths["sql"]
        l4_total += depths["sql"]
        l3_total += depths["spark"]
        plain_total += statistics.median(p[f"{name}_s"] for p in plain)
    l0_bytes = sum(peel[name]["l0_bytes"] for peel in peels for name in QUERIES)
    l0_seconds = sum(peel[name]["swift"] for peel in peels for name in QUERIES)
    metrics["swift.get_mb_per_s"] = l0_bytes / 1e6 / l0_seconds
    metrics["spark.scan_rows_per_s"] = len(QUERIES) * rows / l3_total
    metrics["bench.trace_overhead_frac"] = l4_total / plain_total - 1.0

    cpu_s = counted.pop("process.cpu_s")
    metrics["process.cpu_s_per_mrow"] = cpu_s / (passes * rows / 1e6)
    for key, value in counted.items():
        metrics[key] = value / passes  # per pass
    metrics["swift.proxy_peak_inflight"] = bench.ctx.concurrency_summary()[
        "proxy_peak_inflight"
    ]
    bytes_in = counted["storlets.bytes_in"]
    metrics["storlets.discard_ratio"] = (
        1.0 - counted["storlets.bytes_out"] / bytes_in if bytes_in else 0.0
    )
    metrics["gridpocket.generate_rows_per_s"] = rows / bench.corpus.generate_s
    metrics.update(store_drills(bench))
    metrics.update(storlet_drills(bench))
    metrics.update(library_drills(bench))

    # The trace-on cell comes last: building its context installs an
    # *enabled* process-wide span collector, which every context built
    # earlier would start writing to.
    traced = Bench(
        workload, scale, seed, oracle=bench.oracle, clock=bench.clock, trace=True
    )
    traced.setup()
    traced.run_pass()
    traced_passes: List[float] = []
    deadline = time.perf_counter() + TRACE_ON_SHARE * seconds
    while len(traced_passes) < MIN_PAIRS or time.perf_counter() < deadline:
        traced_passes.append(traced.run_pass()["pass_s"])
    metrics["obs.trace_on_overhead_frac"] = (
        statistics.median(traced_passes)
        / statistics.median(p["pass_s"] for p in plain)
        - 1.0
    )

    log.write(span_path)
    print(
        f"# traced: {passes} (untraced, peel) pairs, {len(traced_passes)} "
        f"trace-on passes, {len(log.spans)} spans -> {span_path}; machine at "
        f"{bench.clock.machine_speed():.2f}x reference speed"
    )
    return {
        "attempted": bench.attempted + traced.attempted,
        "failed": bench.failed + traced.failed,
        "metrics": metrics,
    }
