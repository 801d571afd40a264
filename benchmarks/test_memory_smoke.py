"""Peak-memory smoke benchmark for the streaming data plane.

Verifies the O(chunk_size x pipeline depth) memory guarantee end to end
(docs/data_plane.md): draining a multi-megabyte object through a plain
GET, a pushdown GET and a two-storlet pipelined GET must never
materialize the object -- peak traced allocation stays a small multiple
of the transfer chunk size, independent of object size.

Self-contained (plain pytest + tracemalloc, no pytest-benchmark), so it
can run in CI as a hard regression gate:

    PYTHONPATH=src python -m pytest benchmarks/test_memory_smoke.py -q
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.pushdown import PushdownTask
from repro.core.scoop import ScoopContext
from repro.faults import named_plan
from repro.sql import GreaterThan, Schema
from repro.storlets import CsvStorlet
from repro.storlets.api import StorletInputStream, StorletLogger
from repro.swift.http import DEFAULT_CHUNK_SIZE

SCHEMA = Schema.from_header("vid:string,index:int,city:string")

#: Object size well above the ceiling so a single materialization fails.
OBJECT_BYTES = 8 * 2**20

#: The guarantee under test: a generous multiple of the 64 KiB transfer
#: chunk covering every tier's bounded state (record buffers, coalesce
#: buffers and their per-object overhead, zlib windows, parse scratch),
#: yet 4x below the object size.  Measured peaks sit around 1.1-1.3 MiB
#: and, crucially, do not move when the object doubles.
PEAK_CEILING = min(32 * DEFAULT_CHUNK_SIZE, OBJECT_BYTES // 4)


@pytest.fixture(scope="module")
def scoop():
    # One split covers the whole object so each drain is a single
    # streaming GET of OBJECT_BYTES.
    context = ScoopContext(chunk_size=4 * OBJECT_BYTES)
    row = "vid-{0:07d},{0},Paris\n"
    rows = []
    size = 0
    index = 0
    while size < OBJECT_BYTES:
        line = row.format(index)
        rows.append(line)
        size += len(line)
        index += 1
    context.upload_csv("bench", "data.csv", "".join(rows))
    return context


def traced_peak(drain) -> int:
    tracemalloc.start()
    try:
        drain()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def consume(chunks) -> int:
    total = 0
    for chunk in chunks:
        total += len(chunk)
    return total


class TestStreamingPeakMemory:
    def test_plain_get_is_o_chunk_size(self, scoop):
        def drain():
            response = scoop.client.get_object_stream("bench", "data.csv")
            assert consume(response.iter_body()) >= OBJECT_BYTES

        assert traced_peak(drain) < PEAK_CEILING

    def test_pushdown_get_is_o_chunk_size(self, scoop):
        split = scoop.connector.discover_partitions("bench")[0]
        task = PushdownTask(
            schema=SCHEMA,
            columns=["vid"],
            filters=[GreaterThan("index", 10.0)],
        )

        def drain():
            _headers, chunks = scoop.connector.open_split_stream(split, task)
            assert consume(chunks) > 0

        assert traced_peak(drain) < PEAK_CEILING

    def test_whole_object_chunk_is_o_block_size(self):
        """The CSV reader caps its blocks, so even an object handed over
        as one chunk never becomes an object-sized list of records."""
        data = b"".join(
            b"vid-%07d,%d,Paris\n" % (index, index)
            for index in range(OBJECT_BYTES // 20)
        )
        parameters = PushdownTask(
            schema=SCHEMA,
            columns=["vid"],
            filters=[GreaterThan("index", 10.0)],
        ).to_parameters()

        def drain():
            output = CsvStorlet().process(
                StorletInputStream([data]), parameters, StorletLogger("m"), {}
            )
            assert consume(output) > 0

        # ``data`` predates the trace, so the peak is the storlet's own.
        assert traced_peak(drain) < PEAK_CEILING

    def test_two_storlet_pipeline_is_o_chunk_size(self, scoop):
        """csvstorlet,zlibcompress pipelined: compress-after-filter."""
        split = scoop.connector.discover_partitions("bench")[0]
        task = PushdownTask(
            schema=SCHEMA,
            columns=["vid"],
            filters=[GreaterThan("index", 10.0)],
            compress=True,
        )

        def drain():
            _headers, chunks = scoop.connector.open_split_stream(split, task)
            assert consume(chunks) > 0

        assert traced_peak(drain) < PEAK_CEILING


class TestDroppedContextsDoNotPileUp:
    """A dropped context must not be cyclic garbage (docs/data_plane.md):
    its store holds every replica of every object, so benchmarks and
    test suites that build contexts back to back would otherwise carry
    the dead stores until a full collection happened to run.  The
    contexts carry a fault plan: its injector lives in the store it
    faults, the likeliest place for a cycle."""

    def _build_and_drop(self, contexts: int) -> int:
        def drain():
            for _ in range(contexts):
                context = ScoopContext(
                    trace=False, fault_plan=named_plan("flaky-object")
                )
                # ~1 MB built inside the trace, so a pinned store shows.
                context.upload_csv(
                    "bench", "data.csv", b"vid-0000001,1,Paris\n" * 50_000
                )
                del context

        return traced_peak(drain)

    def test_five_contexts_peak_like_one(self):
        import gc

        gc.collect()
        gc.disable()
        try:
            one = self._build_and_drop(1)
            five = self._build_and_drop(5)
        finally:
            gc.enable()
        assert five < 1.5 * one, (one, five)
