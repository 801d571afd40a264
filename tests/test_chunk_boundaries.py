"""Streaming data-plane tests: record integrity across chunk boundaries
and LIMIT early termination.

The streaming refactor moves bounded chunk iterators through every tier,
so records routinely straddle chunk boundaries.  These tests feed the
same fixture through each record-aligning reader at chunk sizes 1 B (a
boundary inside every record), 7 B (boundaries at awkward offsets) and
64 KiB (the production default, no interior boundary) and require
byte-identical output.
"""

import csv
import io
import time
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import csvscan
from repro.connector import StocatorConnector
from repro.connector.split_planner import plan_split_starts
from repro.core.scoop import ScoopContext
from repro.csvscan import CsvScan, owned_records
from repro.sql import GreaterThan, Schema
from repro.sql.filters import filters_to_json
from repro.storlets import CsvStorlet, StorletEngine
from repro.storlets.api import StorletInputStream, StorletLogger
from repro.storlets.etl_storlet import CleansingStorlet
from repro.swift import SwiftClient, SwiftCluster
from repro.swift.http import chunk_bytes

CHUNK_SIZES = [1, 7, 64 * 1024]

SCHEMA = Schema.from_header("vid:string,index:int,city:string")

FIXTURE = b"".join(
    f"vid-{i:03d},{i},{'Paris' if i % 3 else 'Lyon'}\n".encode()
    for i in range(50)
)


def quote_first_field(record):
    """The same record with its first field quoted, which keeps it off
    the reader's block-at-a-time path."""
    return b'"' + record.replace(b",", b'",', 1)


#: The same records as FIXTURE, but no block of it is regular, so the
#: reader takes its record-by-record path throughout.
QUOTED_FIXTURE = b"".join(
    map(quote_first_field, FIXTURE.splitlines(keepends=True))
)


def run_storlet(storlet, parameters, chunk_size, data=FIXTURE):
    stream = StorletInputStream(chunk_bytes(data, chunk_size))
    metadata = {}
    output = b"".join(
        storlet.process(stream, parameters, StorletLogger("test"), metadata)
    )
    return output, metadata


def row_counts(metadata):
    """The storlet's ``rows-*`` metadata and its total filter
    evaluations.  The rest depends on where blocks are cut: it counts
    block columns by how they were validated, and evaluations by the
    domain a block's vector took."""
    counts = {
        key: value
        for key, value in metadata.items()
        if key.startswith("x-object-meta-storlet-rows-")
    }
    counts["evaluations"] = sum(
        int(value)
        for key, value in metadata.items()
        if key.startswith("x-object-meta-storlet-filter-evals-")
    )
    return counts


class TestCsvStorletChunkBoundaries:
    PARAMETERS = {
        "schema": SCHEMA.to_header(),
        "columns": '["vid", "index"]',
        "filters": filters_to_json([GreaterThan("index", 10.0)]),
    }

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_output_identical_across_chunk_sizes(self, chunk_size):
        baseline, base_meta = run_storlet(
            CsvStorlet(), dict(self.PARAMETERS), 64 * 1024
        )
        output, metadata = run_storlet(
            CsvStorlet(), dict(self.PARAMETERS), chunk_size
        )
        assert output == baseline
        assert row_counts(metadata) == row_counts(base_meta)
        assert metadata["x-object-meta-storlet-rows-out"] == "39"
        # The projection re-renders each record, so the per-record path
        # must produce the very same bytes and counts.
        quoted, quoted_meta = run_storlet(
            CsvStorlet(), dict(self.PARAMETERS), chunk_size, QUOTED_FIXTURE
        )
        assert (output, row_counts(metadata)) == (quoted, row_counts(quoted_meta))
        # Only a regular block counts how its columns were validated.
        assert not any("-columns-" in key for key in quoted_meta)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_every_record_intact(self, chunk_size):
        output, _ = run_storlet(
            CsvStorlet(), {"schema": SCHEMA.to_header()}, chunk_size
        )
        assert output == FIXTURE  # no projection/filter: passthrough
        quoted, _ = run_storlet(
            CsvStorlet(), {"schema": SCHEMA.to_header()}, chunk_size,
            QUOTED_FIXTURE,
        )
        assert quoted == QUOTED_FIXTURE


    def test_cost_is_linear_in_chunk_size(self):
        """A whole-object chunk must cost what 64 KiB chunks cost: the
        reader never re-slices the rest of its buffer per record (which
        made a one-chunk feed of 3 MB 20x slower than a chunked one)."""
        data = FIXTURE * (2 * 2**20 // len(FIXTURE))

        def best_seconds(chunk_size):
            timings = []
            for _ in range(3):
                started = time.perf_counter()
                run_storlet(
                    CsvStorlet(), dict(self.PARAMETERS), chunk_size, data
                )
                timings.append(time.perf_counter() - started)
            return min(timings)

        assert best_seconds(len(data)) < 2 * best_seconds(64 * 1024)


class TestCleansingStorletChunkBoundaries:
    PARAMETERS = {"schema": SCHEMA.to_header()}

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_output_identical_across_chunk_sizes(self, chunk_size):
        dirty = FIXTURE + b"  malformed-line\n , , \nvid-999,999,Nice\n"
        storlet = CleansingStorlet()
        baseline = b"".join(
            storlet.process(
                StorletInputStream(chunk_bytes(dirty, 64 * 1024)),
                dict(self.PARAMETERS),
                StorletLogger("test"),
                {},
            )
        )
        metadata = {}
        output = b"".join(
            storlet.process(
                StorletInputStream(chunk_bytes(dirty, chunk_size)),
                dict(self.PARAMETERS),
                StorletLogger("test"),
                metadata,
            )
        )
        assert output == baseline
        assert metadata["x-object-meta-etl-kept"] == "51"
        assert metadata["x-object-meta-etl-dropped"] == "2"


class TestConnectorChunkBoundaries:
    @pytest.fixture
    def store(self):
        engine = StorletEngine()
        cluster = SwiftCluster(
            storage_node_count=2,
            disks_per_node=1,
            proxy_middleware=[engine.proxy_middleware()],
            object_middleware=[engine.object_middleware()],
        )
        client = SwiftClient(cluster, "AUTH_bound")
        engine.deploy(CsvStorlet())
        client.put_container("c")
        client.put_object("c", "o", FIXTURE)
        return client

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_records_covered_exactly_once(self, store, chunk_size):
        connector = StocatorConnector(store, chunk_size=chunk_size)
        records = []
        for split in connector.discover_partitions("c"):
            records.extend(connector.read_split_records(split))
        assert records == FIXTURE.rstrip(b"\n").split(b"\n")


class TestLimitEarlyTermination:
    """A satisfied LIMIT must stop pulling chunks from the store."""

    @pytest.fixture
    def scoop(self):
        context = ScoopContext(chunk_size=4 * 1024)
        rows = "".join(
            f"vid-{i:05d},{i},{'Paris' if i % 2 else 'Lyon'}\n"
            for i in range(5000)
        )
        context.upload_csv("meters", "data.csv", rows)
        context.register_csv_table(
            "meters", "meters", schema=SCHEMA, pushdown=False
        )
        return context

    def test_limit_transfers_strictly_fewer_bytes(self, scoop):
        frame_all, report_all = scoop.run_query("SELECT vid FROM meters")
        frame_lim, report_lim = scoop.run_query(
            "SELECT vid FROM meters LIMIT 5"
        )
        assert len(frame_lim.collect()) == 5
        assert report_lim.bytes_transferred < report_all.bytes_transferred
        assert frame_lim.collect() == frame_all.collect()[:5]

    def test_limit_with_pushdown_transfers_fewer_bytes(self, scoop):
        scoop.register_csv_table(
            "meters_pd", "meters", schema=SCHEMA, pushdown=True
        )
        _frame_all, report_all = scoop.run_query(
            "SELECT vid FROM meters_pd WHERE index > 100"
        )
        frame_lim, report_lim = scoop.run_query(
            "SELECT vid FROM meters_pd WHERE index > 100 LIMIT 3"
        )
        assert len(frame_lim.collect()) == 3
        assert report_lim.bytes_transferred < report_all.bytes_transferred


# -- the reader against a whole-buffer reference -----------------------------

READER_SCHEMA = Schema.of("k", "n:int", "x:float")


def reference_records(data):
    """Whole-buffer framing in one byte walk: ``[(offset, record)]``."""
    records, start, in_quotes = [], 0, False
    for index, byte in enumerate(data):
        if byte == ord('"'):
            in_quotes = not in_quotes
        elif byte == ord("\n") and not in_quotes:
            records.append((start, data[start:index].rstrip(b"\r")))
            start = index + 1
    if start < len(data):
        records.append((start, data[start:]))  # unterminated tail, as is
    return records


def reference_scan(data, start=0, end=None):
    """``(records, typed rows)`` of the records starting in object
    offsets ``[start, end)`` (to the object's end when ``end`` is None)."""
    owned, rows = [], []
    for offset, raw in reference_records(data):
        if offset < start or (end is not None and offset >= end):
            continue
        owned.append(raw)
        try:
            text = raw.decode("utf-8")
            fields = (
                next(csv.reader(io.StringIO(text)))
                if '"' in text
                else text.split(",")
            )
            if len(fields) == len(READER_SCHEMA):
                rows.append(tuple(
                    field.dtype.parse(cell)
                    for field, cell in zip(READER_SCHEMA.fields, fields)
                ))
        except (UnicodeDecodeError, csv.Error, StopIteration, ValueError):
            pass
    return owned, rows


REGULAR_RECORDS = st.tuples(
    st.sampled_from(["a", "bb", "", "\u00e9t\u00e9", " pad "]),
    st.sampled_from(["1", "-7", "", " 3", "1_0"]),
    st.sampled_from(["2.5", "", "nan", "1e3", "-0.0"]),
).map(lambda fields: ",".join(fields).encode("utf-8"))

IRREGULAR_RECORDS = st.one_of(
    st.sampled_from([
        b'"q,1",2,3.5',  # quoted delimiter
        b'"multi\nline",4,0.5',  # quoted newline
        b'"say ""hi""",5,1.0',  # escaped quotes
        b'k,"6",1.5',
        b"x,oops,1.0",  # untypable
        b"x,1,2.5.1",
        b"x,1",  # wrong width
        b"x,1,2.0,extra",
        b"",  # empty line
        b"k\xff,1,1.0",  # not UTF-8
        b'"open,1,1.0',  # quote that never closes on its line
        b'a,1,1.0"x',
        b"cr\rinside,1,1.0",
    ]),
    st.binary(max_size=10),
)

CSV_BYTES = st.builds(
    lambda records, terminators, final: b"".join(
        record + terminators[index % len(terminators)]
        for index, record in enumerate(records)
    )[: None if final or not records else -1],
    st.one_of(
        st.lists(REGULAR_RECORDS, max_size=40),
        st.lists(st.one_of(REGULAR_RECORDS, IRREGULAR_RECORDS), max_size=25),
    ),
    st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=1, max_size=3),
    st.booleans(),
)


def _chunks(data, chunk_size):
    return [data] if chunk_size is None else list(chunk_bytes(data, chunk_size))


@contextmanager
def block_cap(size):
    """Run with the reader's block cap at ``size`` bytes, so inputs of a
    few hundred bytes span many blocks."""
    saved, csvscan.BLOCK_BYTES = csvscan.BLOCK_BYTES, size
    try:
        yield
    finally:
        csvscan.BLOCK_BYTES = saved


class TestReaderMatchesReference:
    """The split planner and the block reader (fast path, per-record
    path, block cap, chunk refills) against code that has none of
    those."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=CSV_BYTES,
        plan_chunk=st.integers(1, 120),
        chunk_size=st.sampled_from([1, 7, 64 * 1024, None]),
        block_bytes=st.sampled_from([16, 100, csvscan.BLOCK_BYTES]),
    )
    # Two wrong widths that average to the right one, typable if misread.
    @example(
        data=b"x,1\n7,2,3,4.5\n", plan_chunk=120, chunk_size=None, block_bytes=100
    )
    # A quoted record batched by the scanner, then an unterminated tail.
    @example(
        data=b'k,"6",1.5\na,1,2.5', plan_chunk=1, chunk_size=None, block_bytes=16
    )
    def test_every_tiling_every_chunking(
        self, data, plan_chunk, chunk_size, block_bytes
    ):
        # The planner's rule on the reference's record offsets: for each
        # grid point, the first record start at or after it.
        offsets = [offset for offset, _raw in reference_records(data)]
        expected_starts = [0]
        for point in range(plan_chunk, len(data), plan_chunk):
            later = [offset for offset in offsets if offset >= point]
            if later and later[0] != expected_starts[-1]:
                expected_starts.append(later[0])
        starts = plan_split_starts(data, plan_chunk)
        assert starts == expected_starts
        bounds = [*starts, len(data)]
        tiled_records, tiled_rows = [], []
        for start, end in zip(bounds, bounds[1:]):
            expected_records, expected_rows = reference_scan(data, start, end)
            stream = data[start:end]  # the split's bytes, as served
            scan = CsvScan(_chunks(stream, chunk_size), READER_SCHEMA)
            with block_cap(block_bytes):
                records = list(owned_records(_chunks(stream, chunk_size)))
                rows = list(scan.rows())
            assert records == expected_records
            assert repr(rows) == repr(expected_rows)  # nan-safe, -0.0-exact
            assert scan.records_in == len(records)
            assert scan.dropped == len(records) - len(rows)
            tiled_records += records
            tiled_rows += rows
        # Every record is read by exactly one split.
        whole_records, whole_rows = reference_scan(data)
        assert tiled_records == whole_records
        assert repr(tiled_rows) == repr(whole_rows)

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(REGULAR_RECORDS, min_size=1, max_size=30),
        dropped=st.lists(
            st.sampled_from([b"x,oops,1.0", b"x,1", b"y,2,3,4"]), max_size=2
        ),
        chunk_size=st.sampled_from([1, 7, 64 * 1024, None]),
        project=st.booleans(),
    )
    def test_storlet_fast_and_per_record_paths_agree(
        self, records, dropped, chunk_size, project
    ):
        if not dropped:
            # All regular: what decides the path is the quoting alone.
            plain = b"".join(record + b"\n" for record in records)
            assert all(
                block.regular
                for block in CsvScan([plain], READER_SCHEMA).blocks()
            )
        records = records[: len(records) // 2] + dropped + records[len(records) // 2 :]
        plain = b"".join(record + b"\n" for record in records)
        quoted = b"".join(
            quote_first_field(record) + b"\n" for record in records
        )
        assert not any(
            block.regular
            for block in CsvScan([quoted], READER_SCHEMA).blocks()
        )
        parameters = {
            "schema": READER_SCHEMA.to_header(),
            "filters": filters_to_json([GreaterThan("n", 0)]),
        }
        if project:
            parameters["columns"] = '["k", "x"]'
        outputs = []
        for data in (plain, quoted):
            metadata = {}
            output = b"".join(
                CsvStorlet().process(
                    StorletInputStream(_chunks(data, chunk_size)),
                    dict(parameters),
                    StorletLogger("test"),
                    metadata,
                )
            )
            outputs.append((output, metadata))
        (fast, fast_meta), (slow, slow_meta) = outputs
        assert row_counts(fast_meta) == row_counts(slow_meta)
        if project:
            assert fast == slow  # re-rendered: byte-identical
        else:
            assert repr(reference_scan(fast)[1]) == repr(reference_scan(slow)[1])
