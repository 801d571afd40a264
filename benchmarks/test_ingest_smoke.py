"""Ingest throughput gate: column-major CSV -> RCF1 vs the row-wise reference.

Converts 200 k meter rows through ``CsvToColumnarStorlet.process`` (the
column-major encoder fed the validated text of ``CsvScan`` blocks, the
object catalog merged from stripe statistics) and through the
row-at-a-time reference kept in ``tests/rowwise_reference.py`` (a row
tuple per record, a catalog call per cell).  The outputs must be byte
identical and the storlet at least ``REQUIRED_RATIO`` times as fast --
so a per-row or per-cell loop cannot quietly come back on the ingest
path.  The stored object must also stay under ``MAX_STORED_RATIO`` times
its CSV bytes, so the dictionary, narrow-int and decimal encodings
cannot silently stop being chosen.

    PYTHONPATH=src python -m pytest benchmarks/test_ingest_smoke.py -q -s
"""

from __future__ import annotations

import time

from repro.csvscan import CsvScan
from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.storlets.api import StorletInputStream, StorletLogger
from repro.storlets.columnar_storlet import CsvToColumnarStorlet
from repro.swift.http import DEFAULT_CHUNK_SIZE, chunk_bytes

from tests import rowwise_reference as reference

SPEC = DatasetSpec(meters=400, intervals=500)
STRIPE_BYTES = 256 * 1024
#: 2.0 until the converter typed distinct texts; five runs then read
#: 6.32-7.34x, and this leaves 30 % below the slowest.
REQUIRED_RATIO = 4.8
#: Stored RCF1 bytes per CSV byte: 1.29 before segments were encoded,
#: 0.457 before FLOAT runs took the decimal encoding, 0.317 since; the
#: bound leaves 25 % above that.
MAX_STORED_RATIO = 0.4


def _column_major(data: bytes):
    metadata: dict = {}
    body = b"".join(
        CsvToColumnarStorlet().process(
            StorletInputStream(chunk_bytes(data, DEFAULT_CHUNK_SIZE)),
            {
                "schema": METER_SCHEMA.to_header(),
                "has_header": "false",
                "stripe_bytes": str(STRIPE_BYTES),
            },
            StorletLogger("gate"),
            metadata,
        )
    )
    return body, metadata


def _row_at_a_time(data: bytes):
    catalog = reference.RowwiseCatalog(METER_SCHEMA)

    def rows():
        scan = CsvScan(chunk_bytes(data, DEFAULT_CHUNK_SIZE), METER_SCHEMA)
        for row in scan.rows():
            catalog.observe(row)
            yield row

    body = b"".join(
        reference.encode_stream(METER_SCHEMA, rows(), 4096, STRIPE_BYTES)
    )
    return body, catalog.to_metadata()


def _best_of(call, data: bytes, repeats: int = 3):
    """Best of ``repeats`` calls, timed by process CPU, which other
    load on the host does not inflate the way it does wall time."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.process_time()
        result = call(data)
        best = min(best, time.process_time() - start)
    return best, result


def test_column_major_ingest_outruns_the_row_path_and_is_identical():
    data = b"".join(MeterDataGenerator(SPEC).csv_lines())
    rows = SPEC.total_rows()
    fast_s, (body, metadata) = _best_of(_column_major, data)
    slow_s, (want_body, want_metadata) = _best_of(_row_at_a_time, data)
    ratio = slow_s / fast_s
    print(f"\ncolumn-major:  {rows / fast_s:,.0f} rows/s")
    print(f"row at a time: {rows / slow_s:,.0f} rows/s")
    print(f"ratio:         {ratio:.2f}x")
    assert body == want_body, "RCF1 bytes diverged from the row-wise reference"
    for header, value in want_metadata.items():
        assert metadata[header] == value, header
    assert ratio >= REQUIRED_RATIO, (
        f"column-major ingest only {ratio:.2f}x the row-at-a-time reference"
    )
    stored = len(body) / len(data)
    print(f"stored:        {stored:.3f} B per CSV byte")
    assert stored < MAX_STORED_RATIO, (
        f"RCF1 stores {stored:.3f} B per CSV byte, not under {MAX_STORED_RATIO}"
    )
