"""Carrier throughput gate: packed fixed-width segments vs the list path.

Runs two scans through ``ColumnarStorlet.process`` over a 1 M-row
GridPocket RCF1 object: ``SELECT city, code`` unfiltered (every column
ships verbatim, a block is a slice of its segment) and ``SELECT vid,
date, index WHERE code < 5000`` (the comparison runs on byte planes, the
response encoding is settled once per stripe).  The same scans over a
twin object whose ``code`` and ``index`` hold one NULL per stripe -- which
keeps every fixed-width segment on the list path, as the CSV gate's
quoted field keeps records off the block path -- must run at no more
than half the rows/s, with ``==`` rows once the NULL rows are set aside
-- so per-block re-encoding or a per-row comparison frame cannot quietly
come back.

    PYTHONPATH=src python -m pytest benchmarks/test_carrier_smoke.py -q -s
"""

from __future__ import annotations

import json
import time

import pytest

from repro.columnar.layout import (
    DEFAULT_STRIPE_ROWS,
    decode_block_stream,
    decode_footer,
    encode_columnar,
)
from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.sql.filters import LessThan, filters_to_json
from repro.storlets.api import StorletInputStream, StorletLogger
from repro.storlets.columnar_storlet import ColumnarStorlet
from repro.swift.http import DEFAULT_CHUNK_SIZE, chunk_bytes

#: 200 meters: ``vid`` fits one-byte dictionary codes, as on the ledger.
SPEC = DatasetSpec(meters=200, intervals=5000)
REQUIRED_RATIO = 2.0
#: name -> (projected columns, filters).  ``code`` rides along with the
#: second scan's projection, as it does when the scan re-applies the filter.
SCANS = {
    "unfiltered": (["city", "code"], []),
    "code < 5000": (["vid", "date", "index", "code"], [LessThan("code", 5000)]),
}
CODE, INDEX = METER_SCHEMA.index_of("code"), METER_SCHEMA.index_of("index")


@pytest.fixture(scope="module")
def objects():
    """The packed object, and its twin with the first row of every
    stripe holding NULL for ``code`` and ``index``."""
    rows = list(MeterDataGenerator(SPEC).rows())
    twin = list(rows)
    for first in range(0, len(rows), DEFAULT_STRIPE_ROWS):
        row = list(rows[first])
        row[CODE] = row[INDEX] = None
        twin[first] = tuple(row)
    return encode_columnar(METER_SCHEMA, rows), encode_columnar(METER_SCHEMA, twin)


def _scan(body: bytes, columns, filters):
    footer = decode_footer(body)
    parameters = {
        "schema": METER_SCHEMA.to_header(),
        "columns": json.dumps(columns),
        "filters": filters_to_json(filters),
        "stripes": json.dumps(
            [
                {"rows": s.rows, "cols": [[c.offset, c.length] for c in s.columns]}
                for s in footer.stripes
            ]
        ),
        "range_start": "0",
    }
    chunks = list(chunk_bytes(body, DEFAULT_CHUNK_SIZE))
    metadata: dict = {}
    best, blocks = float("inf"), b""
    for _ in range(3):
        start = time.perf_counter()
        blocks = b"".join(
            ColumnarStorlet().process(
                StorletInputStream(chunks), dict(parameters), StorletLogger("gate"), metadata
            )
        )
        best = min(best, time.perf_counter() - start)
    rows = [row for batch in decode_block_stream([blocks]) for row in batch.rows]
    return best, rows, metadata


def _shipped(metadata: dict) -> dict:
    """Block columns shipped, by how (see docs/observability.md)."""
    return {
        how: int(metadata.get(f"x-object-meta-storlet-columns-{how}", 0))
        for how in ("verbatim", "settled", "reencoded")
    }


@pytest.mark.parametrize("name", list(SCANS))
def test_packed_scan_is_2x_the_list_path_and_identical(name, objects):
    columns, filters = SCANS[name]
    packed, twin = objects
    fast_s, rows, metadata = _scan(packed, columns, filters)
    slow_s, twin_rows, twin_metadata = _scan(twin, columns, filters)
    total = SPEC.total_rows()
    ratio = slow_s / fast_s
    print(f"\n{name}: packed {total / fast_s:,.0f} rows/s")
    print(f"{name}: lists  {total / slow_s:,.0f} rows/s")
    print(f"{name}: ratio  {ratio:.2f}x")
    # The twin really is the list path, and the object really is not
    # (bar the odd stripe that stores ``index`` as a two-byte-code
    # dictionary, which decodes into a list on either side).
    shipped, twin_shipped = _shipped(metadata), _shipped(twin_metadata)
    assert shipped["reencoded"] * 100 <= sum(shipped.values())
    assert twin_shipped["reencoded"] * 4 >= sum(twin_shipped.values())
    assert "x-object-meta-storlet-filter-evals-rows" not in metadata
    # Same rows, the twin's NULL rows set aside: unfiltered they sit at
    # known positions; a NULL ``code`` fails the filter, so there the
    # twin lacks them, told by their (vid, date).
    firsts = range(0, total, DEFAULT_STRIPE_ROWS)
    if filters:
        source = list(MeterDataGenerator(SPEC).rows())
        nulled = {source[first][:2] for first in firsts}
        assert [row for row in rows if row[:2] not in nulled] == twin_rows
    else:
        assert len(rows) == len(twin_rows) == total
        for first in firsts:
            assert twin_rows[first] == (None, rows[first][1])
            twin_rows[first] = rows[first]
        assert rows == twin_rows
    assert rows
    assert ratio >= REQUIRED_RATIO, (
        f"packed segments only {ratio:.2f}x the list path on {name!r}"
    )
