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
come back.  And a count beside the speed: the packed scans' response
bytes per shipped row stay under a stated budget and the storlet's
``dict-entries`` is exactly what the stream-dictionary rule ships -- so
neither can per-block dictionaries, bitmaps or self-describing headers.

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
#: name -> response bytes a shipped row may cost.  Unfiltered: a 1 B
#: city code + a 2 B code offset; filtered: 1 B vid + 1 B date codes +
#: an 8 B index + a 2 B code offset.  On top, framing (a block header
#: and each segment's opening, per <= 1 024 rows: < 0.05 B/row) and the
#: dictionary entries, each once between restarts (the filtered scan's
#: 5 000 dates over ~500 k rows: < 0.3 B/row).
BYTES_PER_ROW = {"unfiltered": 3 + 0.05, "code < 5000": 12 + 0.05 + 0.3}
#: The filtered scan's stream-coded columns (``index`` is float64 or,
#: from a two-byte-code dictionary stripe, a list).
CODED = {"unfiltered": ["city"], "code < 5000": ["vid", "date"]}


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
    return best, rows, metadata, len(blocks)


def _entries_shipped(values, kept) -> tuple:
    """``(entries, restarts)`` the stream-dictionary rule makes of one
    column: per stripe the values of its kept rows not yet in the
    dictionary are shipped, and the dictionary restarts from the
    stripe's own when they would take it past 256."""
    known: set = set()
    entries = restarts = 0
    for first in range(0, len(values), DEFAULT_STRIPE_ROWS):
        stripe = range(first, min(first + DEFAULT_STRIPE_ROWS, len(values)))
        used = {values[i] for i in stripe if kept[i]}
        if len(known | used) > 256:
            known = set()
            restarts += 1
        entries += len(used - known)
        known |= used
    return entries, restarts


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
    fast_s, rows, metadata, response_bytes = _scan(packed, columns, filters)
    slow_s, twin_rows, twin_metadata, _ = _scan(twin, columns, filters)
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
    source = list(MeterDataGenerator(SPEC).rows())
    if filters:
        nulled = {source[first][:2] for first in firsts}
        assert [row for row in rows if row[:2] not in nulled] == twin_rows
    else:
        assert len(rows) == len(twin_rows) == total
        for first in firsts:
            assert twin_rows[first] == (None, rows[first][1])
            twin_rows[first] = rows[first]
        assert rows == twin_rows
    assert rows
    # The counts: exact, repeatable, independent of the host's speed.
    kept = [all(item.to_predicate(METER_SCHEMA)(row) for item in filters) for row in source]
    entries = restarts = 0
    for column in CODED[name]:
        values = [row[METER_SCHEMA.index_of(column)] for row in source]
        shipped_entries, restarted = _entries_shipped(values, kept)
        entries += shipped_entries
        restarts += restarted
    print(f"{name}: {response_bytes / len(rows):.4f} B/row, {entries} entries, {restarts} restarts")
    assert metadata["x-object-meta-storlet-dict-entries"] == str(entries)
    assert metadata["x-object-meta-storlet-dict-resets"] == str(restarts)
    assert response_bytes / len(rows) <= BYTES_PER_ROW[name]
    assert ratio >= REQUIRED_RATIO, (
        f"packed segments only {ratio:.2f}x the list path on {name!r}"
    )
