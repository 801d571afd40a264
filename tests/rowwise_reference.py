"""RCF1 ingest written one row and one cell at a time: the reference.

The production path is column-major
(:func:`repro.columnar.layout.encode_column_stream`, the object catalog
merged from stripe statistics).  This module writes the same format the
slow, obvious way: ``encode_stream`` buffers row tuples, sizes stripes
by walking every row (``row_cost``), zips each stripe into columns and
walks every cell again for the null split and the statistics, builds
every candidate encoding of every segment in full (plain, dictionary,
narrow int) and keeps the smallest, while ``RowwiseCatalog.observe``
folds every cell of every row into the object catalog.  The differential tests
(``tests/test_columnar_ingest.py``) require the two to agree byte for
byte; the CI throughput gate (``benchmarks/test_ingest_smoke.py``)
requires the production path to be at least twice as fast.

Only the *format's* definitions are shared with ``src/`` (magic, the
four plain tags, footer JSON shape, bloom keying and hashing); every
loop is this module's own, and so are the two newer tags and the size
rule that picks between encodings.  The bloom rule is the documented one -- a column keeps
its bloom iff it holds at most ``MAX_BLOOM_KEYS`` distinct canonical
keys and no unkeyable value -- in its simplest row-wise form: collect
every key, decide at the end.
"""

import json
import struct

from repro.catalog.metadata import CATALOG_HEADER, CATALOG_VERSION, MAX_BLOOM_KEYS
from repro.columnar.layout import (
    ENC_BOOL,
    ENC_FLOAT64,
    ENC_INT64,
    ENC_TEXT,
    MAGIC,
    ColumnarFooter,
    SegmentMeta,
    StripeMeta,
)
from repro.columnar.stats import BloomFilter, canonical_bloom_key, is_non_finite
from repro.sql.types import DataType


def row_cost(row):
    cost = 1
    for value in row:
        if value is None:
            continue
        if isinstance(value, str):
            cost += 4 + len(value)
        elif isinstance(value, bool):
            cost += 1
        else:
            cost += 8
    return cost


def _encode_text(texts):
    raw = [text.encode("utf-8") for text in texts]
    return struct.pack(f"<{len(raw)}I", *[len(item) for item in raw]) + b"".join(raw)


#: The two encodings a segment may take instead of its dtype's plain
#: one, spelled out here on purpose: tag 4 is the dictionary, tag 5 the
#: narrow int.
ENC_DICT, ENC_NARROW_INT = 4, 5


def _plain(non_null, dtype):
    """``(tag, payload)`` in the dtype's plain encoding."""
    if dtype is DataType.INT:
        if all(-(2**63) <= v <= 2**63 - 1 for v in non_null):
            return ENC_INT64, struct.pack(f"<{len(non_null)}q", *non_null)
        return ENC_TEXT, _encode_text([str(v) for v in non_null])
    if dtype is DataType.FLOAT:
        return ENC_FLOAT64, struct.pack(
            f"<{len(non_null)}d", *[float(v) for v in non_null]
        )
    if dtype is DataType.BOOL:
        packed = bytearray((len(non_null) + 7) // 8)
        for i, value in enumerate(non_null):
            if value:
                packed[i >> 3] |= 1 << (i & 7)
        return ENC_BOOL, bytes(packed)
    return ENC_TEXT, _encode_text([str(v) for v in non_null])


def _dictionary(non_null, dtype):
    """``u8 code width | u32 entry count | entries as a plain NULL-free
    segment | one code per value``; entries in first-appearance order,
    a float told apart by its 8 bytes.  ``None`` past 65 536 entries."""
    entries, codes, seen = [], [], {}
    for value in non_null:
        key = struct.pack("<d", value) if dtype is DataType.FLOAT else value
        if key not in seen:
            seen[key] = len(entries)
            entries.append(value)
        codes.append(seen[key])
    if len(entries) > 65536:
        return None
    width, fmt = (1, "<B") if len(entries) <= 256 else (2, "<H")
    tag, payload = _plain(entries, dtype)
    out = bytearray([width])
    out += struct.pack("<I", len(entries))
    out += bytes([tag]) + bytes((len(entries) + 7) // 8) + payload
    for code in codes:
        out += struct.pack(fmt, code)
    return bytes(out)


def _narrow_int(non_null, dtype):
    """``u8 offset width | int64 base | one unsigned offset per value``:
    base is the smallest value, the width the narrowest of 1 / 2 / 4
    bytes that holds the largest offset.  ``None`` where it does not
    apply (not an int64 run, empty, or offsets past 4 bytes)."""
    if dtype is not DataType.INT or not non_null:
        return None
    if not all(-(2**63) <= v <= 2**63 - 1 for v in non_null):
        return None
    base = min(non_null)
    for width, fmt in ((1, "<B"), (2, "<H"), (4, "<I")):
        if max(non_null) - base < 256**width:
            out = bytearray([width]) + struct.pack("<q", base)
            for value in non_null:
                out += struct.pack(fmt, value - base)
            return bytes(out)
    return None


def encode_segment(values, dtype):
    """``(data, nulls, min, max, has_nan)``, one cell at a time.

    The size rule: build the plain, the dictionary and the narrow-int
    payload, in that order; a later one is taken only when it is
    strictly smaller than the one held.
    """
    bitmap = bytearray((len(values) + 7) // 8)
    non_null = []
    for i, value in enumerate(values):
        if value is None:
            bitmap[i >> 3] |= 1 << (i & 7)
        else:
            non_null.append(value)
    tag, payload = _plain(non_null, dtype)
    for other_tag, other in (
        (ENC_DICT, _dictionary(non_null, dtype)),
        (ENC_NARROW_INT, _narrow_int(non_null, dtype)),
    ):
        if other is not None and len(other) < len(payload):
            tag, payload = other_tag, other
    lo = hi = None
    has_nan = False
    for value in non_null:
        if is_non_finite(value):
            has_nan = True
        elif lo is None:
            lo = hi = value
        else:
            if value < lo:
                lo = value
            if value > hi:
                hi = value
    data = bytes((tag,)) + bytes(bitmap) + payload
    return data, len(values) - len(non_null), lo, hi, has_nan


def encode_stream(schema, rows, stripe_rows=4096, stripe_bytes=None):
    """RCF1 chunks from row tuples: buffer, cost and flush row by row."""
    yield MAGIC
    position = len(MAGIC)
    stripes = []
    total_rows = 0

    def encode_stripe(buffer):
        nonlocal position, total_rows
        parts, segments = [], []
        for fld, vector in zip(schema.fields, zip(*buffer)):
            data, nulls, lo, hi, has_nan = encode_segment(list(vector), fld.dtype)
            segments.append(
                SegmentMeta(position, len(data), lo, hi, nulls, has_nan)
            )
            parts.append(data)
            position += len(data)
        stripes.append(StripeMeta(rows=len(buffer), columns=segments))
        total_rows += len(buffer)
        return b"".join(parts)

    buffer, buffered_cost = [], 0
    for row in rows:
        buffer.append(row)
        if stripe_bytes is not None:
            buffered_cost += row_cost(row)
        if len(buffer) >= stripe_rows or (
            stripe_bytes is not None and buffered_cost >= stripe_bytes
        ):
            yield encode_stripe(buffer)
            buffer, buffered_cost = [], 0
    if buffer:
        yield encode_stripe(buffer)
    footer = ColumnarFooter(schema, total_rows, stripes, position)
    payload = json.dumps(
        footer.to_payload(), separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    yield payload + f"{len(payload):08d}".encode("ascii") + MAGIC


class RowwiseCatalog:
    """The object catalog folded one cell at a time."""

    def __init__(self, schema):
        self.names = [fld.name.lower() for fld in schema.fields]
        self.columns = [
            {"min": None, "max": None, "nulls": 0, "nan": False, "keys": set()}
            for _ in schema.fields
        ]
        self.rows = 0

    def observe(self, row):
        self.rows += 1
        for column, value in zip(self.columns, row):
            if value is None:
                column["nulls"] += 1
                continue
            column["keys"].add(canonical_bloom_key(value))  # None = unkeyable
            if is_non_finite(value):
                column["nan"] = True
            elif column["min"] is None:
                column["min"] = column["max"] = value
            else:
                if value < column["min"]:
                    column["min"] = value
                if value > column["max"]:
                    column["max"] = value

    def to_metadata(self):
        cols = {}
        for name, column in zip(self.names, self.columns):
            entry = {
                "min": column["min"],
                "max": column["max"],
                "nulls": column["nulls"],
            }
            if column["nan"]:
                entry["nan"] = True
            keys = column["keys"]
            if keys and None not in keys and len(keys) <= MAX_BLOOM_KEYS:
                bloom = BloomFilter()
                for key in sorted(keys):
                    bloom.add_key(key)
                entry.update(bloom=bloom.to_hex(), bb=bloom.bits, bh=bloom.hashes)
            cols[name] = entry
        payload = {"v": CATALOG_VERSION, "rows": self.rows, "cols": cols}
        return {
            CATALOG_HEADER: json.dumps(
                payload, separators=(",", ":"), allow_nan=False
            )
        }
