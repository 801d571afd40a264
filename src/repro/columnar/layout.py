"""The RCF1 binary columnar object layout (a mini-Parquet).

An RCF1 object is framed exactly like the repo's other self-describing
binary format (``RPQ1``)::

    MAGIC | stripe 0 | stripe 1 | ... | footer JSON | length (8 ASCII) | MAGIC

Rows are grouped into *stripes* (:data:`DEFAULT_STRIPE_ROWS` rows each).
Within a stripe every column is stored as one contiguous *segment*, so a
reader that needs two of ten columns issues byte-range reads covering
only those segments.  The footer records, per segment, its absolute
byte offset and length plus min/max/null statistics used for stripe
pruning (:mod:`repro.columnar.pruning`).

Segment encoding is typed: ``tag byte | null bitmap | payload``.  INT
packs non-null values as little-endian int64 (falling back to text for
arbitrary-precision ints), FLOAT as float64, BOOL is bit-packed, STRING
is a u32 length array followed by concatenated UTF-8.  The bitmap (bit
set = NULL) keeps empty strings distinguishable from NULLs.

The module also defines the *block stream* codec: the length-prefixed
batch framing a columnar storlet uses to ship filtered
:class:`~repro.columnar.batch.ColumnBatch` results over the response
body without any footer.
"""

from __future__ import annotations

import bisect
import itertools
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.columnar.batch import ColumnBatch
from repro.columnar.stats import column_bounds
from repro.sql.types import DataType, Schema

MAGIC = b"RCF1"
DEFAULT_STRIPE_ROWS = 4096

ENC_INT64 = 0
ENC_FLOAT64 = 1
ENC_TEXT = 2
ENC_BOOL = 3

# MAGIC prefix + 8-ASCII footer length + trailing MAGIC.
_FRAME_OVERHEAD = len(MAGIC) + 8 + len(MAGIC)


@dataclass(frozen=True)
class SegmentMeta:
    """Footer statistics for one column segment within a stripe."""

    offset: int
    length: int
    min_value: Any = None
    max_value: Any = None
    nulls: int = 0
    #: The segment held NaN/+/-Inf values that min/max exclude -- the
    #: bounds are incomplete and pruning must not refute from them.
    has_nan: bool = False


@dataclass(frozen=True)
class StripeMeta:
    """Footer entry for one stripe: row count plus per-column segments."""

    rows: int
    columns: List[SegmentMeta] = field(default_factory=list)

    @property
    def start(self) -> int:
        """Absolute byte offset of the stripe's first segment."""
        return self.columns[0].offset if self.columns else 0

    @property
    def end(self) -> int:
        """Absolute byte offset one past the stripe's last segment."""
        if not self.columns:
            return 0
        last = self.columns[-1]
        return last.offset + last.length


@dataclass(frozen=True)
class ColumnarFooter:
    """The decoded footer of one RCF1 object."""

    schema: Schema
    rows: int
    stripes: List[StripeMeta]
    data_end: int

    def to_payload(self) -> dict:
        """Serialize back to the JSON footer shape (for transport)."""
        return {
            "schema": self.schema.to_header(),
            "rows": self.rows,
            "stripes": [
                {
                    "rows": stripe.rows,
                    "columns": [
                        self._segment_payload(seg) for seg in stripe.columns
                    ],
                }
                for stripe in self.stripes
            ],
        }

    @staticmethod
    def _segment_payload(seg: SegmentMeta) -> dict:
        """One segment's footer entry (``nan`` key only when raised)."""
        entry = {
            "off": seg.offset,
            "len": seg.length,
            "min": seg.min_value,
            "max": seg.max_value,
            "nulls": seg.nulls,
        }
        if seg.has_nan:
            entry["nan"] = True
        return entry

    @classmethod
    def from_payload(cls, payload: dict, data_end: int) -> "ColumnarFooter":
        """Rebuild a footer from its JSON payload."""
        stripes = [
            StripeMeta(
                rows=entry["rows"],
                columns=[
                    SegmentMeta(
                        offset=seg["off"],
                        length=seg["len"],
                        min_value=seg.get("min"),
                        max_value=seg.get("max"),
                        nulls=seg.get("nulls", 0),
                        has_nan=bool(seg.get("nan", False)),
                    )
                    for seg in entry["columns"]
                ],
            )
            for entry in payload["stripes"]
        ]
        return cls(
            schema=Schema.from_header(payload["schema"]),
            rows=payload["rows"],
            stripes=stripes,
            data_end=data_end,
        )


def _split_nulls(values: Sequence[Any]) -> Tuple[bytes, Sequence[Any]]:
    """The null bitmap (bit set = NULL) and the non-null run of a column."""
    n = len(values)
    if not values.count(None):
        return bytes((n + 7) // 8), values
    bitmap = bytearray((n + 7) // 8)
    non_null: List[Any] = []
    for i, value in enumerate(values):
        if value is None:
            bitmap[i >> 3] |= 1 << (i & 7)
        else:
            non_null.append(value)
    return bytes(bitmap), non_null


def _pack_bits(values: Sequence[bool]) -> bytes:
    """Bit-pack a boolean run, LSB first."""
    packed = bytearray((len(values) + 7) // 8)
    for i, value in enumerate(values):
        if value:
            packed[i >> 3] |= 1 << (i & 7)
    return bytes(packed)


def _encode_text(texts: Sequence[str]) -> bytes:
    """u32 length array followed by concatenated UTF-8 payloads."""
    joined = "".join(texts)
    blob = joined.encode("utf-8")
    if len(blob) == len(joined):  # ASCII: byte lengths are str lengths
        lengths: Iterable[int] = map(len, texts)
    else:
        lengths = [len(text.encode("utf-8")) for text in texts]
    return struct.pack(f"<{len(texts)}I", *lengths) + blob


def _encode_values(
    values: Sequence[Any], dtype: DataType
) -> Tuple[bytes, Sequence[Any]]:
    """One column's segment bytes (tag byte, null bitmap, payload) and
    its non-null run -- encoding only, no statistics."""
    bitmap, non_null = _split_nulls(values)
    if dtype is DataType.INT:
        try:
            tag, payload = ENC_INT64, struct.pack(f"<{len(non_null)}q", *non_null)
        except struct.error:  # beyond int64: arbitrary-precision escape hatch
            tag = ENC_TEXT
            payload = _encode_text([format(v, "d") for v in non_null])
    elif dtype is DataType.FLOAT:
        tag, payload = ENC_FLOAT64, struct.pack(f"<{len(non_null)}d", *non_null)
    elif dtype is DataType.BOOL:
        tag, payload = ENC_BOOL, _pack_bits(non_null)
    else:
        tag, payload = ENC_TEXT, _encode_text(non_null)
    return bytes((tag,)) + bitmap + payload, non_null


def encode_segment(
    values: Sequence[Any], dtype: DataType
) -> Tuple[bytes, int, Any, Any, bool]:
    """Encode one column; returns ``(data, nulls, min, max, has_nan)``.

    ``data`` is the full segment (tag byte, null bitmap, payload); min
    and max are over the non-null **finite** values (``None`` when the
    segment is all NULL or empty).  NaN and +/-Inf are excluded from the
    bounds -- Python's ``min``/``max`` are order-dependent under NaN, so
    including them poisons the stats and makes pruning unsound -- and
    reported through ``has_nan`` instead, which tells the pruner the
    bounds are incomplete.
    """
    data, non_null = _encode_values(values, dtype)
    return (data, len(values) - len(non_null)) + column_bounds(non_null, dtype)


#: Per-byte popcount table: counting set bitmap bits byte-wise is 8x
#: fewer iterations than expanding the bitmap row-wise, and the common
#: all-present segment then skips the per-row expansion entirely.
_POPCOUNT = [bin(i).count("1") for i in range(256)]


def decode_segment(data: bytes, dtype: DataType, rows: int) -> List[Any]:
    """Decode one segment back into a value vector of length ``rows``."""
    if rows == 0:
        return []
    tag = data[0]
    bitmap_len = (rows + 7) // 8
    bitmap = data[1 : 1 + bitmap_len]
    payload = data[1 + bitmap_len :]
    present = rows - sum(_POPCOUNT[b] for b in bitmap)
    if tag == ENC_INT64:
        values: List[Any] = list(struct.unpack(f"<{present}q", payload))
    elif tag == ENC_FLOAT64:
        values = list(struct.unpack(f"<{present}d", payload))
    elif tag == ENC_BOOL:
        values = [bool((payload[i >> 3] >> (i & 7)) & 1) for i in range(present)]
    elif tag == ENC_TEXT:
        lengths = struct.unpack(f"<{present}I", payload[: 4 * present])
        blob = payload[4 * present :]
        ends = list(itertools.accumulate(lengths))
        try:
            # ASCII fast path: byte offsets equal character offsets, so
            # one bulk decode plus str slicing replaces a bytes slice +
            # UTF-8 decode per value.
            decoded = blob.decode("ascii")
        except UnicodeDecodeError:
            texts = [
                blob[start:end].decode("utf-8")
                for start, end in zip([0] + ends[:-1], ends)
            ]
        else:
            texts = [
                decoded[start:end]
                for start, end in zip([0] + ends[:-1], ends)
            ]
        if dtype is DataType.INT:
            values = [int(text) for text in texts]
        elif dtype is DataType.FLOAT:
            values = [float(text) for text in texts]
        else:
            values = texts
    else:
        raise ValueError(f"unknown segment encoding tag {tag}")
    if present == rows:
        return values
    out: List[Any] = []
    it = iter(values)
    for i in range(rows):
        out.append(None if (bitmap[i >> 3] >> (i & 7)) & 1 else next(it))
    return out


def _row_costs(schema: Schema, columns: Sequence[Sequence[Any]]) -> List[int]:
    """Approximate encoded size of each row of a block, column-wise.

    A row costs 1 (null-bitmap + framing amortization) plus, per
    non-NULL cell, 8 in an INT or FLOAT column, 1 in a BOOL column and
    4 + the text length in a STRING column: near enough to size stripes
    by, and -- deciding where they are cut -- part of the output.
    """
    fixed = 1  # what every row costs: the 1 plus the NULL-free columns
    varying: List[Iterable[int]] = []
    for fld, column in zip(schema.fields, columns):
        text = fld.dtype is DataType.STRING
        width = 4 if text else 1 if fld.dtype is DataType.BOOL else 8
        if None in column:
            varying.append(
                [0 if v is None else width + (len(v) if text else 0) for v in column]
            )
        else:
            fixed += width
            if text:
                varying.append(map(len, column))
    if not varying:
        return [fixed] * len(columns[0])
    return [fixed + cost for cost in map(sum, zip(*varying))]


StripeObserver = Callable[[Sequence[Sequence[Any]], List[SegmentMeta]], None]


def encode_column_stream(
    schema: Schema,
    blocks: Iterable[Sequence[Sequence[Any]]],
    stripe_rows: int = DEFAULT_STRIPE_ROWS,
    stripe_bytes: Optional[int] = None,
    on_stripe: Optional[StripeObserver] = None,
) -> Iterator[bytes]:
    """Stream-encode column blocks into RCF1 chunks (one per stripe).

    A block is one value vector per schema column, all of one length;
    blocks are concatenated and re-cut into stripes, so the output does
    not depend on how the input was blocked.  Memory stays O(stripe)
    regardless of input size, which is what lets the CSV-to-columnar ETL
    storlet convert objects at PUT time without materializing them.

    A stripe ends after ``stripe_rows`` rows or, with ``stripe_bytes``,
    with the first row at which its summed row cost (:func:`_row_costs`)
    reaches the budget.  Writers size stripes to the reader's split
    granule this way, so partition discovery over the footer yields
    splits comparable to the row-oriented path and the scheduler's
    speculation window covers the same byte budget either way.

    ``on_stripe`` is called with each stripe's column vectors and the
    segment statistics just computed from them.
    """
    if stripe_rows <= 0:
        raise ValueError(f"stripe_rows must be positive: {stripe_rows}")
    if stripe_bytes is not None and stripe_bytes <= 0:
        raise ValueError(f"stripe_bytes must be positive: {stripe_bytes}")
    yield MAGIC
    position = len(MAGIC)
    stripes: List[StripeMeta] = []
    pending: List[List[Any]] = [[] for _ in schema.fields]
    # Under a byte budget: the running row-cost total after each pending
    # row, and that total at the start of the pending rows.
    totals: List[int] = []
    spent = 0

    def cut(end: int) -> bytes:
        """Encode the first ``end`` pending rows as the next stripe."""
        nonlocal position
        columns = [vector[:end] for vector in pending]
        parts: List[bytes] = []
        segments: List[SegmentMeta] = []
        for fld, vector in zip(schema.fields, columns):
            data, nulls, low, high, has_nan = encode_segment(vector, fld.dtype)
            segments.append(
                SegmentMeta(position, len(data), low, high, nulls, has_nan)
            )
            parts.append(data)
            position += len(data)
        stripes.append(StripeMeta(rows=end, columns=segments))
        if on_stripe is not None:
            on_stripe(columns, segments)
        return b"".join(parts)

    for block in blocks:
        if not len(block[0]):
            continue
        for vector, column in zip(pending, block):
            vector.extend(column)
        if stripe_bytes is not None:
            costs = _row_costs(schema, block)
            costs[0] += totals[-1] if totals else spent
            totals.extend(itertools.accumulate(costs))
        while True:
            end = stripe_rows
            if stripe_bytes is not None:
                end = min(end, bisect.bisect_left(totals, spent + stripe_bytes) + 1)
            if end > len(pending[0]):
                break
            yield cut(end)
            for vector in pending:
                del vector[:end]
            if totals:
                spent = totals[end - 1]
                del totals[:end]
    if pending[0]:
        yield cut(len(pending[0]))
    footer = ColumnarFooter(
        schema, sum(stripe.rows for stripe in stripes), stripes, position
    )
    # allow_nan=False: the min/max fields hold only finite values by
    # construction now (non-finite data raises the "nan" flag instead),
    # and this keeps it that way -- the non-standard NaN/Infinity JSON
    # literals would otherwise round-trip poisoned bounds undetected.
    payload = json.dumps(
        footer.to_payload(), separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    yield payload + f"{len(payload):08d}".encode("ascii") + MAGIC


def encode_stream(
    schema: Schema,
    rows: Iterable[tuple],
    stripe_rows: int = DEFAULT_STRIPE_ROWS,
    stripe_bytes: Optional[int] = None,
) -> Iterator[bytes]:
    """:func:`encode_column_stream` over rows: they are transposed a
    stripe's worth at a time, nothing else happens here."""

    def blocks() -> Iterator[Sequence[Sequence[Any]]]:
        remaining = iter(rows)
        while block := list(itertools.islice(remaining, stripe_rows)):
            yield list(zip(*block))

    return encode_column_stream(schema, blocks(), stripe_rows, stripe_bytes)


def encode_columnar(
    schema: Schema,
    rows: Iterable[tuple],
    stripe_rows: int = DEFAULT_STRIPE_ROWS,
) -> bytes:
    """Encode rows into one complete RCF1 object."""
    return b"".join(encode_stream(schema, rows, stripe_rows))


def decode_footer(data: bytes) -> ColumnarFooter:
    """Decode the footer from a complete RCF1 object."""
    if len(data) < _FRAME_OVERHEAD or data[:4] != MAGIC or data[-4:] != MAGIC:
        raise ValueError("not an RCF1 object")
    footer_len = int(data[-12:-4])
    footer_start = len(data) - 12 - footer_len
    payload = json.loads(data[footer_start : len(data) - 12].decode("utf-8"))
    return ColumnarFooter.from_payload(payload, data_end=footer_start)


def footer_from_tail(
    tail: bytes, object_size: int
) -> Tuple[Optional[ColumnarFooter], int]:
    """Decode a footer from the object's trailing bytes.

    ``tail`` is the last ``len(tail)`` bytes of an object of
    ``object_size`` bytes (a ranged GET).  Returns ``(footer, needed)``
    where ``needed`` is the tail size that would suffice; when the
    provided tail is too short to contain the whole footer the footer is
    ``None`` and the caller re-reads ``needed`` bytes from the end.
    """
    if object_size < _FRAME_OVERHEAD or len(tail) < 12:
        raise ValueError("not an RCF1 object")
    if tail[-4:] != MAGIC:
        raise ValueError("not an RCF1 object")
    footer_len = int(tail[-12:-4])
    needed = footer_len + 12
    if len(tail) < needed:
        return None, needed
    payload = json.loads(tail[-needed:-12].decode("utf-8"))
    return ColumnarFooter.from_payload(payload, data_end=object_size - needed), needed


def decode_stripe(
    buffer: bytes,
    stripe: StripeMeta,
    schema: Schema,
    columns: Optional[Sequence[int]] = None,
    base_offset: int = 0,
) -> ColumnBatch:
    """Decode (a projection of) one stripe from a byte buffer.

    ``buffer`` holds object bytes starting at absolute offset
    ``base_offset`` -- either the whole object (``base_offset=0``) or
    just the ranged read covering the referenced segments.
    """
    if columns is None:
        columns = range(len(schema))
    vectors = []
    names = []
    for index in columns:
        segment = stripe.columns[index]
        start = segment.offset - base_offset
        data = buffer[start : start + segment.length]
        if len(data) != segment.length:
            raise ValueError(
                f"segment at {segment.offset} not contained in buffer"
            )
        vectors.append(decode_segment(data, schema.fields[index].dtype, stripe.rows))
        names.append(schema.fields[index].name)
    return ColumnBatch(schema.select(names), vectors, stripe.rows)


def iter_stripe_batches(
    data: bytes, columns: Optional[Sequence[str]] = None
) -> Iterator[ColumnBatch]:
    """Decode a complete RCF1 object into per-stripe column batches."""
    footer = decode_footer(data)
    indices = (
        [footer.schema.index_of(name) for name in columns]
        if columns is not None
        else None
    )
    for stripe in footer.stripes:
        yield decode_stripe(data, stripe, footer.schema, indices)


def encode_block(batch: ColumnBatch) -> bytes:
    """Frame one batch for the storlet response block stream.

    Layout: ``u32 header length | header JSON | segments``, where the
    header carries the batch schema, row count and per-segment lengths
    -- self-describing, so the reader needs no footer.
    """
    segments = []
    lengths = []
    for fld, vector in zip(batch.schema.fields, batch.columns):
        data, _non_null = _encode_values(vector, fld.dtype)
        segments.append(data)
        lengths.append(len(data))
    header = json.dumps(
        {
            "schema": batch.schema.to_header(),
            "rows": len(batch),
            "lens": lengths,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return struct.pack("<I", len(header)) + header + b"".join(segments)


class BlockStreamDecoder:
    """Incremental push-parser for the block stream framing.

    Feed chunks with :meth:`push` (any boundaries, 1-byte chunks
    included), collect the batches that completed, and call
    :meth:`finish` at end of stream -- leftover bytes there mean the
    stream was truncated mid-block, which raises ``ValueError`` so a
    cut-short storlet response cannot silently pass for a complete one.
    Single-sources the parsing for the sync and async decode paths.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def push(self, chunk: bytes) -> List[ColumnBatch]:
        """Absorb one chunk; return every batch it completed (often [])."""
        self._buffer.extend(chunk)
        batches: List[ColumnBatch] = []
        buffer = self._buffer
        while True:
            if len(buffer) < 4:
                break
            (header_len,) = struct.unpack_from("<I", buffer, 0)
            if len(buffer) < 4 + header_len:
                break
            header = json.loads(bytes(buffer[4 : 4 + header_len]).decode("utf-8"))
            total = 4 + header_len + sum(header["lens"])
            if len(buffer) < total:
                break
            schema = Schema.from_header(header["schema"])
            rows = header["rows"]
            vectors = []
            offset = 4 + header_len
            for fld, length in zip(schema.fields, header["lens"]):
                segment = bytes(buffer[offset : offset + length])
                vectors.append(decode_segment(segment, fld.dtype, rows))
                offset += length
            del buffer[:total]
            batches.append(ColumnBatch(schema, vectors, rows))
        return batches

    def finish(self) -> None:
        """Assert end-of-stream fell exactly on a block boundary."""
        if self._buffer:
            raise ValueError("truncated columnar block stream")


def decode_block_stream(chunks: Iterable[bytes]) -> Iterator[ColumnBatch]:
    """Incrementally decode a block stream back into column batches.

    Tolerates arbitrary chunk boundaries (1-byte chunks included); a
    stream that ends mid-block raises ``ValueError`` so a truncated
    storlet response cannot silently pass for a complete one.
    """
    decoder = BlockStreamDecoder()
    for chunk in chunks:
        yield from decoder.push(chunk)
    decoder.finish()
