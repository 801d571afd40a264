"""The RCF1 binary columnar object layout (a mini-Parquet).

An RCF1 object is a run of stripes closed by a self-describing footer::

    MAGIC | stripe 0 | stripe 1 | ... | footer JSON | length (8 ASCII) | MAGIC

Rows are grouped into *stripes* (:data:`DEFAULT_STRIPE_ROWS` rows each).
Within a stripe every column is stored as one contiguous *segment*, so a
reader that needs two of ten columns issues byte-range reads covering
only those segments.  The footer records, per segment, its absolute
byte offset and length plus min/max/null statistics used for stripe
pruning (:mod:`repro.columnar.pruning`).

Segment encoding is typed: ``tag byte | null bitmap | payload``.  The
plain encodings: INT packs non-null values as little-endian int64
(falling back to text for arbitrary-precision ints), FLOAT as float64,
BOOL is bit-packed, STRING is a u32 length array followed by
concatenated UTF-8.  The bitmap (bit set = NULL) keeps empty strings
distinguishable from NULLs.  Two more encodings are chosen per segment
when they are smaller (:func:`_encode_values`): *dictionary* (distinct
values in first-appearance order as a nested plain segment, then one
u8/u16 code per value) and *narrow int* (an int64 base, then unsigned
1/2/4-byte offsets).  A decoded dictionary segment stays coded
(:class:`~repro.columnar.batch.DictColumn`) until a plain vector is
asked for, so filters run once per dictionary entry; a decoded NULL-free
int64, float64 or narrow-int segment stays packed
(:class:`~repro.columnar.batch.PackedColumn`: a typed view of the
segment's own payload bytes), so a storlet block ships a slice of it.

The module also defines the *block stream* codec, the footer-less
framing a columnar storlet ships filtered
:class:`~repro.columnar.batch.ColumnBatch` results in.  A response is
one stateful stream (:class:`BlockStreamEncoder` /
:class:`BlockStreamDecoder`, one of each per response)::

    u32 length | schema header           the preamble, once
    u32 rows | u32 segment length per column | segments      per block

A block's segments are RCF1 segments with two wire-only extensions that
never appear in a stored object: a NULL-free segment sets
:data:`WIRE_NO_BITMAP` in its tag and ships no bitmap, and a
dictionary-coded column ships as :data:`ENC_STREAM_DICT` -- codes into
the column's *stream dictionary* (every entry shipped so far in this
response) preceded by only the entries not shipped yet.
"""

from __future__ import annotations

import bisect
import itertools
import json
import struct
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.columnar.batch import ColumnBatch, DictColumn, PackedColumn, materialize
from repro.columnar.stats import column_bounds
from repro.sql.types import DataType, Schema

MAGIC = b"RCF1"
DEFAULT_STRIPE_ROWS = 4096

ENC_INT64 = 0
ENC_FLOAT64 = 1
ENC_TEXT = 2
ENC_BOOL = 3
ENC_DICT = 4
ENC_NARROW_INT = 5

#: Tag -> name, for counters and documentation.
ENCODING_NAMES = {
    ENC_INT64: "int64",
    ENC_FLOAT64: "float64",
    ENC_TEXT: "text",
    ENC_BOOL: "bool",
    ENC_DICT: "dictionary",
    ENC_NARROW_INT: "narrow_int",
}

#: Wire-only (block stream) tag: ``u16 count | the count entries new to
#: the column's stream dictionary, as a plain NULL-free ``tag | payload``
#: (absent when count is 0) | one u8 code per row``.
ENC_STREAM_DICT = 6
#: Wire-only tag bits: the segment holds no NULL and ships no bitmap;
#: the stream dictionary restarts, empty, before this segment's entries.
WIRE_NO_BITMAP = 0x80
WIRE_RESET = 0x40
#: The most entries one-byte codes (a ``DictColumn``'s) can address.
_STREAM_DICT_LIMIT = 256

#: Narrow-int offset widths in bytes and their ``struct`` codes.
_NARROW_WIDTHS = {1: "B", 2: "H", 4: "I"}

#: RCF1 is little-endian and ``memoryview.cast`` native-endian: only on
#: a little-endian host are a fixed-width payload's bytes a packed
#: column as they stand.  Elsewhere they decode into a list.
_LITTLE_ENDIAN_HOST = sys.byteorder == "little"

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


def _plain_payload(non_null: Sequence[Any], dtype: DataType) -> Tuple[int, bytes]:
    """``(tag, payload)`` of a non-null run in its dtype's plain encoding."""
    if dtype is DataType.INT:
        try:
            return ENC_INT64, struct.pack(f"<{len(non_null)}q", *non_null)
        except struct.error:  # beyond int64: arbitrary-precision escape hatch
            return ENC_TEXT, _encode_text([format(v, "d") for v in non_null])
    if dtype is DataType.FLOAT:
        return ENC_FLOAT64, struct.pack(f"<{len(non_null)}d", *non_null)
    if dtype is DataType.BOOL:
        return ENC_BOOL, _pack_bits(non_null)
    return ENC_TEXT, _encode_text(non_null)


#: The fewest payload bytes one value can take in each plain encoding:
#: a floor on a dictionary's size that needs no encoding to compute.
_MIN_VALUE_BYTES = {ENC_INT64: 8, ENC_FLOAT64: 8, ENC_TEXT: 4, ENC_BOOL: 0}


def _dictionary_payload(
    non_null: Sequence[Any], dtype: DataType, plain_tag: int, plain: bytes
) -> Optional[Tuple[bytes, Sequence[Any]]]:
    """The dictionary payload of a non-null run and its entries, or
    ``None`` when it cannot be smaller than ``plain`` (the run's plain
    payload): ``u8 code width | u32 entry count | the entries as a plain
    NULL-free segment | codes``.

    Entries are the distinct values in first-appearance order.  Floats
    are keyed on their 8-byte image (read back from ``plain``), so
    ``-0.0`` stays apart from ``0.0`` and NaNs are told apart by their
    bits, never by object identity.
    """
    n = len(non_null)
    floats = plain_tag == ENC_FLOAT64
    keys = struct.unpack(f"<{n}q", plain) if floats else non_null
    index = dict.fromkeys(keys)
    count = len(index)
    if count > 1 << 16:
        return None
    width = 1 if count <= 256 else 2
    floor = 6 + (count + 7) // 8 + count * _MIN_VALUE_BYTES[plain_tag] + n * width
    if floor >= len(plain):
        return None
    index = dict(zip(index, itertools.count()))
    lookup = map(index.__getitem__, keys)
    codes = bytes(lookup) if width == 1 else struct.pack(f"<{n}H", *lookup)
    if floats:  # the images *are* the entries' float64 payload
        packed = struct.pack(f"<{count}q", *index)
        entries: Sequence[Any] = struct.unpack(f"<{count}d", packed)
        nested_tag = ENC_FLOAT64
    else:
        entries = list(index)
        nested_tag, packed = _plain_payload(entries, dtype)
    body = b"".join(
        (
            bytes((width,)),
            struct.pack("<I", count),
            bytes((nested_tag,)),
            bytes((count + 7) // 8),
            packed,
            codes,
        )
    )
    return body, entries


def _narrow_payload(non_null: Sequence[int], limit: int) -> Optional[bytes]:
    """``u8 offset width | i64 base | offsets`` for an int64 run, or
    ``None`` when that is not smaller than ``limit`` bytes."""
    n = len(non_null)
    if not n:
        return None
    base = min(non_null)
    span = max(non_null) - base
    for width, code in _NARROW_WIDTHS.items():
        if span < 1 << 8 * width:
            break
    else:
        return None
    if 9 + n * width >= limit:
        return None
    offsets = non_null if not base else [value - base for value in non_null]
    return (
        bytes((width,))
        + struct.pack("<q", base)
        + struct.pack(f"<{n}{code}", *offsets)
    )


def _encode_values(
    values: Sequence[Any], dtype: DataType
) -> Tuple[int, bytes, bytes, int, Sequence[Any]]:
    """One column's segment in its parts (tag, null bitmap, payload), its
    NULL count and a run holding its distinct non-null values in
    first-appearance order -- encoding only, no statistics.

    The encoding is chosen here, from the values alone: the plain
    encoding of the dtype, then dictionary, then narrow int, each later
    candidate replacing the choice only when strictly smaller (so ties
    go to plain, then to dictionary).  The run is the dictionary's
    entries when one was built and the whole non-null run otherwise:
    either way its bounds are the column's.
    """
    bitmap, non_null = _split_nulls(values)
    plain_tag, plain = _plain_payload(non_null, dtype)
    tag, payload, distinct = plain_tag, plain, non_null
    dictionary = _dictionary_payload(non_null, dtype, plain_tag, plain)
    if dictionary is not None:
        candidate, distinct = dictionary
        if len(candidate) < len(plain):
            tag, payload = ENC_DICT, candidate
    if plain_tag == ENC_INT64:
        candidate = _narrow_payload(non_null, len(payload))
        if candidate is not None:
            tag, payload = ENC_NARROW_INT, candidate
    return tag, bitmap, payload, len(values) - len(non_null), distinct


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
    tag, bitmap, payload, nulls, distinct = _encode_values(values, dtype)
    return (bytes((tag,)) + bitmap + payload, nulls) + column_bounds(distinct, dtype)


def _bad_length(what: str) -> ValueError:
    return ValueError(f"RCF1 segment: {what} payload has the wrong length")


def _decode_fixed(tag: int, payload: memoryview, present: int) -> Sequence[Any]:
    """The ``present`` values of an int64, float64 or narrow-int
    payload, which must be exactly as long as they take: a
    :class:`~repro.columnar.batch.PackedColumn` over ``payload`` itself
    (nothing is copied or unpacked), or a list where the host's byte
    order is not the format's."""
    if tag == ENC_NARROW_INT:
        code = _NARROW_WIDTHS.get(payload[0]) if len(payload) else None
        if code is None:
            raise ValueError("RCF1 segment: unknown narrow-int offset width")
        if len(payload) != 9 + present * payload[0]:
            raise _bad_length("narrow-int")
        (base,) = struct.unpack_from("<q", payload, 1)
        payload = payload[9:]
    else:
        if len(payload) != 8 * present:
            raise _bad_length(ENCODING_NAMES[tag])
        code, base = "q" if tag == ENC_INT64 else "d", 0
    if _LITTLE_ENDIAN_HOST:
        return PackedColumn(payload.cast(code), base)
    cells = struct.unpack(f"<{present}{code}", payload)
    return list(map(base.__add__, cells)) if base else list(cells)


def _decode_plain(tag: int, payload: bytes, dtype: DataType, present: int) -> List[Any]:
    """The ``present`` values of a bool or text payload; the payload
    must be exactly as long as they take."""
    if tag == ENC_BOOL:
        if len(payload) != (present + 7) // 8:
            raise _bad_length("bool")
        return [bool((payload[i >> 3] >> (i & 7)) & 1) for i in range(present)]
    if tag != ENC_TEXT:
        raise ValueError(f"unknown segment encoding tag {tag}")
    if len(payload) < 4 * present:
        raise _bad_length("text")
    lengths = struct.unpack(f"<{present}I", payload[: 4 * present])
    blob = payload[4 * present :]
    ends = list(itertools.accumulate(lengths))
    if len(blob) != (ends[-1] if ends else 0):
        raise _bad_length("text")
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
        texts = [decoded[start:end] for start, end in zip([0] + ends[:-1], ends)]
    if dtype is DataType.INT:
        return [int(text) for text in texts]
    if dtype is DataType.FLOAT:
        return [float(text) for text in texts]
    return texts


def _decode_dictionary(
    payload: bytes, dtype: DataType, present: int
) -> Tuple[List[Any], Sequence[int]]:
    """``(entries, codes)`` of a dictionary payload, every code checked
    against the dictionary size."""
    if len(payload) < 5:
        raise _bad_length("dictionary")
    width = payload[0]
    if width not in (1, 2):
        raise ValueError(f"RCF1 segment: unknown dictionary code width {width}")
    (count,) = struct.unpack_from("<I", payload, 1)
    codes_at = len(payload) - present * width
    bitmap_end = 6 + (count + 7) // 8
    if codes_at < bitmap_end or any(payload[6:bitmap_end]):
        raise _bad_length("dictionary")
    if payload[5] in (ENC_INT64, ENC_FLOAT64):
        nested = memoryview(payload)[bitmap_end:codes_at]
        entries = materialize(_decode_fixed(payload[5], nested, count))
    else:
        entries = _decode_plain(payload[5], payload[bitmap_end:codes_at], dtype, count)
    codes: Sequence[int] = payload[codes_at:]
    if width == 2:
        codes = struct.unpack(f"<{present}H", codes)
        stray = present and max(codes) >= count
    else:  # whatever is left once every valid code is deleted
        stray = codes.translate(None, bytes(range(min(count, 256))))
    if stray:
        raise ValueError("RCF1 segment: dictionary code beyond the dictionary")
    return entries, codes


def _scatter(values: Iterable[Any], bitmap: bytes, rows: int, null: Any) -> List[Any]:
    """Spread a non-null run over ``rows`` cells, ``null`` at set bits."""
    it = iter(values)
    return [
        null if (bitmap[i >> 3] >> (i & 7)) & 1 else next(it) for i in range(rows)
    ]


def _decode_values(
    tag: int, data: bytes, start: int, bitmap: bytes, dtype: DataType, rows: int
) -> Sequence[Any]:
    """The ``rows`` cells of the segment ``data`` whose payload starts
    at ``start``; ``bitmap`` is its null bitmap (empty: no NULL)."""
    nulls = int.from_bytes(bitmap, "little")
    if nulls >> rows:
        raise ValueError("RCF1 segment: null bitmap marks cells beyond the rows")
    present = rows - nulls.bit_count()
    if tag == ENC_DICT:
        entries, codes = _decode_dictionary(data[start:], dtype, present)
        if present != rows:
            codes = _scatter(codes, bitmap, rows, len(entries))
            entries.append(None)
        if len(entries) <= 256:
            return DictColumn(entries, bytes(codes))
        return list(map(entries.__getitem__, codes))
    if tag in (ENC_INT64, ENC_FLOAT64, ENC_NARROW_INT):
        values = _decode_fixed(tag, memoryview(data)[start:], present)
    else:
        values = _decode_plain(tag, data[start:], dtype, present)
    return values if present == rows else _scatter(values, bitmap, rows, None)


def decode_column(data: bytes, dtype: DataType, rows: int) -> Sequence[Any]:
    """Decode one stored segment into a column vector of length ``rows``.

    A dictionary segment of at most 256 entries (NULL included) comes
    back as a :class:`~repro.columnar.batch.DictColumn`, still coded; a
    NULL-free int64, float64 or narrow-int segment as a
    :class:`~repro.columnar.batch.PackedColumn` over ``data`` itself;
    everything else as a plain list.  A segment that is not exactly as
    long as its encoding says -- torn, or with bytes appended -- raises
    ``ValueError``, and so does a tag that is not one of the six stored
    encodings (the block stream's wire-only tag and bits included).
    """
    if type(data) is not bytes:
        # A packed column must never alias a buffer that can be resized.
        data = bytes(data)
    payload_at = 1 + (rows + 7) // 8
    if len(data) < payload_at:
        raise ValueError("RCF1 segment: shorter than its null bitmap")
    return _decode_values(data[0], data, payload_at, data[1:payload_at], dtype, rows)


def decode_segment(data: bytes, dtype: DataType, rows: int) -> List[Any]:
    """:func:`decode_column`, materialised: always a plain value list."""
    return materialize(decode_column(data, dtype, rows))


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


StripeObserver = Callable[[int, Sequence[Sequence[Any]], List[SegmentMeta]], None]


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

    ``on_stripe`` is called with each stripe's row count, per column a
    run holding the column's distinct non-null values (the dictionary
    entries where the encoder built a dictionary, the non-null run
    otherwise) and the segment statistics just computed.
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
        parts: List[bytes] = []
        runs: List[Sequence[Any]] = []
        segments: List[SegmentMeta] = []
        for fld, vector in zip(schema.fields, pending):
            tag, bitmap, payload, nulls, run = _encode_values(vector[:end], fld.dtype)
            data = bytes((tag,)) + bitmap + payload
            low, high, has_nan = column_bounds(run, fld.dtype)
            segments.append(
                SegmentMeta(position, len(data), low, high, nulls, has_nan)
            )
            parts.append(data)
            runs.append(run)
            position += len(data)
        stripes.append(StripeMeta(rows=end, columns=segments))
        if on_stripe is not None:
            on_stripe(end, runs, segments)
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
    just the ranged read covering the referenced segments.  Columns are
    as :func:`decode_column` returns them: a dictionary segment stays a
    :class:`~repro.columnar.batch.DictColumn`.
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
        vectors.append(decode_column(data, schema.fields[index].dtype, stripe.rows))
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


def settle_column(column: Sequence[Any]) -> Sequence[Any]:
    """A column gathered from part of a stripe, in the form its blocks
    ship in -- decided here, once, for however many blocks follow.

    A packed column stays as it is while that is what the size rule
    (:func:`_encode_values`) would make of the gathered values, its
    dictionary candidate aside (the stripe's writer already found the
    column not worth one): float64 always, integers as long as their
    span still needs the offset width they have.  Otherwise -- a
    narrower width holds now, or so few rows are left that plain int64
    is no larger -- it goes back to a list, and with it to
    :func:`_encode_values` per block.  Other columns pass through.
    """
    if not isinstance(column, PackedColumn) or column.view.format == "d" or not len(column):
        return column
    cells = column.view.tolist()
    n = len(cells)
    span = max(cells) - min(cells)
    width = next((w for w in _NARROW_WIDTHS if span < 1 << 8 * w), 8)
    if 9 + n * width >= 8 * n:  # offsets that narrow would not be smaller
        width = 8
    return column if width == column.view.itemsize else column.tolist()


#: The tag of a stream-dictionary segment (its rows hold no NULL) and
#: the segment's opening when it ships no new entry.
_STREAM_DICT_TAG = ENC_STREAM_DICT | WIRE_NO_BITMAP
_NO_FRESH_ENTRIES = bytes((_STREAM_DICT_TAG, 0, 0))


class BlockStreamEncoder:
    """The sending side of one response's block stream.

    The stream carries state, so a block does not describe itself: the
    schema travels once (a preamble in front of the first block -- a
    response without a block is empty), and each dictionary-coded column
    has a *stream dictionary* of every entry shipped so far.  The work
    is per stripe: :meth:`blocks` takes a stripe's selected columns,
    decides once the form each one ships in, and frames the stripe as
    ``u32 rows | u32 segment length per column | segments`` blocks,
    mostly by slicing bytes.

    * a :class:`~repro.columnar.batch.PackedColumn` ships under the tag,
      width and base it has (after :func:`settle_column`, when the
      stripe was ``gathered``): ``tag | [width | base] | view[a:b]``;
    * a :class:`~repro.columnar.batch.DictColumn` whose rows hold no
      NULL ships as :data:`ENC_STREAM_DICT`.  The entries the stripe
      uses are looked up in the stream dictionary (floats by their
      8-byte image, as :func:`_dictionary_payload` keys them), the ones
      not shipped yet are appended to it and ride on the stripe's first
      block, and the stripe's codes are mapped to stream codes with one
      ``translate``: a block's codes are a slice of those.  When the new
      entries would take the dictionary past the 256 that one-byte codes
      address, it restarts from this stripe's entries
      (:data:`WIRE_RESET`);
    * anything else -- a plain list, a coded column with NULLs -- gets,
      per block, the encoding :func:`_encode_values` chooses.

    Every NULL-free segment sets :data:`WIRE_NO_BITMAP` and ships no
    bitmap.  ``shipped`` (when given) counts the block columns by which
    of the three happened: ``verbatim`` / ``settled`` for a carrier of
    an untouched / a gathered stripe, ``reencoded``.
    """

    def __init__(self, schema: Schema, shipped: Optional[Dict[str, int]] = None):
        self._dtypes = [fld.dtype for fld in schema.fields]
        self._shipped = shipped
        header = schema.to_header().encode("utf-8")
        #: What goes in front of the next block: the preamble, once.
        self._preamble = struct.pack("<I", len(header)) + header
        self._frame = struct.Struct(f"<{1 + len(self._dtypes)}I")
        #: Per column, the stream dictionary: entry -> stream code.
        self._dictionaries: List[Dict[Any, int]] = [{} for _ in self._dtypes]
        #: Stream-dictionary entries shipped and dictionary restarts.
        self.entries_shipped = 0
        self.resets = 0

    def blocks(
        self,
        columns: Sequence[Sequence[Any]],
        rows: int,
        block_rows: int,
        gathered: bool = False,
    ) -> Iterator[bytes]:
        """Frame the next stripe -- ``rows`` rows, one vector per schema
        column -- as blocks of at most ``block_rows`` rows (one block
        when it has no row).  ``gathered``: a filter dropped rows of the
        stripe the carriers were decoded from."""
        carried = "settled" if gathered else "verbatim"
        settled = [
            self._settle(index, settle_column(column) if gathered else column, carried)
            for index, column in enumerate(columns)
        ]
        shipped = self._shipped
        for start in range(0, max(rows, 1), block_rows):
            stop = min(start + block_rows, rows)
            segments = []
            for (how, opening, head, body), dtype in zip(settled, self._dtypes):
                if head is not None:  # a slice of the packed cells / mapped codes
                    segments.append((head if start else opening) + body[start:stop])
                else:
                    tag, bitmap, payload, nulls, _ = _encode_values(body[start:stop], dtype)
                    if nulls:
                        segments.append(bytes((tag,)) + bitmap + payload)
                    else:
                        segments.append(bytes((tag | WIRE_NO_BITMAP,)) + payload)
                if shipped is not None:
                    shipped[how] = shipped.get(how, 0) + 1
            preamble, self._preamble = self._preamble, b""
            frame = self._frame.pack(stop - start, *map(len, segments))
            yield b"".join((preamble, frame, *segments))

    def _settle(
        self, index: int, column: Sequence[Any], carried: str
    ) -> Tuple[str, Optional[bytes], Optional[bytes], Sequence[Any]]:
        """How one column of a stripe ships: what it is counted as, what
        its segment opens with in the stripe's first block and in the
        later ones (``None``: the body is a plain vector to encode per
        block) and the body its blocks slice."""
        if isinstance(column, PackedColumn):
            view = column.view
            if view.itemsize == 8:
                tag = ENC_INT64 if view.format == "q" else ENC_FLOAT64
                head = bytes((tag | WIRE_NO_BITMAP,))
            else:
                head = bytes(
                    (ENC_NARROW_INT | WIRE_NO_BITMAP, view.itemsize)
                ) + struct.pack("<q", column.base)
            return carried, head, head, view
        if isinstance(column, DictColumn):
            coded = self._stream_coded(index, column)
            if coded is not None:
                opening, codes = coded
                return carried, opening, _NO_FRESH_ENTRIES, codes
        return "reencoded", None, None, materialize(column)

    def _stream_coded(
        self, index: int, column: DictColumn
    ) -> Optional[Tuple[bytes, bytes]]:
        """A coded column against the stream dictionary: what its first
        segment opens with (tag, the entries new to the stream) and one
        stream code per row -- or ``None`` when a row holds NULL."""
        used = sorted(set(column.codes))
        keys: Sequence[Any] = [column.entries[code] for code in used]
        if None in keys:
            return None
        floats = self._dtypes[index] is DataType.FLOAT
        if floats:
            keys = struct.unpack(
                f"<{len(keys)}q", struct.pack(f"<{len(keys)}d", *keys)
            )
        known = self._dictionaries[index]
        fresh = [key for key in dict.fromkeys(keys) if key not in known]
        tag = _STREAM_DICT_TAG
        if len(known) + len(fresh) > _STREAM_DICT_LIMIT:
            known.clear()
            fresh = list(dict.fromkeys(keys))
            tag |= WIRE_RESET
            self.resets += 1
        known.update(zip(fresh, itertools.count(len(known))))
        self.entries_shipped += len(fresh)
        opening = bytes((tag,)) + struct.pack("<H", len(fresh))
        if floats and fresh:  # the images *are* the float64 payload
            opening += bytes((ENC_FLOAT64,)) + struct.pack(f"<{len(fresh)}q", *fresh)
        elif fresh:
            nested_tag, payload = _plain_payload(fresh, self._dtypes[index])
            opening += bytes((nested_tag,)) + payload
        table = bytearray(256)
        for code, key in zip(used, keys):
            table[code] = known[key]
        return opening, column.codes.translate(table)


class BlockStreamDecoder:
    """Incremental push-parser for one response's block stream.

    Feed chunks with :meth:`push` (any boundaries, 1-byte chunks
    included), collect the batches that completed, and call
    :meth:`finish` at end of stream -- leftover bytes there mean the
    stream was truncated mid-block, which raises ``ValueError`` so a
    cut-short storlet response cannot silently pass for a complete one.
    The decoder is the stream's other half (see
    :class:`BlockStreamEncoder`) and holds its state -- the schema from
    the preamble, the entries of each column's stream dictionary -- so
    it serves one response: a retry or a degradation opens a new
    response and decodes it with a new decoder.  A dictionary grows by
    a *new* list, never in place: the ``DictColumn`` of a batch already
    handed out keeps the entries it was made with.

    Every check :func:`decode_column` makes on a stored segment holds
    for a wire segment too (exact payload length, no code beyond the
    dictionary).  Columns stay as they were shipped, so a coded or
    packed segment reaches the kernels and the hash aggregate as that
    carrier; cells are expanded only where rows leave
    (:attr:`~repro.columnar.batch.ColumnBatch.rows`).  Each segment is
    copied out of the buffer before it is decoded: a packed column is a
    view of the bytes it was decoded from, and the buffer is resized
    under every block.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._schema: Optional[Schema] = None
        #: ``struct`` format of a block header, known from the preamble.
        self._frame = ""
        #: Per column, the stream dictionary's entries so far.
        self._entries: List[List[Any]] = []
        #: The unpacked header of the block at the head of the buffer
        #: and where the block ends -- from the chunk that completed the
        #: header until the block is consumed.
        self._pending: Optional[Tuple[Tuple[int, ...], int]] = None
        self._blocks = 0

    def push(self, chunk: bytes) -> List[ColumnBatch]:
        """Absorb one chunk; return every batch it completed (often [])."""
        self._buffer.extend(chunk)
        batches: List[ColumnBatch] = []
        buffer = self._buffer
        if self._schema is None:
            if len(buffer) < 4:
                return batches
            (length,) = struct.unpack_from("<I", buffer)
            if len(buffer) < 4 + length:
                return batches
            self._schema = Schema.from_header(bytes(buffer[4 : 4 + length]).decode("utf-8"))
            self._frame = f"<{1 + len(self._schema)}I"
            self._entries = [[] for _ in self._schema.fields]
            del buffer[: 4 + length]
        schema = self._schema
        header_len = 4 + 4 * len(schema)
        while True:
            if self._pending is None:
                if len(buffer) < header_len:
                    break
                header = struct.unpack_from(self._frame, buffer)
                self._pending = header, header_len + sum(header[1:])
            header, total = self._pending
            if len(buffer) < total:
                break
            rows = header[0]
            offset = header_len
            vectors = []
            for index, length in enumerate(header[1:]):
                segment = bytes(buffer[offset : offset + length])
                vectors.append(self._decode(index, segment, rows))
                offset += length
            del buffer[:total]
            self._pending = None
            self._blocks += 1
            batches.append(ColumnBatch(schema, vectors, rows))
        return batches

    def _decode(self, index: int, data: bytes, rows: int) -> Sequence[Any]:
        """One wire segment of column ``index``."""
        if not data:
            raise ValueError("RCF1 segment: empty")
        dtype = self._schema.fields[index].dtype
        tag = data[0]
        if tag & ~WIRE_RESET != _STREAM_DICT_TAG:
            if tag & WIRE_NO_BITMAP:
                return _decode_values(tag ^ WIRE_NO_BITMAP, data, 1, b"", dtype, rows)
            return decode_column(data, dtype, rows)
        codes_at = len(data) - rows
        if codes_at < 3:
            raise _bad_length("stream-dictionary")
        (count,) = struct.unpack_from("<H", data, 1)
        entries = [] if tag & WIRE_RESET else self._entries[index]
        if not count:
            if codes_at != 3:
                raise _bad_length("stream-dictionary")
        elif codes_at < 4 or len(entries) + count > _STREAM_DICT_LIMIT:
            raise ValueError("RCF1 segment: stream dictionary entry count out of range")
        elif data[3] in (ENC_INT64, ENC_FLOAT64):
            nested = memoryview(data)[4:codes_at]
            entries = entries + materialize(_decode_fixed(data[3], nested, count))
        else:
            entries = entries + _decode_plain(data[3], data[4:codes_at], dtype, count)
        codes = data[codes_at:]
        if codes.translate(None, bytes(range(len(entries)))):
            raise ValueError("RCF1 segment: dictionary code beyond the dictionary")
        self._entries[index] = entries
        return DictColumn(entries, codes)

    def finish(self) -> None:
        """Assert end-of-stream fell exactly on a block boundary (the
        preamble comes with the first block, never alone)."""
        if self._buffer or (self._schema is not None and not self._blocks):
            raise ValueError("truncated columnar block stream")


def decode_block_stream(chunks: Iterable[bytes]) -> Iterator[ColumnBatch]:
    """Incrementally decode one response's block stream back into
    column batches.

    Tolerates arbitrary chunk boundaries (1-byte chunks included); a
    stream that ends mid-block raises ``ValueError`` so a truncated
    storlet response cannot silently pass for a complete one.
    """
    decoder = BlockStreamDecoder()
    for chunk in chunks:
        yield from decoder.push(chunk)
    decoder.finish()
