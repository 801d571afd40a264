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
distinguishable from NULLs.  Three more encodings are chosen per
segment when they are smaller (:func:`_encode_values`): *dictionary*
(distinct values in first-appearance order as a nested plain segment,
then one u8/u16 code per value), *narrow int* (an int64 base, then
unsigned 1/2/4-byte offsets) and *decimal* (a FLOAT run whose every
value is exactly ``k / 10**e``: the exponent ``e``, then the scaled
integers ``k`` as a narrow-int payload).  A decoded dictionary segment
stays coded (:class:`~repro.columnar.batch.DictColumn`) until a plain
vector is asked for, so filters run once per dictionary entry; a decoded
NULL-free int64, float64, narrow-int or decimal segment stays packed
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
response), each in the fewest of 1, 2, 4 or 8 bits that address it,
preceded by only the entries not shipped yet.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
import struct
import sys
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.columnar.batch import (
    DECIMAL_SCALES,
    ColumnBatch,
    DictColumn,
    PackedColumn,
    decimal_cells,
    materialize,
    offset_cells,
)
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
ENC_DECIMAL = 7

#: Tag -> name, for counters and documentation.
ENCODING_NAMES = {
    ENC_INT64: "int64",
    ENC_FLOAT64: "float64",
    ENC_TEXT: "text",
    ENC_BOOL: "bool",
    ENC_DICT: "dictionary",
    ENC_NARROW_INT: "narrow_int",
    ENC_DECIMAL: "decimal",
}

#: Wire-only (block stream) tag: ``u16 count | the count entries new to
#: the column's stream dictionary, as a plain NULL-free ``tag | payload``
#: (absent when count is 0) | one code per row``, each code in the
#: fewest of 1, 2, 4 or 8 bits that address the dictionary with the new
#: entries in (:func:`_code_bits`), packed LSB-first within a byte, the
#: last byte's unused bits zero.
ENC_STREAM_DICT = 6
#: Wire-only tag bits: the segment holds no NULL and ships no bitmap;
#: the stream dictionary restarts, empty, before this segment's entries.
WIRE_NO_BITMAP = 0x80
WIRE_RESET = 0x40
#: The most entries one-byte codes (a ``DictColumn``'s) can address.
_STREAM_DICT_LIMIT = 256
#: Per stream-code width under a byte, one ``(pack, unpack)`` translate
#: table pair per bit field: field ``j`` of byte ``i`` holds code
#: ``i * (8 // bits) + j``, at bit ``j * bits``.
_CODE_FIELDS = {
    bits: [
        (
            bytes((code << shift) & 0xFF for code in range(256)),
            bytes((byte >> shift) & ((1 << bits) - 1) for byte in range(256)),
        )
        for shift in range(0, 8, bits)
    ]
    for bits in (1, 2, 4)
}

#: Narrow-int offset widths in bytes and their ``struct`` codes.
_NARROW_WIDTHS = {1: "B", 2: "H", 4: "I"}

#: The largest exponent of a decimal segment, and the bound on the
#: magnitude of its scaled integers (every one an exact float64).
_MAX_EXPONENT = len(DECIMAL_SCALES) - 1
_EXACT = 1 << 53
#: How many evenly spaced values of a run pick the exponent its decimal
#: check starts from (:func:`_decimal_run`).
_DECIMAL_SAMPLE = 64
_round = float.__round__

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


class TextBlock(NamedTuple):
    """A block of CSV fields the drop rule has validated, one text
    vector per schema column: a cell is its field's text, ``""`` a NULL.

    :func:`encode_column_stream` takes these or typed value vectors and
    tells them apart by this type; where a column's texts repeat, a
    text cell is typed only as one of its distinct texts
    (:func:`_encode_texts`).
    """

    texts: Sequence[Sequence[str]]


def _split_nulls(values: Sequence[Any], null: Any = None) -> Tuple[bytes, Sequence[Any]]:
    """The null bitmap (bit set = NULL) and the non-null run of a column
    whose NULL cells are ``null`` (``""`` in a text vector)."""
    n = len(values)
    if not values.count(null):
        return bytes((n + 7) // 8), values
    bitmap = bytearray((n + 7) // 8)
    non_null: List[Any] = []
    for i, value in enumerate(values):
        if value == null:
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


def _text_size(texts: Sequence[str]) -> int:
    """``len(_encode_text(texts))``, without packing it."""
    joined = "".join(texts)
    return 4 * len(texts) + (
        len(joined) if joined.isascii() else len(joined.encode("utf-8"))
    )


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


def _dictionary_floor(count: int, n: int, plain_tag: int) -> Tuple[int, int]:
    """The code width of a dictionary of ``count`` entries over ``n``
    values, and a floor on its payload's size."""
    width = 1 if count <= 256 else 2
    return width, 6 + (count + 7) // 8 + count * _MIN_VALUE_BYTES[plain_tag] + n * width


def _dictionary_body(
    width: int, count: int, nested_tag: int, nested: bytes, codes: Iterable[int], n: int
) -> bytes:
    """``u8 code width | u32 entry count | the entries as a plain
    NULL-free segment | codes``."""
    return b"".join(
        (
            bytes((width,)),
            struct.pack("<I", count),
            bytes((nested_tag,)),
            bytes((count + 7) // 8),
            nested,
            bytes(codes) if width == 1 else struct.pack(f"<{n}H", *codes),
        )
    )


def _dictionary_payload(
    non_null: Sequence[Any], dtype: DataType, plain_tag: int, plain: Optional[bytes], limit: int
) -> Optional[Tuple[bytes, Sequence[Any]]]:
    """The dictionary payload of a non-null run and its entries, or
    ``None`` when it cannot be smaller than ``limit`` bytes (the run's
    plain payload; ``plain`` is that payload where it was packed).

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
    width, floor = _dictionary_floor(count, n, plain_tag)
    if floor >= limit:
        return None
    index = dict(zip(index, itertools.count()))
    codes = map(index.__getitem__, keys)
    if floats:  # the images *are* the entries' float64 payload
        nested_tag, packed = ENC_FLOAT64, struct.pack(f"<{count}q", *index)
        entries: Sequence[Any] = struct.unpack(f"<{count}d", packed)
    else:
        entries = list(index)
        nested_tag, packed = _plain_payload(entries, dtype)
    return _dictionary_body(width, count, nested_tag, packed, codes, n), entries


def _narrow_width(span: int, n: int, limit: int) -> Optional[int]:
    """The offset width of a narrow-int payload of ``n`` values spanning
    ``span``, or ``None`` when none holds the span or the payload would
    not be smaller than ``limit`` bytes."""
    for width in _NARROW_WIDTHS:
        if span < 1 << 8 * width:
            return width if 9 + n * width < limit else None
    return None


def _offsets_payload(width: int, base: int, offsets: Iterable[int], n: int) -> bytes:
    """``u8 offset width | i64 base | n offsets``."""
    return (
        bytes((width,))
        + struct.pack("<q", base)
        + struct.pack(f"<{n}{_NARROW_WIDTHS[width]}", *offsets)
    )


def _narrow_payload(non_null: Sequence[int], base: int, width: int) -> bytes:
    """A narrow-int payload for an int64 run."""
    offsets = non_null if not base else [value - base for value in non_null]
    return _offsets_payload(width, base, offsets, len(non_null))


def _decimal_run(values: Sequence[Any]) -> Optional[Tuple[int, List[int], int, int]]:
    """``(e, scaled, low, high)``: the smallest exponent ``e`` at which
    every value of a FLOAT run is the decimal cell (:func:`decimal_cells`)
    of its scaled integer ``k = round(value * 10**e)``, the run's ``k``s
    and their least and greatest -- or ``None`` when no ``e`` up to
    :data:`_MAX_EXPONENT` holds them all.

    A value is held bit for bit: by ``==``, and a ``-0.0`` (which
    ``==`` takes for the ``0.0`` that ``k = 0`` decodes to) never.  Nor
    are NaN and +/-inf, nor a ``k`` of ``2**53`` or more in magnitude
    (which only grows with ``e``).  The answer depends on the values
    alone, not on their order or repeats: the exponent is the smallest
    that holds an evenly spaced sample, the whole run is then checked at
    it once and, should a value miss, the search goes on from the next
    exponent with that value in the sample.
    """
    if type(values) is not list:
        values = list(values)
    step = max(1, len(values) // _DECIMAL_SAMPLE)
    sample = values[::step] if step > 1 else values
    probe = sample
    exponent = 0
    while exponent <= _MAX_EXPONENT:
        scale = DECIMAL_SCALES[exponent]
        try:  # ``round`` without its special-method lookup: twice as fast
            scaled = [_round(value * scale) for value in probe]
        except (ValueError, OverflowError, TypeError):
            return None  # NaN, +/-inf: a decimal at no exponent
        low, high = (min(scaled), max(scaled)) if scaled else (0, 0)
        if not -_EXACT < low <= high < _EXACT:
            return None
        cells = decimal_cells(scaled, exponent)
        if cells == probe:
            if probe is not values:
                probe = values  # the sample holds: check the run once, in full
                continue
            if low <= 0 <= high and 0 in scaled:
                zeros = itertools.compress(values, map(operator.not_, scaled))
                if -1.0 in map(math.copysign, itertools.repeat(1.0), zeros):
                    return None  # a -0.0
            return exponent, scaled, low, high
        if probe is values and sample is not values:
            missed = map(operator.ne, cells, probe)
            sample = [*sample, values[next(itertools.compress(itertools.count(), missed))]]
        probe = sample
        exponent += 1
    return None


class _Decimal(NamedTuple):
    """A decimal payload in its parts: its size, and ``scaled`` one
    ``k`` per entry it was built from."""

    size: int
    exponent: int
    base: int
    width: int
    scaled: List[int]


def _decimal_candidate(entries: Sequence[Any], n: int, limit: int) -> Optional[_Decimal]:
    """The decimal payload of ``n`` FLOAT values whose distinct values
    are ``entries``, or ``None`` when there is none or it would not be
    smaller than ``limit`` bytes.  The check is skipped when not even
    one-byte offsets would be."""
    if 10 + n >= limit:
        return None
    run = _decimal_run(entries)
    if run is None:
        return None
    exponent, scaled, base, high = run
    width = _narrow_width(high - base, n, limit - 1)
    if width is None:
        return None
    return _Decimal(10 + n * width, exponent, base, width, scaled)


def _encode_values(
    values: Sequence[Any], dtype: DataType
) -> Tuple[int, bytes, bytes, int, Sequence[Any]]:
    """One column's segment in its parts (tag, null bitmap, payload), its
    NULL count and a run holding its distinct non-null values in
    first-appearance order -- encoding only, no statistics.

    The encoding is chosen here, from the values alone: the plain
    encoding of the dtype, then dictionary, then narrow int (an INT
    run) or decimal (a FLOAT run), each later candidate replacing the
    choice only when strictly smaller (so ties go to plain, then to
    dictionary).  A FLOAT run's decimal candidate is built first: where
    it is no larger than a dictionary's floor, no dictionary is keyed
    and no float64 packed.  A plain payload is packed only once it is
    chosen.  The run is the dictionary's entries when one was built and
    the whole non-null run otherwise: either way its bounds are the
    column's.
    """
    bitmap, non_null = _split_nulls(values)
    n = len(non_null)
    plain: Optional[bytes] = None
    decimal = None
    if dtype is DataType.STRING:
        plain_tag, size = ENC_TEXT, _text_size(non_null)
    elif dtype is DataType.FLOAT:
        plain_tag, size = ENC_FLOAT64, 8 * n
        decimal = _decimal_candidate(non_null, n, size)
    else:
        plain_tag, plain = _plain_payload(non_null, dtype)
        size = len(plain)
    tag, payload, distinct = plain_tag, plain, non_null
    # A dictionary is taken over the decimal when no larger than it.  Its
    # entries cost 8 bytes each, so the distinct scaled integers among
    # the first ``limit / 8`` may already price it out.
    limit = size if decimal is None else min(size, decimal.size + 1)
    if decimal is None or _dictionary_floor(
        len(set(decimal.scaled[: limit // 8 + 1])), n, plain_tag
    )[1] < limit:
        if plain_tag == ENC_FLOAT64:
            plain = _plain_payload(non_null, dtype)[1]
        dictionary = _dictionary_payload(non_null, dtype, plain_tag, plain, limit)
        if dictionary is not None:
            candidate, entries = dictionary
            if len(candidate) < limit:
                tag, payload, size, distinct = ENC_DICT, candidate, len(candidate), entries
                decimal = None
    if decimal is not None:
        payload = _narrow_payload(decimal.scaled, decimal.base, decimal.width)
        tag, payload = ENC_DECIMAL, bytes((decimal.exponent,)) + payload
    elif plain_tag == ENC_INT64 and non_null:
        base = min(non_null)
        width = _narrow_width(max(non_null) - base, n, size)
        if width is not None:
            tag, payload = ENC_NARROW_INT, _narrow_payload(non_null, base, width)
    if payload is None:
        payload = plain if plain is not None else _plain_payload(non_null, dtype)[1]
    return tag, bitmap, payload, len(values) - n, distinct


#: How many evenly spaced cells of a text vector tell whether its texts
#: repeat (:func:`_encode_texts`).
_SAMPLE_CELLS = 256


def _encode_texts(
    texts: Sequence[str], dtype: DataType
) -> Tuple[int, bytes, bytes, int, Sequence[Any]]:
    """:func:`_encode_values` over a text vector (see :class:`TextBlock`):
    the same segment, built from the column's distinct texts.

    Only the distinct texts are typed.  Texts of one value are one
    dictionary entry -- a FLOAT's by its 8-byte image, as
    :func:`_dictionary_payload` keys it, so ``-0.0`` stays apart from
    ``0.0``; an INT's by value, so ``007`` and ``7`` are one -- and every
    size is computed from the entries, the decimal check runs over them,
    and a cell is typed only for the plain or narrow-int payload, once
    that is chosen (a decimal one maps each text to its scaled integer).
    The run returned is the entries.

    Keying the texts pays only where they repeat.  A column whose cells
    are nearly all distinct -- nine in ten of :data:`_SAMPLE_CELLS`
    evenly spaced ones -- is typed cell by cell and encoded as typed
    values: the same segment either way.
    """
    step = max(1, len(texts) // _SAMPLE_CELLS)
    sample = texts[::step]
    if 10 * len(set(sample)) > 9 * len(sample):
        return _encode_values(dtype.parse_column(texts), dtype)
    spellings = dict.fromkeys(texts)
    if "" in spellings:
        del spellings[""]
        bitmap, non_null = _split_nulls(texts, "")
    else:
        bitmap, non_null = bytes((len(texts) + 7) // 8), texts
    n = len(non_null)
    spellings = list(spellings)
    values = dtype.parse_column(spellings)
    floats = dtype is DataType.FLOAT
    keys = (
        struct.unpack(f"<{len(values)}q", struct.pack(f"<{len(values)}d", *values))
        if floats
        else values
    )
    index = dict.fromkeys(keys)
    count = len(index)
    merged = count < len(spellings)
    entries: Sequence[Any] = values
    if merged:
        entries = (
            struct.unpack(f"<{count}d", struct.pack(f"<{count}q", *index))
            if floats
            else list(index)
        )

    def cells() -> Sequence[Any]:
        """Every non-null cell, typed."""
        if len(spellings) == n:  # no text repeats: the spellings are the cells
            return values
        return list(map(dict(zip(spellings, values)).__getitem__, non_null))

    def of_texts(per_entry: Iterable[Any]) -> Dict[str, Any]:
        """Each spelling's item of ``per_entry`` (one per entry)."""
        if merged:
            of_key = dict(zip(index, per_entry))
            return dict(zip(spellings, map(of_key.__getitem__, keys)))
        return dict(zip(spellings, per_entry))

    plain: Optional[bytes] = None
    decimal = None
    if dtype is DataType.STRING:
        plain_tag, size = ENC_TEXT, _text_size(non_null)
    elif dtype is DataType.BOOL:
        plain_tag, size = ENC_BOOL, (n + 7) // 8
    elif floats:
        plain_tag, size = ENC_FLOAT64, 8 * n
        decimal = _decimal_candidate(entries, n, size)
    elif not n or (-(1 << 63) <= min(entries) and max(entries) < 1 << 63):
        plain_tag, size = ENC_INT64, 8 * n
    else:  # beyond int64: the text escape hatch, packed now
        plain_tag, plain = _plain_payload(cells(), dtype)
        size = len(plain)
    tag, payload = plain_tag, plain
    limit = size if decimal is None else min(size, decimal.size + 1)
    if count <= 1 << 16:
        width, floor = _dictionary_floor(count, n, plain_tag)
        if floor < limit:
            if floats:
                nested_tag, nested = ENC_FLOAT64, struct.pack(f"<{count}q", *index)
            else:
                nested_tag, nested = _plain_payload(entries, dtype)
            candidate = 6 + (count + 7) // 8 + len(nested) + n * width
            if candidate < limit:
                codes = map(of_texts(itertools.count()).__getitem__, non_null)
                tag, size, decimal = ENC_DICT, candidate, None
                payload = _dictionary_body(width, count, nested_tag, nested, codes, n)
    if decimal is not None:
        base = decimal.base
        offsets = of_texts([k - base for k in decimal.scaled] if base else decimal.scaled)
        tag = ENC_DECIMAL
        payload = bytes((decimal.exponent,)) + _offsets_payload(
            decimal.width, base, map(offsets.__getitem__, non_null), n
        )
    elif plain_tag == ENC_INT64 and n:
        base = min(entries)
        width = _narrow_width(max(entries) - base, n, size)
        if width is not None:
            tag, payload = ENC_NARROW_INT, _narrow_payload(cells(), base, width)
    if payload is None:  # plain, and not packed yet
        payload = (
            _encode_text(non_null)
            if plain_tag == ENC_TEXT
            else _plain_payload(cells(), dtype)[1]
        )
    return tag, bitmap, payload, len(texts) - n, entries


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


#: The tags whose NULL-free payload decodes into a packed column.
_FIXED_TAGS = (ENC_INT64, ENC_FLOAT64, ENC_NARROW_INT, ENC_DECIMAL)


def _decode_fixed(tag: int, payload: memoryview, present: int) -> Sequence[Any]:
    """The ``present`` values of an int64, float64, narrow-int or
    decimal payload, which must be exactly as long as they take: a
    :class:`~repro.columnar.batch.PackedColumn` over ``payload`` itself
    (nothing is copied or unpacked), or a list where the host's byte
    order is not the format's."""
    exponent: Optional[int] = None
    if tag == ENC_DECIMAL:
        if not len(payload) or payload[0] > _MAX_EXPONENT:
            raise ValueError("RCF1 segment: decimal exponent out of range")
        exponent, payload = payload[0], payload[1:]
    if tag in (ENC_NARROW_INT, ENC_DECIMAL):
        code = _NARROW_WIDTHS.get(payload[0]) if len(payload) else None
        if code is None:
            raise ValueError("RCF1 segment: unknown narrow-int offset width")
        if len(payload) != 9 + present * payload[0]:
            raise _bad_length(ENCODING_NAMES[tag])
        (base,) = struct.unpack_from("<q", payload, 1)
        payload = payload[9:]
    else:
        if len(payload) != 8 * present:
            raise _bad_length(ENCODING_NAMES[tag])
        code, base = "q" if tag == ENC_INT64 else "d", 0
    if _LITTLE_ENDIAN_HOST:
        return PackedColumn(payload.cast(code), base, exponent)
    cells = struct.unpack(f"<{present}{code}", payload)
    return list(offset_cells(cells, base, exponent))


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
    if tag in _FIXED_TAGS:
        values = _decode_fixed(tag, memoryview(data)[start:], present)
    else:
        values = _decode_plain(tag, data[start:], dtype, present)
    return values if present == rows else _scatter(values, bitmap, rows, None)


def decode_column(data: bytes, dtype: DataType, rows: int) -> Sequence[Any]:
    """Decode one stored segment into a column vector of length ``rows``.

    A dictionary segment of at most 256 entries (NULL included) comes
    back as a :class:`~repro.columnar.batch.DictColumn`, still coded; a
    NULL-free int64, float64, narrow-int or decimal segment as a
    :class:`~repro.columnar.batch.PackedColumn` over ``data`` itself;
    everything else as a plain list.  A segment that is not exactly as
    long as its encoding says -- torn, or with bytes appended -- raises
    ``ValueError``, and so do a decimal exponent past 15, an offset
    width that is not 1, 2 or 4 and a tag that is not one of the seven
    stored encodings (the block stream's wire-only tag and bits
    included).
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


def _row_costs(schema: Schema, columns: Sequence[Sequence[Any]], null: Any = None) -> List[int]:
    """Approximate encoded size of each row of a block, column-wise.

    A row costs 1 (null-bitmap + framing amortization) plus, per
    non-NULL cell, 8 in an INT or FLOAT column, 1 in a BOOL column and
    4 + the text length in a STRING column: near enough to size stripes
    by, and -- deciding where they are cut -- part of the output.  A
    NULL cell is ``null`` (``""`` in a text vector).
    """
    fixed = 1  # what every row costs: the 1 plus the NULL-free columns
    varying: List[Iterable[int]] = []
    for fld, column in zip(schema.fields, columns):
        text = fld.dtype is DataType.STRING
        width = 4 if text else 1 if fld.dtype is DataType.BOOL else 8
        if null in column:
            varying.append(
                [0 if v == null else width + (len(v) if text else 0) for v in column]
            )
        else:
            fixed += width
            if text:
                varying.append(map(len, column))
    if not varying:
        return [fixed] * len(columns[0])
    return [fixed + cost for cost in map(sum, zip(*varying))]


def _block_cost(schema: Schema, columns: Sequence[Sequence[Any]], null: Any = None) -> int:
    """``sum(_row_costs(schema, columns, null))``, a few C-level passes
    per column."""
    rows = len(columns[0])
    cost = rows
    for fld, column in zip(schema.fields, columns):
        if null is None:
            nulls, texts = column.count(None), filter(None, column)
        else:  # a text cell is falsy only when NULL, and "" adds no length
            nulls, texts = (0 if all(column) else column.count(null)), column
        if fld.dtype is DataType.STRING:
            cost += 4 * (rows - nulls) + len("".join(texts))
        else:
            cost += (rows - nulls) * (1 if fld.dtype is DataType.BOOL else 8)
    return cost


StripeObserver = Callable[[int, Sequence[Sequence[Any]], List[SegmentMeta]], None]


def encode_column_stream(
    schema: Schema,
    blocks: Iterable[Any],
    stripe_rows: int = DEFAULT_STRIPE_ROWS,
    stripe_bytes: Optional[int] = None,
    on_stripe: Optional[StripeObserver] = None,
) -> Iterator[bytes]:
    """Stream-encode column blocks into RCF1 chunks (one per stripe).

    A block is one typed value vector per schema column, all of one
    length, or a :class:`TextBlock` of validated CSV fields -- every
    block of one stream the same kind.  Either way the segments are
    the same bytes (:func:`_encode_values` / :func:`_encode_texts`);
    from text, a column whose texts repeat types only its distinct
    ones.  Blocks are concatenated and re-cut into stripes, so the
    output does not depend on how the input was blocked.  Memory stays
    O(stripe) regardless of input size, which is what lets the
    CSV-to-columnar ETL storlet convert objects at PUT time without
    materializing them.

    A stripe ends after ``stripe_rows`` rows or, with ``stripe_bytes``,
    with the first row at which its summed row cost (:func:`_row_costs`)
    reaches the budget.  Writers size stripes to the reader's split
    granule this way, so partition discovery over the footer yields
    splits comparable to the row-oriented path and the scheduler's
    speculation window covers the same byte budget either way.  The
    cost is summed per block (:func:`_block_cost`) and expanded to one
    cost per row only in the block where a cut falls.

    ``on_stripe`` is called with each stripe's row count, per column a
    run holding the column's distinct non-null values (the dictionary
    entries where the encoder built a dictionary -- from text, where it
    keyed the texts -- the non-null run otherwise) and the segment
    statistics just computed.
    """
    if stripe_rows <= 0:
        raise ValueError(f"stripe_rows must be positive: {stripe_rows}")
    if stripe_bytes is not None and stripe_bytes <= 0:
        raise ValueError(f"stripe_bytes must be positive: {stripe_bytes}")
    yield MAGIC
    position = len(MAGIC)
    stripes: List[StripeMeta] = []
    pending: List[List[Any]] = [[] for _ in schema.fields]
    # Under a byte budget: ``[rows, summed row cost]`` of each block
    # (or the rest of one) among the pending rows, in order.
    sums: List[List[int]] = []
    # The segment encoder and NULL cell of the stream's kind of block,
    # settled by its first.
    encode: Optional[Callable[..., Tuple[int, bytes, bytes, int, Sequence[Any]]]] = None
    null: Any = None

    def cut(end: int) -> bytes:
        """Encode the first ``end`` pending rows as the next stripe."""
        nonlocal position
        parts: List[bytes] = []
        runs: List[Sequence[Any]] = []
        segments: List[SegmentMeta] = []
        for fld, vector in zip(schema.fields, pending):
            tag, bitmap, payload, nulls, run = encode(vector[:end], fld.dtype)
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

    def budget_end() -> int:
        """One past the first pending row at which the summed row cost
        reaches ``stripe_bytes``; past the pending rows when none does."""
        spent = start = 0
        for rows, cost in sums:
            if spent + cost >= stripe_bytes:
                costs = _row_costs(
                    schema, [vector[start : start + rows] for vector in pending], null
                )
                running = list(itertools.accumulate(costs, initial=spent))
                return start + bisect.bisect_left(running, stripe_bytes)
            spent += cost
            start += rows
        return start + 1

    for block in blocks:
        texts = isinstance(block, TextBlock)
        columns = block.texts if texts else block
        if not len(columns[0]):
            continue
        if encode is None:
            encode, null = (_encode_texts, "") if texts else (_encode_values, None)
        elif texts != (encode is _encode_texts):
            raise TypeError("a stream's blocks must be all text or all typed")
        for vector, column in zip(pending, columns):
            vector.extend(column)
        if stripe_bytes is not None:
            sums.append([len(columns[0]), _block_cost(schema, columns, null)])
        while True:
            end = stripe_rows
            if stripe_bytes is not None:
                end = min(end, budget_end())
            if end > len(pending[0]):
                break
            yield cut(end)
            for vector in pending:
                del vector[:end]
            while sums and end >= sums[0][0]:
                end -= sums.pop(0)[0]
            if sums and end:  # the cut fell inside this block: re-sum its rest
                rest = sums[0][0] - end
                sums[0] = [rest, _block_cost(schema, [v[:rest] for v in pending], null)]
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
    column not worth one): float64 always, narrow-int and decimal
    offsets as long as their span still needs the width they have (the
    exponent a decimal's gathered values might do with is not sought).
    Otherwise -- a narrower width holds now, or so few rows are left
    that plain int64 / float64 is no larger -- it goes back to a list,
    and with it to :func:`_encode_values` per block.  Other columns pass
    through.
    """
    if not isinstance(column, PackedColumn) or column.view.format == "d" or not len(column):
        return column
    cells = column.view.tolist()
    n = len(cells)
    span = max(cells) - min(cells)
    width = next((w for w in _NARROW_WIDTHS if span < 1 << 8 * w), 8)
    opening = 9 if column.exponent is None else 10  # a decimal's exponent byte
    if opening + n * width >= 8 * n:  # offsets that narrow would not be smaller
        width = 8
    return column if width == column.view.itemsize else column.tolist()


#: The tag of a stream-dictionary segment (its rows hold no NULL) and
#: the segment's opening when it ships no new entry.
_STREAM_DICT_TAG = ENC_STREAM_DICT | WIRE_NO_BITMAP
_NO_FRESH_ENTRIES = bytes((_STREAM_DICT_TAG, 0, 0))


def _code_bits(entries: int) -> int:
    """The bits a stream code takes: the fewest of 1, 2, 4 or 8 that
    address a dictionary of ``entries`` (at most 256) entries."""
    return 1 if entries <= 2 else 2 if entries <= 4 else 4 if entries <= 16 else 8


def _pack_codes(codes: bytes, bits: int) -> bytes:
    """One-byte ``codes``, each below ``1 << bits``, at ``bits`` bits
    each: LSB-first within a byte, the last byte's unused bits zero.
    Each bit field is one ``translate`` of every ``8 // bits``-th code,
    and the fields' disjoint bits are OR-ed as one integer."""
    if bits == 8:
        return codes
    per = 8 // bits
    packed = 0
    for field, (shift, _unshift) in enumerate(_CODE_FIELDS[bits]):
        packed |= int.from_bytes(codes[field::per].translate(shift), "little")
    return packed.to_bytes(-(-len(codes) // per), "little")


def _unpack_codes(packed: bytes, bits: int, rows: int) -> bytes:
    """The ``rows`` one-byte codes :func:`_pack_codes` made ``packed``
    of; ``ValueError`` when the last byte's unused bits are not zero."""
    if bits == 8:
        return packed
    per = 8 // bits
    codes = bytearray(len(packed) * per)
    for field, (_shift, unshift) in enumerate(_CODE_FIELDS[bits]):
        codes[field::per] = packed.translate(unshift)
    if any(codes[rows:]):
        raise ValueError("RCF1 segment: stream-dictionary code padding is not zero")
    del codes[rows:]
    return bytes(codes)


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
      exponent, width and base it has (after :func:`settle_column`, when
      the stripe was ``gathered``): ``tag | [[exponent |] width | base] |
      view[a:b]``;
    * a :class:`~repro.columnar.batch.DictColumn` whose rows hold no
      NULL ships as :data:`ENC_STREAM_DICT`.  The entries the stripe
      uses are looked up in the stream dictionary (floats by their
      8-byte image, as :func:`_dictionary_payload` keys them), the ones
      not shipped yet are appended to it and ride on the stripe's first
      block, and the stripe's codes are mapped to stream codes with one
      ``translate``: a block's codes are a slice of those, packed at the
      fewest of 1, 2, 4 or 8 bits that address the dictionary with the
      stripe's entries in.  When the new entries would take the
      dictionary past the 256 that one-byte codes address, it restarts
      from this stripe's entries (:data:`WIRE_RESET`);
    * anything else -- a plain list, a coded column with NULLs -- gets,
      per block, the encoding :func:`_encode_values` chooses.

    Every NULL-free segment sets :data:`WIRE_NO_BITMAP` and ships no
    bitmap.  ``shipped`` (when given) counts the block columns by which
    of the three happened: ``verbatim`` / ``settled`` for a carrier of
    an untouched / a gathered stripe, ``reencoded``; :attr:`code_bits`
    counts the stream-dictionary segments by the width of their codes.
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
        #: Stream-dictionary segments shipped, by code width in bits.
        self.code_bits: Dict[int, int] = {}

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
        shipped, code_bits = self._shipped, self.code_bits
        for start in range(0, max(rows, 1), block_rows):
            stop = min(start + block_rows, rows)
            segments = []
            for (how, opening, head, body, bits), dtype in zip(settled, self._dtypes):
                if head is not None:  # a slice of the packed cells / mapped codes
                    cut = body[start:stop]
                    if bits:
                        cut = _pack_codes(cut, bits)
                        code_bits[bits] = code_bits.get(bits, 0) + 1
                    segments.append((head if start else opening) + cut)
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
    ) -> Tuple[str, Optional[bytes], Optional[bytes], Sequence[Any], int]:
        """How one column of a stripe ships: what it is counted as, what
        its segment opens with in the stripe's first block and in the
        later ones (``None``: the body is a plain vector to encode per
        block), the body its blocks slice and the bits its stream codes
        are packed in (0: the body holds no stream code)."""
        if isinstance(column, PackedColumn):
            view = column.view
            if view.itemsize == 8:
                tag = ENC_INT64 if view.format == "q" else ENC_FLOAT64
                head = bytes((tag | WIRE_NO_BITMAP,))
            else:
                if column.exponent is None:
                    opening: Tuple[int, ...] = (ENC_NARROW_INT | WIRE_NO_BITMAP,)
                else:
                    opening = (ENC_DECIMAL | WIRE_NO_BITMAP, column.exponent)
                head = bytes(opening + (view.itemsize,)) + struct.pack("<q", column.base)
            return carried, head, head, view, 0
        if isinstance(column, DictColumn):
            coded = self._stream_coded(index, column)
            if coded is not None:
                opening, codes = coded
                bits = _code_bits(len(self._dictionaries[index]))
                return carried, opening, _NO_FRESH_ENTRIES, codes, bits
        return "reencoded", None, None, materialize(column), 0

    def _stream_coded(
        self, index: int, column: DictColumn
    ) -> Optional[Tuple[bytes, bytes]]:
        """A coded column against the stream dictionary: what its first
        segment opens with (tag, the entries new to the stream) and one
        stream code per row, a byte each -- or ``None`` when a row holds
        NULL."""
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
        if len(data) < 3:
            raise _bad_length("stream-dictionary")
        (count,) = struct.unpack_from("<H", data, 1)
        entries = [] if tag & WIRE_RESET else self._entries[index]
        size = len(entries) + count
        if size > _STREAM_DICT_LIMIT:
            raise ValueError("RCF1 segment: stream dictionary entry count out of range")
        bits = _code_bits(size)
        codes_at = len(data) - (rows * bits + 7) // 8
        if codes_at < 3:
            raise _bad_length("stream-dictionary")
        if not count:
            if codes_at != 3:
                raise _bad_length("stream-dictionary")
        elif codes_at < 4:
            raise ValueError("RCF1 segment: stream dictionary entry count out of range")
        elif data[3] in (ENC_INT64, ENC_FLOAT64):
            nested = memoryview(data)[4:codes_at]
            entries = entries + materialize(_decode_fixed(data[3], nested, count))
        else:
            entries = entries + _decode_plain(data[3], data[4:codes_at], dtype, count)
        codes = _unpack_codes(data[codes_at:], bits, rows)
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
