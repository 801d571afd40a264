"""A storlet response is one stateful block stream (docs/columnar.md).

``BlockStreamEncoder`` / ``BlockStreamDecoder`` carry the schema once,
a stream dictionary per coded column (each entry shipped once, the
dictionary restarted past 256, each code in the fewest of 1, 2, 4 or 8
bits that address it) and no bitmap for a NULL-free segment.
These tests hold the pair to ``==`` rows over arbitrary batches and
chunkings, pin what state a decoder may and may not share with the
batches it returned, check that a cut or corrupted stream raises rather
than yields a wrong cell, and run the stream through the whole stack
under every named fault plan and a response cut mid-block.
"""

import struct
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import layout
from repro.columnar.batch import ColumnBatch, DictColumn, PackedColumn
from repro.columnar.layout import (
    ENC_DICT,
    ENC_NARROW_INT,
    ENC_STREAM_DICT,
    ENCODING_NAMES,
    ENC_TEXT,
    WIRE_NO_BITMAP,
    WIRE_RESET,
    BlockStreamDecoder,
    BlockStreamEncoder,
    decode_block_stream,
    decode_column,
    decode_footer,
    encode_segment,
)
from repro.connector.stocator import PushdownError
from repro.core.scoop import ScoopContext
from repro.faults import NAMED_PLANS, named_plan
from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.sql.types import DataType, Schema
from repro.storlets import columnar_storlet
from repro.swift.http import close_body
from repro.swift.retry import RetryPolicy

from tests.storlet_harness import block_stream
from tests.test_columnar_encodings import _bits, _convert, _ledger_queries
from tests.test_sql_kernels import _packed

SCHEMA = Schema.of("s", "i:int", "f:float", "b:bool")

#: A NaN that is not the default one: its payload must survive.
_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<q", 0x7FF8000000000123))[0]
_POOLS = {
    DataType.STRING: ["", "Rotterdam", "Milan", "Lyon", "Zürich"],
    DataType.INT: [0, 1, True, False, -7, 2**40, 2**70],
    DataType.FLOAT: [0.0, -0.0, 1.5, float("nan"), _NAN_PAYLOAD, float("inf")],
    DataType.BOOL: [True, False, 1, 0],
}


def _row_bits(rows):
    return [tuple(_bits(row)) for row in rows]


def _wide_entries(dtype, base, count):
    """``count`` distinct entries that no other ``base`` shares."""
    if dtype is DataType.STRING:
        return [f"e{base + k}" for k in range(count)]
    if dtype is DataType.INT:
        return [(base + k) * 3 for k in range(count)]
    return [(base + k) / 4 for k in range(count)]


@st.composite
def _column(draw, dtype, n):
    """One column of ``n`` rows in a drawn representation."""
    pool = _POOLS[dtype]
    kinds = ["list", "dictionary"]
    if dtype is not DataType.BOOL:
        kinds.append("wide dictionary")
    if dtype in (DataType.INT, DataType.FLOAT):
        kinds.append("packed")
    kind = draw(st.sampled_from(kinds))
    if kind == "list":
        cell = st.sampled_from(pool + [None])
        return draw(st.lists(cell, min_size=n, max_size=n))
    if kind == "packed":
        if dtype is DataType.FLOAT:
            cells = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            return _packed(cells, "d")
        cells = draw(st.lists(st.integers(0, 200), min_size=n, max_size=n))
        return _packed([1000 + cell for cell in cells], "B", 1000)
    if kind == "dictionary":
        # Entries may repeat, and NULL may be one of them -- used or not.
        entries = draw(st.lists(st.sampled_from(pool + [None]), min_size=1, max_size=6))
    else:
        # Enough distinct entries that a few batches cross 256.
        count = draw(st.sampled_from([100, 200, 256]))
        entries = _wide_entries(dtype, draw(st.sampled_from([0, 150, 300, 1000])), count)
    codes = draw(st.lists(st.integers(0, len(entries) - 1), min_size=n, max_size=n))
    if kind == "wide dictionary" and n >= len(entries) and draw(st.booleans()):
        codes[: len(entries)] = range(len(entries))  # every entry used
    return DictColumn(entries, bytes(codes))


@st.composite
def _batches(draw):
    batches = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.sampled_from([0, 1, 5, 40, 300]))
        columns = [draw(_column(fld.dtype, n)) for fld in SCHEMA.fields]
        batches.append(ColumnBatch(SCHEMA, columns, n))
    return batches


def _key(dtype, value):
    floats = dtype is DataType.FLOAT and value is not None
    return struct.pack("<d", value) if floats else value


def _stream_coded(column):
    """Whether the encoder ships ``column`` against the stream
    dictionary: a coded column none of whose rows is NULL."""
    return isinstance(column, DictColumn) and None not in {
        column.entries[code] for code in set(column.codes)
    }


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        batches=_batches(),
        block_rows=st.sampled_from([7, 64, 1024]),
        chunk=st.sampled_from([1, 7, 13, 97, 1009, 1 << 30]),
    )
    def test_any_batches_any_chunking(self, batches, block_rows, chunk):
        encoder = BlockStreamEncoder(SCHEMA)
        stream = block_stream(batches, block_rows, encoder)
        decoder = BlockStreamDecoder()
        decoded = []
        #: Every dictionary handed out, with its entries as they were then.
        handed_out = []
        for start in range(0, len(stream), chunk):
            for batch in decoder.push(stream[start : start + chunk]):
                decoded.append(batch)
                for fld, column in zip(SCHEMA.fields, batch.columns):
                    if isinstance(column, DictColumn):
                        handed_out.append((fld.dtype, column.entries, list(column.entries)))
        decoder.finish()

        want = [row for batch in batches for row in batch.rows]
        got = [row for batch in decoded for row in batch.rows]
        assert _row_bits(got) == _row_bits(want)
        assert all(len(batch) <= block_rows for batch in decoded)
        assert all(batch.schema.to_header() == SCHEMA.to_header() for batch in decoded)
        assert len(decoded) == sum(max(1, -(-len(b) // block_rows)) for b in batches)
        if not batches:
            assert stream == b""  # a response with no block is empty

        # A batch that was returned never sees its dictionary change, and
        # a dictionary never holds an entry twice: nothing is shipped
        # again between two restarts.
        for dtype, entries, snapshot in handed_out:
            assert _bits(entries) == _bits(snapshot)
            assert len({_key(dtype, entry) for entry in entries}) == len(entries) <= 256

        # A coded column without NULLs arrives coded, block after block.
        blocks = iter(decoded)
        used = 0
        distinct = [set() for _ in SCHEMA.fields]
        for batch in batches:
            cuts = [next(blocks) for _ in range(max(1, -(-len(batch) // block_rows)))]
            for index, (fld, column) in enumerate(zip(SCHEMA.fields, batch.columns)):
                if _stream_coded(column):
                    assert all(isinstance(cut.columns[index], DictColumn) for cut in cuts)
                    keys = {_key(fld.dtype, column.entries[c]) for c in set(column.codes)}
                    used += len(keys)
                    distinct[index] |= keys
        assert encoder.entries_shipped <= used
        if not encoder.resets:  # each distinct value crossed exactly once
            assert encoder.entries_shipped == sum(map(len, distinct))

    def test_the_dictionary_restarts_past_256_entries(self):
        schema = Schema.of("s")
        encoder = BlockStreamEncoder(schema)
        stripes = [
            DictColumn(_wide_entries(DataType.STRING, base, 200), bytes(range(200)))
            for base in (0, 100, 1000, 1100)
        ]
        stream = block_stream(
            [ColumnBatch(schema, [column]) for column in stripes], 64, encoder
        )
        decoded = list(decode_block_stream([stream]))
        assert [row for b in decoded for row in b.rows] == [
            (cell,) for column in stripes for cell in column
        ]
        # 200 + 100 new = 300 > 256: the second stripe fits only by
        # restarting, as does the fourth (200 + 100 after 200 + 200).
        assert (encoder.resets, encoder.entries_shipped) == (3, 800)
        sizes = [len(batch.columns[0].entries) for batch in decoded]
        assert sizes == [200] * 16 and len({id(b.columns[0].entries) for b in decoded}) == 4
        # ... while entries that fit are appended: 200, then 56 more.
        encoder = BlockStreamEncoder(schema)
        stripes = [
            DictColumn(_wide_entries(DataType.STRING, base, count), bytes(range(count)))
            for base, count in ((0, 200), (144, 112))
        ]
        stream = block_stream([ColumnBatch(schema, [c]) for c in stripes], 1 << 30, encoder)
        first, second = decode_block_stream([stream])
        assert (encoder.resets, encoder.entries_shipped) == (0, 256)
        assert len(first.columns[0].entries) == 200 and len(second.columns[0].entries) == 256
        assert second.columns[0].entries[:200] == first.columns[0].entries

    def test_floats_are_keyed_on_their_bits(self):
        schema = Schema.of("f:float")
        entries = [0.0, -0.0, float("nan"), _NAN_PAYLOAD, 0.0]
        column = DictColumn(entries, bytes([0, 1, 2, 3, 4, 2]))
        encoder = BlockStreamEncoder(schema)
        (batch,) = decode_block_stream(
            [block_stream([ColumnBatch(schema, [column])], encoder=encoder)]
        )
        (decoded,) = batch.columns
        assert isinstance(decoded, DictColumn)
        assert _bits(decoded) == _bits(column)
        # The repeated 0.0 folds into one entry; -0.0 and each NaN do not.
        assert encoder.entries_shipped == 4 and decoded.codes == bytes([0, 1, 2, 3, 0, 2])

    def test_nulls_appear_and_disappear(self):
        schema = Schema.of("s", "i:int")
        batches = [
            ColumnBatch(schema, [DictColumn(["a", "b"], bytes([0, 1, 1])), [1, 2, 3]]),
            ColumnBatch(schema, [DictColumn(["b", None], bytes([0, 1, 0])), [4, None, 6]]),
            ColumnBatch(schema, [DictColumn(["c", "a", None], bytes([0, 1, 1])), [7, 8, 9]]),
        ]
        encoder = BlockStreamEncoder(schema)
        decoded = list(decode_block_stream([block_stream(batches, encoder=encoder)]))
        assert [b.rows for b in decoded] == [b.rows for b in batches]
        kinds = [[type(column) for column in batch.columns] for batch in decoded]
        # With a NULL a column takes the list path (tag | bitmap |
        # payload, a dictionary of its own where that is smaller); the
        # stream dictionary is untouched by it and picks up after.
        assert kinds == [[DictColumn, PackedColumn], [list, list], [DictColumn, PackedColumn]]
        assert decoded[2].columns[0].entries == ["a", "b", "c"]
        assert encoder.entries_shipped == 3


class TestFraming:
    def _stream(self):
        schema = Schema.of("s", "i:int")
        batches = [
            ColumnBatch(schema, [DictColumn(["aa", "bb"], bytes([0, 1, 0, 1])), _packed([5, 6, 7, 300], "H", 5)]),
            ColumnBatch(schema, [DictColumn(["bb", "cc"], bytes([1, 0, 0])), [None, 2**40, 1]]),
        ]
        return schema, batches, block_stream(batches)

    def test_the_layout_is_the_documented_one(self):
        schema, batches, stream = self._stream()
        header = schema.to_header().encode()
        assert stream[: 4 + len(header)] == struct.pack("<I", len(header)) + header
        at = 4 + len(header)
        rows, first, second = struct.unpack_from("<3I", stream, at)
        assert rows == 4
        coded = stream[at + 12 : at + 12 + first]
        # tag | u16 new entries | their plain segment, no bitmap | codes:
        # two entries take 1-bit codes, LSB first -- 0, 1, 0, 1 in one
        # byte whose four unused bits are zero.
        assert coded == (
            bytes((ENC_STREAM_DICT | WIRE_NO_BITMAP,))
            + struct.pack("<H", 2)
            + bytes((ENC_TEXT,))
            + struct.pack("<2I", 2, 2)
            + b"aabb"
            + bytes([0b00001010])
        )
        packed = stream[at + 12 + first : at + 12 + first + second]
        # tag | width | base | offsets: the stored segment less its bitmap.
        stored = encode_segment([5, 6, 7, 300], DataType.INT)[0]
        assert packed == bytes((ENC_NARROW_INT | WIRE_NO_BITMAP,)) + stored[2:]
        at += 12 + first + second
        rows, first, second = struct.unpack_from("<3I", stream, at)
        assert rows == 3
        coded = stream[at + 12 : at + 12 + first]
        # One new entry makes three: 2-bit codes 2, 1, 1 in one byte.
        assert coded == (
            bytes((ENC_STREAM_DICT | WIRE_NO_BITMAP,))
            + struct.pack("<H", 1)
            + bytes((ENC_TEXT,))
            + struct.pack("<I", 2)
            + b"cc"
            + bytes([0b00010110])
        )
        # A column with a NULL is the stored segment, bitmap and all.
        nulls = stream[at + 12 + first :]
        assert nulls == encode_segment([None, 2**40, 1], DataType.INT)[0]
        assert at + 12 + first + second == len(stream)
        assert b"json" not in stream and b"{" not in stream

    def test_every_strict_prefix_is_a_prefix_of_the_batches_or_truncated(self):
        _schema, batches, stream = self._stream()
        # Where a stream may end: before the preamble (a response with
        # no block) and behind each block -- not behind the preamble,
        # which only ever travels with the first block.
        boundaries = {0: 0}
        decoder = BlockStreamDecoder()
        for end in range(1, len(stream) + 1):
            if decoder.push(stream[end - 1 : end]):
                boundaries[end] = len(boundaries)
        assert len(boundaries) == 3 and len(stream) in boundaries
        want = [batch.rows for batch in batches]
        for cut in range(len(stream)):
            decoder = BlockStreamDecoder()
            got = [batch.rows for batch in decoder.push(stream[:cut])]
            assert got == want[: len(got)]
            if cut in boundaries:  # ends between blocks: a shorter, whole stream
                assert len(got) == boundaries[cut]
                decoder.finish()
            else:
                with pytest.raises(ValueError, match="truncated"):
                    decoder.finish()

    @pytest.mark.parametrize(
        "what",
        [
            "first length +1", "first length -1", "second length +1", "rows +1", "rows -1",
            "unknown tag", "stream tag with a bitmap", "reset on a packed segment",
            "reset without entries", "count +1", "count 0", "count 300", "nested tag",
            "stray code", "code past the dictionary", "later reset", "bad dtype",
            "torn preamble", "empty segment",
        ],
    )
    def test_a_corrupted_stream_raises(self, what):
        schema, _batches, stream = self._stream()
        corrupt = bytearray(stream)
        at = 4 + len(schema.to_header())  # the first block's header
        _rows, first, second = struct.unpack_from("<3I", stream, at)
        coded, packed = at + 12, at + 12 + first
        later = packed + second + 12  # the second block's coded segment
        (later_first,) = struct.unpack_from("<I", stream, later - 8)

        def add(offset, delta):
            (value,) = struct.unpack_from("<I", corrupt, offset)
            struct.pack_into("<I", corrupt, offset, value + delta)

        if what == "first length +1":
            add(at + 4, 1)
        elif what == "first length -1":
            add(at + 4, -1)
        elif what == "second length +1":
            add(at + 8, 1)
        elif what == "rows +1":
            add(at, 1)
        elif what == "rows -1":
            add(at, -1)
        elif what == "unknown tag":
            corrupt[coded] = 7 | WIRE_NO_BITMAP
        elif what == "stream tag with a bitmap":
            corrupt[coded] = ENC_STREAM_DICT
        elif what == "reset on a packed segment":
            corrupt[packed] |= WIRE_RESET
        elif what == "reset without entries":
            corrupt[coded + 1 : coded + 3] = struct.pack("<H", 0)
            corrupt[coded] |= WIRE_RESET
        elif what == "count +1":
            corrupt[coded + 1] += 1
        elif what == "count 0":
            corrupt[coded + 1] = 0
        elif what == "count 300":
            corrupt[coded + 1 : coded + 3] = struct.pack("<H", 300)
        elif what == "nested tag":
            corrupt[coded + 3] = ENC_DICT
        elif what == "stray code":
            corrupt[packed - 1] = 0xFF  # 1-bit codes: the padding bits set
        elif what == "code past the dictionary":
            # Three entries so far, 2-bit codes 2, 1, 1: the first becomes 3.
            corrupt[later + later_first - 1] = 0b00010111
        elif what == "later reset":
            # The dictionary restarts from the one new entry: the codes
            # for the two earlier ones now point past it.
            corrupt[later] |= WIRE_RESET
        elif what == "bad dtype":
            corrupt[4 : 4 + len(b"s:string")] = b"s:strinx"
        elif what == "torn preamble":
            add(0, 3)
        elif what == "empty segment":
            corrupt = corrupt[:coded] + corrupt[packed:]
            struct.pack_into("<I", corrupt, at + 4, 0)
        assert bytes(corrupt) != stream
        with pytest.raises(ValueError):
            list(decode_block_stream([bytes(corrupt)]))
        assert len(list(decode_block_stream([stream]))) == 2  # the fixture itself is sound

    def test_a_decoder_serves_one_response(self):
        _schema, batches, stream = self._stream()
        decoder = BlockStreamDecoder()
        assert len(decoder.push(stream)) == 2
        # A second response starts with a preamble: fed to a decoder
        # that has seen one, it cannot pass for more blocks.
        with pytest.raises(ValueError):
            decoder.push(stream)
            decoder.finish()
        assert [b.rows for b in decode_block_stream([stream])] == [b.rows for b in batches]


def _width(entries):
    """The bits a stream code takes in a dictionary of ``entries``."""
    return next(bits for bits in (1, 2, 4, 8) if entries <= 1 << bits)


#: The schema of :func:`_coded_stripes`: two coded columns.
CODED = Schema.of("s", "t")


@st.composite
def _coded_stripes(draw):
    """Stripes of two coded string columns, each stripe a window of one
    of two 300-entry pools: the stream dictionaries grow across the 2 /
    4 / 16-entry widths as windows move and, with a stripe that uses a
    full 256 entries somewhere, restart."""
    stripes = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from([0, 1, 3, 8, 9, 17, 100, 300]))
        columns = []
        for _column in CODED.fields:
            count = draw(st.sampled_from([1, 2, 3, 4, 5, 16, 17, 100, 200, 256]))
            base = draw(st.sampled_from([0, 1000])) + draw(st.integers(0, 300 - count))
            entries = _wide_entries(DataType.STRING, base, count)
            if draw(st.booleans()):  # as many entries used as rows allow
                codes = [k % count for k in range(n)]
            else:
                codes = draw(st.lists(st.integers(0, count - 1), min_size=n, max_size=n))
            columns.append(DictColumn(entries, bytes(codes)))
        stripes.append(ColumnBatch(CODED, columns, n))
    if draw(st.booleans()):
        full = DictColumn(_wide_entries(DataType.STRING, 1000, 256), bytes(range(256)))
        at = draw(st.integers(0, len(stripes)))
        stripes.insert(at, ColumnBatch(CODED, [full, full], 256))
    return stripes


class TestPackedCodes:
    """Stream codes ship at the fewest of 1, 2, 4 or 8 bits that address
    their dictionary, LSB first, the last byte zero-padded."""

    @settings(max_examples=100, deadline=None)
    @given(
        stripes=_coded_stripes(),
        block_rows=st.sampled_from([1, 3, 7, 8, 64, 1024]),
        chunk=st.sampled_from([1, 2, 5, 13, 4096, 1 << 30]),
    )
    def test_the_decoded_codes_are_the_encoders(self, stripes, block_rows, chunk):
        encoder = BlockStreamEncoder(CODED)
        packed = []
        real = layout._pack_codes
        with mock.patch.object(
            layout, "_pack_codes", lambda codes, bits: packed.append(codes) or real(codes, bits)
        ):
            stream = block_stream(stripes, block_rows, encoder)
        decoder = BlockStreamDecoder()
        decoded = [
            batch
            for start in range(0, len(stream), chunk)
            for batch in decoder.push(stream[start : start + chunk])
        ]
        decoder.finish()
        # Blocks come column by column: the codes each column was packed
        # from are the codes its segments decode into.
        assert [bytes(column.codes) for b in decoded for column in b.columns] == packed
        assert [row for b in decoded for row in b.rows] == [
            row for stripe in stripes for row in stripe.rows
        ]
        widths = Counter(
            _width(len(column.entries)) for b in decoded for column in b.columns
        )
        assert encoder.code_bits == dict(widths)

    def test_the_width_follows_the_dictionary_as_it_grows(self):
        schema = Schema.of("s")
        windows = [(0, n) for n in (1, 2, 3, 4, 5, 16, 17, 256)] + [(1000, 10), (1000, 3)]
        stripes = [
            ColumnBatch(
                schema, [DictColumn(_wide_entries(DataType.STRING, base, n), bytes(range(n)))]
            )
            for base, n in windows
        ]
        encoder = BlockStreamEncoder(schema)
        stream = block_stream(stripes, 1 << 30, encoder)
        decoded = list(decode_block_stream([stream]))
        # Ten new entries would take 256 past the limit: the dictionary
        # restarts from them, and its codes narrow again.
        sizes = [len(batch.columns[0].entries) for batch in decoded]
        assert sizes == [1, 2, 3, 4, 5, 16, 17, 256, 10, 10] and encoder.resets == 1
        assert encoder.code_bits == {1: 2, 2: 2, 4: 4, 8: 2}
        # The last stripe brings no entry: its segment is the opening and
        # three 4-bit codes 0, 1, 2 in two bytes, the last nibble zero.
        tail = bytes((ENC_STREAM_DICT | WIRE_NO_BITMAP, 0, 0, 0x10, 0x02))
        assert stream.endswith(struct.pack("<2I", 3, len(tail)) + tail)

    def _stream(self, size, rows=5):
        """The stream of one stripe, ``rows`` codes into ``size`` entries."""
        codes = bytes(k % size for k in range(rows))
        column = DictColumn(_wide_entries(DataType.STRING, 0, size), codes)
        return bytearray(block_stream([ColumnBatch(Schema.of("s"), [column])]))

    @pytest.mark.parametrize("size, bits", [(2, 1), (3, 2), (5, 4)])
    def test_nonzero_padding_bits_are_rejected(self, size, bits):
        corrupt = self._stream(size)
        assert 5 * bits % 8  # the last byte has unused bits
        corrupt[-1] |= 0x80
        with pytest.raises(ValueError, match="padding"):
            list(decode_block_stream([bytes(corrupt)]))

    @pytest.mark.parametrize("size, code", [(3, 3), (5, 5), (5, 15), (17, 17), (17, 255)])
    def test_a_packed_code_past_the_dictionary_is_rejected(self, size, code):
        rows = max(size, 5)  # every entry used, so every one shipped
        corrupt = self._stream(size, rows)
        bits = _width(size)
        first = len(corrupt) - (rows * bits + 7) // 8  # the codes end the stream
        corrupt[first] = corrupt[first] & ~((1 << bits) - 1) & 0xFF | code
        with pytest.raises(ValueError, match="beyond the dictionary"):
            list(decode_block_stream([bytes(corrupt)]))

    @pytest.mark.parametrize("size", [2, 3, 5, 17])
    def test_truncated_packed_codes_are_rejected(self, size):
        corrupt = self._stream(size, rows=max(size, 9))
        header = 4 + len(Schema.of("s").to_header())
        (_rows, length) = struct.unpack_from("<2I", corrupt, header)
        del corrupt[-1]
        struct.pack_into("<I", corrupt, header + 4, length - 1)
        with pytest.raises(ValueError):
            list(decode_block_stream([bytes(corrupt)]))


class TestStoredObjectsAreUntouched:
    def test_wire_only_tags_never_appear_in_and_are_rejected_from_storage(self):
        (_name, csv_bytes), _other = MeterDataGenerator(SPEC).csv_objects()
        body = _convert(csv_bytes)
        footer = decode_footer(body)
        for stripe in footer.stripes:
            for fld, segment in zip(footer.schema.fields, stripe.columns):
                data = body[segment.offset : segment.offset + segment.length]
                assert data[0] in ENCODING_NAMES  # stored tags, no wire bit
                decode_column(data, fld.dtype, stripe.rows)
                bare = data[:1] + data[1 + (stripe.rows + 7) // 8 :]
                for tag in (data[0] | WIRE_NO_BITMAP, data[0] | WIRE_RESET):
                    with pytest.raises(ValueError):
                        decode_column(bytes((tag,)) + data[1:], fld.dtype, stripe.rows)
                    with pytest.raises(ValueError):
                        decode_column(bytes((tag,)) + bare[1:], fld.dtype, stripe.rows)
        wire = bytes((ENC_STREAM_DICT | WIRE_NO_BITMAP,)) + struct.pack("<H", 0) + bytes(4)
        for data in (wire, bytes((ENC_STREAM_DICT,)) + bytes(1) + wire[1:]):
            with pytest.raises(ValueError):
                decode_column(data, DataType.STRING, 4)


# -- through the stack ------------------------------------------------------------

SPEC = DatasetSpec(meters=40, intervals=60, objects=2, seed=5)
BLOCK_ROWS = 64


def _context(plan=None, parallelism=1):
    ctx = ScoopContext(
        chunk_size=16 * 1024,
        parallelism=parallelism,
        retry_policy=RetryPolicy(seed=7),
        fault_plan=named_plan(plan, seed=7) if plan else None,
    )
    for name, data in MeterDataGenerator(SPEC).csv_objects():
        ctx.upload_csv("meters", name, data)
    ctx.register_csv_table("t", "meters", schema=METER_SCHEMA, format="columnar")
    return ctx


def _queries():
    queries = dict(_ledger_queries("t"))
    queries["q_limit"] = "SELECT vid, city, date FROM t WHERE code < 9000 LIMIT 500"
    return queries


@pytest.fixture(scope="module")
def small_blocks():
    """Responses of many blocks, so a stream dictionary has work to do."""
    with mock.patch.object(columnar_storlet, "BLOCK_ROWS", BLOCK_ROWS):
        yield


@pytest.fixture(scope="module")
def baseline(small_blocks):
    ctx = _context()
    rows = {name: ctx.sql(sql).collect() for name, sql in _queries().items()}
    assert all(rows.values())
    return rows


class _CutResponse:
    """``open_split_stream`` with the first pushdown response cut after
    ``keep`` of its bytes; every response that is opened is recorded."""

    def __init__(self, connector, keep=None, error=None):
        self.real = connector.open_split_stream
        self.keep = keep
        self.error = error
        self.bodies = []

    def __call__(self, split, task=None):
        headers, chunks = self.real(split, task)
        if task is None:
            return headers, chunks
        body = bytearray()
        self.bodies.append(body)
        cut = self.keep if len(self.bodies) == 1 else None
        return headers, self._chunks(chunks, body, cut)

    def _chunks(self, chunks, body, cut):
        try:
            for chunk in chunks:
                if cut is not None and len(body) + len(chunk) >= cut:
                    chunk = chunk[: cut - len(body)]
                    body.extend(chunk)
                    yield chunk
                    if self.error is not None:
                        raise self.error
                    return
                body.extend(chunk)
                yield chunk
        finally:
            close_body(chunks)


class TestThroughTheStack:
    @pytest.mark.parametrize("plan", [plan for plan in NAMED_PLANS if plan != "none"])
    @pytest.mark.parametrize("parallelism", [1, 4], ids=["serial", "threads-4"])
    def test_identity_under_every_named_fault_plan(self, baseline, plan, parallelism):
        ctx = _context(plan, parallelism)
        for name, sql in _queries().items():
            assert ctx.sql(sql).collect() == baseline[name], (name, plan)

    @pytest.mark.parametrize("how", ["degrade", "retry", "ends short"])
    def test_a_response_cut_mid_block_resumes_with_a_fresh_decoder(self, baseline, how):
        sql = _queries()["q_half"]
        ctx = _context()
        recorder = _CutResponse(ctx.connector)
        with mock.patch.object(ctx.connector, "open_split_stream", recorder):
            assert ctx.sql(sql).collect() == baseline["q_half"]
        whole = bytes(recorder.bodies[0])
        assert len(list(decode_block_stream([whole]))) > 4
        # Cut inside a block, behind rows that were already handed on and
        # dictionary entries that were already learnt.
        keep = len(whole) * 3 // 5
        decoder = BlockStreamDecoder()
        before = decoder.push(whole[:keep])
        assert before and any(
            isinstance(c, DictColumn) and c.entries for c in before[-1].columns
        )
        with pytest.raises(ValueError, match="truncated"):
            decoder.finish()

        error = {
            "degrade": PushdownError("cut", reason="crash", degradable=True),
            "retry": ConnectionError("cut"),
            "ends short": None,
        }[how]
        ctx = _context()
        cutter = _CutResponse(ctx.connector, keep, error)
        with mock.patch.object(ctx.connector, "open_split_stream", cutter):
            assert ctx.sql(sql).collect() == baseline["q_half"]
        assert bytes(cutter.bodies[0]) == whole[:keep]
        fallbacks = ctx.connector.metrics.pushdown_fallbacks
        failed = [task for task in ctx.spark_context.task_log if task.status == "failed"]
        if how == "degrade":
            # The plain path took over behind the rows already emitted.
            assert fallbacks == 1 and not failed
        else:
            # The task failed (a truncated stream is an error, never a
            # short result) and its retry opened the response again,
            # whole, decoding it from the preamble with a new decoder.
            assert fallbacks == 0 and len(failed) == 1
            assert bytes(cutter.bodies[1]) == whole


class TestTheStorletSaysWhatItsDictionariesCost:
    def test_the_registry_sees_the_entries_and_the_restarts(self, small_blocks):
        ctx = _context()
        rows = ctx.sql("SELECT city, code FROM t").collect()
        cities = len({city for city, _code in rows})
        responses = ctx.connector.metrics.pushdown_requests
        blocks = ctx.registry.counter_value("storlets.columns_shipped", how="verbatim") / 2
        assert responses > 1 and blocks > 4 * responses
        # A response ships each city it holds once, however many blocks
        # it has; ``code`` is packed and has no dictionary to ship.
        shipped = ctx.registry.counter_value("storlets.dictionary_entries_shipped")
        assert cities <= shipped <= cities * responses
        assert ctx.registry.counter_value("storlets.dictionary_resets") == 0

    def test_every_city_segment_ships_at_the_width_its_dictionary_needs(self, small_blocks):
        # 200 meters, as in the ledger corpus, live in all 13 cities, and
        # every response's dictionary holds 5 to 16 of them: 4-bit codes
        # throughout.
        ctx = ScoopContext(chunk_size=16 * 1024)
        spec = DatasetSpec(meters=200, intervals=10, objects=2, seed=5)
        for name, data in MeterDataGenerator(spec).csv_objects():
            ctx.upload_csv("meters", name, data)
        ctx.register_csv_table("t", "meters", schema=METER_SCHEMA, format="columnar")
        rows = ctx.sql("SELECT city, code FROM t").collect()
        assert len({city for city, _code in rows}) == 13
        blocks = ctx.registry.counter_value("storlets.columns_shipped", how="verbatim") / 2
        widths = {
            bits: ctx.registry.counter_value("storlets.stream_code_bits", bits=str(bits))
            for bits in (1, 2, 4, 8)
        }
        assert blocks > 2 and widths == {1: 0, 2: 0, 4: blocks, 8: 0}
