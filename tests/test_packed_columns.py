"""Fixed-width segments stay packed (docs/columnar.md).

A NULL-free int64, float64 or narrow-int segment decodes into a
:class:`~repro.columnar.batch.PackedColumn` over its own payload bytes;
the columnar storlet compares on the byte planes, gathers by
mark-and-delete / one boxed pass, settles the response encoding once per
stripe and ships slices.  These tests hold that whole path equal, cell
for cell, to the row-at-a-time reference (``tests/rowwise_reference.py``
writes the object, ``Filter.to_predicate`` selects the rows), pin which
path each of the ledger's queries takes, and keep the carrier from
aliasing a buffer that moves or a host whose byte order is not RCF1's.
"""

import json
import struct
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import layout
from repro.columnar.batch import (
    ColumnBatch,
    DictColumn,
    PackedColumn,
    compress_columns,
    materialize,
    skip_rows,
    take_column,
)
from repro.columnar.layout import (
    ENC_FLOAT64,
    ENC_INT64,
    ENC_NARROW_INT,
    BlockStreamDecoder,
    decode_block_stream,
    decode_column,
    decode_footer,
    decode_segment,
    encode_segment,
    settle_column,
)
from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.gridpocket.queries import query_by_name
from repro.spark.columnar_source import ColumnarScanRDD
from repro.sql import filters as F
from repro.sql.catalyst import extract_pushdown
from repro.sql.parser import parse_query
from repro.sql.types import DataType, Schema
from repro.storlets import columnar_storlet
from repro.storlets.columnar_storlet import ColumnarStorlet

from tests import rowwise_reference as reference
from tests.storlet_harness import block_stream, run_storlet
from tests.test_columnar_encodings import _SEGMENTS, _bits, _convert
from tests.test_sql_kernels import _packed

INT, FLOAT = DataType.INT, DataType.FLOAT


# -- the carrier ------------------------------------------------------------------


class TestPackedColumn:
    @pytest.mark.parametrize(
        "values, dtype, tag, code, base",
        [
            ([5, 7, 261, 6, 8], INT, ENC_NARROW_INT, "H", 5),
            (list(range(-9, 200)), INT, ENC_NARROW_INT, "B", -9),
            ([2**62 + i * 70000 for i in range(40)], INT, ENC_NARROW_INT, "I", 2**62),
            ([-(2**63), 2**63 - 1, 0, 1], INT, ENC_INT64, "q", 0),
            ([i / 7 for i in range(50)], FLOAT, ENC_FLOAT64, "d", 0),
        ],
    )
    def test_decode_is_a_view_of_the_segment(self, values, dtype, tag, code, base):
        data = encode_segment(values, dtype)[0]
        assert data[0] == tag
        column = decode_column(data, dtype, len(values))
        assert isinstance(column, PackedColumn)
        assert (column.view.format, column.base) == (code, base)
        assert column.view.obj is data  # nothing copied, nothing unpacked
        # ... and it reads like the list it stands for.
        assert len(column) == len(values)
        assert list(column) == materialize(column) == column.tolist() == values
        assert [column[i] for i in range(len(values))] == values
        assert column[-1] == values[-1] and column[-len(values)] == values[0]
        with pytest.raises(IndexError):
            column[len(values)]
        assert values[1] in column and None not in column
        assert column.count(values[0]) == values.count(values[0])
        assert column.count(None) == 0
        assert column.index(values[2]) == values.index(values[2])
        assert list(reversed(column)) == values[::-1]
        assert decode_segment(data, dtype, len(values)) == values

    def test_a_slice_shares_the_bytes_and_a_stepped_one_is_repacked(self):
        values = list(range(1000, 1300))
        data = encode_segment(values, INT)[0]
        column = decode_column(data, INT, 300)
        part = column[10:20]
        assert isinstance(part, PackedColumn) and part.view.obj is data
        assert list(part) == values[10:20] and list(column[:0]) == []
        assert list(column[-5:]) == values[-5:]
        stepped = column[3:200:7]
        assert isinstance(stepped, PackedColumn) and stepped.view.contiguous
        assert list(stepped) == values[3:200:7]
        assert list(column[::-1]) == values[::-1]
        # What a stepped slice feeds must still frame as a segment.
        schema = Schema.of("code:int")
        (shipped,) = decode_block_stream([block_stream([ColumnBatch(schema, [stepped])])])
        assert list(shipped.columns[0]) == values[3:200:7]

    def test_a_null_bearing_segment_is_a_list(self):
        for values, dtype in (
            ([5, None, 260, 6], INT),
            ([None, 2**62, -(2**62)], INT),
            ([1.5, None], FLOAT),
            ([None] * 4, INT),
            ([None] * 4, FLOAT),
        ):
            column = decode_column(encode_segment(values, dtype)[0], dtype, len(values))
            assert type(column) is list and column == values

    def test_empty_segments(self):
        for dtype, code in ((INT, "q"), (FLOAT, "d")):
            column = decode_column(encode_segment([], dtype)[0], dtype, 0)
            assert isinstance(column, PackedColumn) and column.view.format == code
            assert len(column) == 0 and list(column) == []
            assert settle_column(column) is column

    def test_take_boxes_only_the_picked_cells(self):
        column = _packed([7, 9, 300, 8, 7], "H", 7)
        assert take_column(column, [4, 2, 2, 0]) == [7, 300, 300, 7]
        assert list(take_column(column, [3])) == [8] and list(take_column(column, [])) == []
        floats = _packed([0.5, -0.0, 2.5], "d")
        assert _bits(take_column(floats, [1, 1, 2])) == _bits([-0.0, -0.0, 2.5])

    def test_a_retry_that_resumes_inside_a_block_slices_the_carriers(self):
        schema = Schema.of("city", "code:int", "index:float")
        city = DictColumn(["a", "b"], bytes([0, 1] * 10))
        code = _packed(list(range(500, 520)), "B", 500)
        index = _packed([i / 4 for i in range(20)], "d")
        batch = ColumnBatch(schema, [city, code, index], 20)
        rows = tuple(zip("ab" * 10, range(500, 520), [i / 4 for i in range(20)]))
        assert batch.rows == rows
        for start in range(21):
            resumed = batch.slice(start)
            assert resumed.rows == rows[start:]
            assert all(
                isinstance(column, (DictColumn, PackedColumn))
                for column in resumed.columns
            )
            assert [b.rows for b in skip_rows([batch], start)] == (
                [rows[start:]] if start < 20 else []
            )
            assert batch.slice(start, start + 3).rows == rows[start : start + 3]
        assert batch.take([19, 0, 7]).rows == (rows[19], rows[0], rows[7])


# -- the two gathers ----------------------------------------------------------------


def _columns(n):
    """One column of every kind ``compress_columns`` tells apart."""
    return {
        "list": [None if i % 11 == 0 else f"v{i}" for i in range(n)],
        "dictionary": DictColumn(["a", "b", None], bytes(i % 3 for i in range(n))),
        "full dictionary": DictColumn(list(range(256)), bytes(i % 256 for i in range(n))),
        "bytes": _packed([i % 251 for i in range(n)], "B", -4),
        "narrow": _packed([70000 + i * 3 for i in range(n)], "H", 70000),
        "int64": _packed([(-1) ** i * (2**62 - i) for i in range(n)], "q"),
        "float64": _packed([i / 3 for i in range(n)], "d"),
    }


class TestGathers:
    @pytest.mark.parametrize(
        "mask",
        [
            bytes([1, 0]) * 150,
            bytes([0, 0, 1]) * 100,
            bytes(100) + b"\x01" * 150 + bytes(50),
            b"\x01" * 99 + bytes(100) + b"\x01" * 101,
        ],
    )
    def test_each_column_takes_its_gather(self, mask):
        columns = _columns(len(mask))
        tally: dict = {}
        gathered = compress_columns(list(columns.values()), mask, tally)
        # A dictionary under 256 entries is marked and deleted, the
        # rest compressed -- whatever the shape of the mask.
        assert tally == {"mark_delete": 1, "compress": 6}
        for (name, column), kept in zip(columns.items(), gathered):
            assert type(kept) is type(column), name
            want = [cell for cell, flag in zip(column, mask) if flag]
            assert list(kept) == want, name
            if isinstance(column, PackedColumn):
                assert (kept.view.format, kept.base) == (column.view.format, column.base)
            if isinstance(column, DictColumn):
                assert kept.entries is column.entries

    @settings(max_examples=200, deadline=None)
    @given(
        mask=st.one_of(
            st.binary(max_size=300).map(lambda raw: bytes(b & 1 for b in raw)),
            st.lists(
                st.tuples(st.booleans(), st.integers(1, 90)), max_size=8
            ).map(lambda runs: b"".join(bytes([flag]) * size for flag, size in runs)),
        ),
    )
    def test_every_gather_is_the_rowwise_compress(self, mask):
        columns = _columns(len(mask))
        tally: Counter = Counter()
        gathered = compress_columns(list(columns.values()), mask, tally)
        assert sum(tally.values()) == len(columns)
        for (name, column), kept in zip(columns.items(), gathered):
            assert type(kept) is type(column), name
            assert list(kept) == [c for c, flag in zip(column, mask) if flag], name
            assert len(kept) == mask.count(1)


# -- portability --------------------------------------------------------------------


class TestPortability:
    @settings(max_examples=100, deadline=None)
    @given(segment=_SEGMENTS)
    def test_a_big_endian_host_decodes_the_same_cells_into_lists(self, segment):
        dtype, values = segment
        data = encode_segment(values, dtype)[0]
        here = decode_column(data, dtype, len(values))
        with mock.patch.object(layout, "_LITTLE_ENDIAN_HOST", False):
            there = decode_column(data, dtype, len(values))
            assert not isinstance(there, PackedColumn)
            if isinstance(there, DictColumn):
                assert type(there.entries) is list
            assert _bits(there) == _bits(here) == _bits(values)
            for cut in range(len(data)):
                with pytest.raises(ValueError):
                    decode_column(data[:cut], dtype, len(values))

    def test_every_fixed_width_encoding_round_trips_without_the_cast(self):
        cases = [
            ([5, 7, 260, 6], INT),
            (list(range(-9, 200)), INT),
            ([2**62 + i * 70000 for i in range(40)], INT),
            ([-(2**63), 2**63 - 1, 0, 1], INT),
            ([0.0, -0.0, float("nan"), float("inf"), 1.5, 2.5], FLOAT),
            ([0, 2**40] * 200, INT),  # a dictionary of int64 entries
            ([0.5, 0.25] * 100, FLOAT),  # ... of float64 entries
        ]
        schema = Schema.of("i:int", "f:float")
        for values, dtype in cases:
            data = encode_segment(values, dtype)[0]
            with mock.patch.object(layout, "_LITTLE_ENDIAN_HOST", False):
                column = decode_column(data, dtype, len(values))
                assert not isinstance(column, PackedColumn)
                assert _bits(column) == _bits(values)
                # ... and what it re-frames as reads back the same here.
                name = "i" if dtype is INT else "f"
                block = block_stream([ColumnBatch(schema.select([name]), [column])])
            (batch,) = decode_block_stream([block])
            assert _bits(batch.columns[0]) == _bits(values)

    def test_a_carrier_never_aliases_a_buffer_that_can_be_resized(self):
        values = list(range(1000, 1300))
        data = encode_segment(values, INT)[0]
        buffer = bytearray(data)
        column = decode_column(buffer, INT, 300)
        assert isinstance(column, PackedColumn)
        assert type(column.view.obj) is bytes and column.view.readonly
        buffer += b"more"  # an exported view would make this BufferError
        del buffer[:10]
        assert list(column) == values
        column = decode_column(memoryview(data), INT, 300)
        assert type(column.view.obj) is bytes

    def test_the_block_decoder_copies_each_segment_out_of_its_buffer(self):
        schema = Schema.of("code:int", "index:float")
        stream = block_stream(
            [
                ColumnBatch(
                    schema,
                    [_packed(list(range(k, k + 300)), "H", k), _packed([k / 3] * 300, "d")],
                )
                for k in (1000, 5000, 9000)
            ]
        )
        decoder = BlockStreamDecoder()
        batches = []
        # Chunks that straddle blocks: the buffer is cut under live views.
        for start in range(0, len(stream), 1000):
            batches.extend(decoder.push(stream[start : start + 1000]))
        decoder.finish()
        assert len(batches) == 3
        for k, batch in zip((1000, 5000, 9000), batches):
            code, index = batch.columns
            assert isinstance(code, PackedColumn) and isinstance(index, PackedColumn)
            assert type(code.view.obj) is bytes
            assert list(code) == list(range(k, k + 300)) and list(index) == [k / 3] * 300


class TestPendingHeader:
    def test_a_pending_header_is_parsed_once(self, monkeypatch):
        schema = Schema.of("code:int")
        stream = block_stream(
            [ColumnBatch(schema, [list(range(k, k + 50))]) for k in (0, 300)]
        )
        unpacked = []
        unpack_from = struct.unpack_from

        def spy(fmt, *args):
            unpacked.append(fmt)
            return unpack_from(fmt, *args)

        monkeypatch.setattr(layout.struct, "unpack_from", spy)
        decoder = BlockStreamDecoder()
        batches = [b for i in range(len(stream)) for b in decoder.push(stream[i : i + 1])]
        decoder.finish()
        # One column: a block header is rows + one segment length.  It is
        # unpacked once per block, not once per chunk.
        assert unpacked.count("<2I") == 2
        assert [list(b.columns[0]) for b in batches] == [
            list(range(50)), list(range(300, 350))
        ]

    def test_a_stream_cut_after_the_header_is_still_truncated(self):
        schema = Schema.of("code:int")
        block = block_stream([ColumnBatch(schema, [list(range(50))])])
        decoder = BlockStreamDecoder()
        assert decoder.push(block[:-1]) == []
        with pytest.raises(ValueError, match="truncated"):
            decoder.finish()


# -- which path each column took ------------------------------------------------------

SPEC = DatasetSpec(meters=40, intervals=60, objects=2, seed=5)


def _stripes(footer):
    return json.dumps(
        [
            {"rows": s.rows, "cols": [[c.offset, c.length] for c in s.columns]}
            for s in footer.stripes
        ]
    )


def _pushdown_parameters(sql):
    pushdown = extract_pushdown(parse_query(sql), METER_SCHEMA)
    return {
        "schema": METER_SCHEMA.to_header(),
        "columns": json.dumps(pushdown.required_columns),
        "filters": F.filters_to_json(pushdown.filters),
    }


def _counters(metadata, family):
    prefix = f"x-object-meta-storlet-{family}-"
    return {
        key[len(prefix) :]: int(value)
        for key, value in metadata.items()
        if key.startswith(prefix)
    }


class TestLedgerQueriesTakeTheIntendedPaths:
    """A silent fall back to lists is a failing test here, not a slower
    benchmark: the three queries of ``benchmarks/hotpath`` over a
    GridPocket object, by the storlet's own account."""

    @pytest.fixture(scope="class")
    def scan(self):
        (_name, csv_bytes), _other = MeterDataGenerator(SPEC).csv_objects()
        body = _convert(csv_bytes)
        footer = decode_footer(body)
        assert len(footer.stripes) > 1

        def run(sql):
            parameters = _pushdown_parameters(sql)
            parameters.update(stripes=_stripes(footer), range_start="0")
            result = run_storlet(ColumnarStorlet(), body, parameters, chunk_size=4096)
            blocks = list(decode_block_stream([result.body]))
            run.response = result.body  # of the last scan
            return result.metadata, blocks, footer

        run.stored = body
        return run

    def test_unfiltered_city_and_code_ship_verbatim(self, scan):
        metadata, blocks, footer = scan(
            "SELECT city, count(*) AS n, max(code) AS m FROM t GROUP BY city"
        )
        assert _counters(metadata, "segments") == {
            "dictionary": len(footer.stripes), "narrow_int": len(footer.stripes)
        }
        assert _counters(metadata, "columns") == {"verbatim": 2 * len(blocks)}
        assert _counters(metadata, "filter-evals") == {}
        assert _counters(metadata, "gathers") == {}
        for batch in blocks:
            code, city = batch.columns  # base-schema order
            assert isinstance(city, DictColumn) and isinstance(code, PackedColumn)

    def test_unfiltered_city_and_code_cost_what_the_framing_says(self, scan):
        with mock.patch.object(columnar_storlet, "BLOCK_ROWS", 128):
            metadata, blocks, footer = scan("SELECT city, code FROM t")
        stored, response = scan.stored, scan.response
        # Each distinct city crosses once in the response -- with the
        # first stripe that uses it -- and the dictionary never restarts.
        seen, fresh = set(), []
        for stripe in layout.iter_stripe_batches(stored, ["city"]):
            new = set(stripe.columns[0]) - seen
            fresh.append(new)
            seen |= new
        assert len(seen) > 5 and len(fresh) > 1
        assert metadata["x-object-meta-storlet-dict-entries"] == str(len(seen))
        assert metadata["x-object-meta-storlet-dict-resets"] == "0"
        assert sorted(blocks[-1].columns[1].entries) == sorted(seen)
        # To the byte: a preamble, and per block a header, ``code`` as
        # tag | width | base | two-byte offsets and ``city`` as tag |
        # entry count | one-byte codes; the entries (tag once a stripe
        # that brings any, u32 length + text each) -- and no bitmap.
        rows = [len(batch) for batch in blocks]
        assert sum(rows) == footer.rows and len(rows) > len(footer.stripes)
        assert all(batch.columns[0].view.format == "H" for batch in blocks)
        preamble = 4 + len("code:int,city:string")
        framing = sum(12 + (1 + 1 + 8 + 2 * n) + (1 + 2 + n) for n in rows)
        entries = sum(map(bool, fresh)) + sum(4 + len(city.encode()) for city in seen)
        assert len(response) == preamble + framing + entries

    def test_a_filtered_scan_ships_each_used_entry_once(self, scan):
        metadata, blocks, _footer = scan("SELECT vid, date, index FROM t WHERE code < 5000")
        shipped = 0
        for index, name in enumerate(("vid", "date")):
            used = {cell for batch in blocks for cell in batch.columns[index]}
            # Entries only rows that were dropped use are never sent.
            assert sorted(blocks[-1].columns[index].entries) == sorted(used), name
            shipped += len(used)
        assert not any(isinstance(batch.columns[2], DictColumn) for batch in blocks)
        assert metadata["x-object-meta-storlet-dict-entries"] == str(shipped)
        assert metadata["x-object-meta-storlet-dict-resets"] == "0"

    def test_the_selectivity_filter_runs_on_byte_planes(self, scan):
        metadata, blocks, footer = scan(
            "SELECT vid, date, index FROM t WHERE code < 5000"
        )
        kept = sum(len(batch) for batch in blocks)
        assert 0 < kept < footer.rows
        assert _counters(metadata, "filter-evals") == {"planes": footer.rows}
        # Three columns a stripe (code is filtered on and stays at the
        # store): vid and date by mark-and-delete (under 256 entries),
        # a float64 index in the one boxed pass.
        gathers = _counters(metadata, "gathers")
        assert sum(gathers.values()) == 3 * len(footer.stripes)
        assert gathers["mark_delete"] == 2 * len(footer.stripes)
        # index is a float64 carrier (settled) where its stripe stored it
        # plain and a list (re-encoded per block) where it stored a
        # two-byte-code dictionary; nothing else is ever re-encoded.
        shipped = _counters(metadata, "columns")
        assert sum(shipped.values()) == 3 * len(blocks)
        assert shipped["settled"] >= 2 * len(blocks)
        assert set(shipped) <= {"settled", "reencoded"}
        for batch in blocks:
            assert batch.schema.names == ["vid", "date", "index"]
            vid, date, _index = batch.columns
            assert isinstance(vid, DictColumn) and isinstance(date, DictColumn)

    def test_showgraphcons_filters_on_dictionary_entries(self, scan):
        metadata, blocks, footer = scan(query_by_name("Showgraphcons").sql("t"))
        assert blocks
        evaluations = _counters(metadata, "filter-evals")
        assert set(evaluations) == {"dictionary"}
        assert evaluations["dictionary"] < footer.rows / 4

    def test_an_int_projected_under_its_own_filter_is_settled_not_reencoded(self, scan):
        metadata, blocks, footer = scan("SELECT code FROM t WHERE code >= 300")
        assert _counters(metadata, "filter-evals") == {"planes": footer.rows}
        assert _counters(metadata, "columns") == {"settled": len(blocks)}
        assert all(isinstance(batch.columns[0], PackedColumn) for batch in blocks)
        # A filter that leaves one byte of span: the offsets narrow, and
        # that -- the rare re-base -- is the one counted way back to
        # ``_encode_values``.
        metadata, blocks, _footer = scan("SELECT code FROM t WHERE code < 200")
        assert _counters(metadata, "columns") == {"reencoded": len(blocks)}
        assert all(batch.columns[0].view.format == "B" for batch in blocks)


# -- the differential: storlet stream == row-at-a-time reference ------------------------

_DIFF_SCHEMA = Schema.of("s", "i:int", "f:float")
_CITIES = ["Rotterdam", "Milan", "Lyon", ""]
_FLOATS = [0.0, -0.0, 1.5, -2.25, float("nan"), float("inf"), float("-inf"), 1e300]


@st.composite
def _int_cells(draw, n):
    """``(cells, base, width)``: ints the encoder narrows to exactly
    ``width`` offset bytes over ``base`` (8: plain int64), in a drawn
    order -- scattered, sorted (a threshold keeps one run) or in runs."""
    width = draw(st.sampled_from([1, 2, 4, 8]))
    if width == 8:
        pool = st.sampled_from([-(2**63), 2**63 - 1, 0, -1, 2**62 + 3, -(2**40)])
        cells = draw(st.lists(st.one_of(pool, st.integers(-(2**63), 2**63 - 1)), min_size=n, max_size=n))
        base = min(cells, default=0)
    else:
        base = draw(st.sampled_from([0, 1, -5, 1000, -(2**63), 2**62 + 11, -(2**40)]))
        top = (1 << 8 * width) - 1
        edges = [0, 1, 255, 256, 257, 65535, 65536, 65537, top - 1, top]
        offsets = st.one_of(
            st.sampled_from([e for e in edges if e <= top]), st.integers(0, top)
        )
        cells = [base + o for o in draw(st.lists(offsets, min_size=n, max_size=n))]
        if n > 1:  # pin the span, so the width is the drawn one
            cells[0], cells[-1] = base, base + top
    order = draw(st.sampled_from(["scattered", "sorted", "runs"]))
    if order == "sorted":
        cells.sort()
    elif order == "runs":
        run = draw(st.integers(2, 40))
        cells.sort()
        cells = [c for k in range(run) for c in cells[k::run]]
    return cells, base, width


def _thresholds(base, width):
    top = 1 << 8 * min(width, 4)
    marks = {-1, 0, 1, top - 1, top, top + 1}
    marks |= {k * 256 + d for k in (1, 2, 255, 256) for d in (-1, 0, 1)}
    ints = [base + m for m in sorted(marks)] + [2**70, -(2**70)]
    return st.one_of(
        st.sampled_from(ints),
        st.sampled_from(ints).map(lambda v: v + 0.5),
        st.sampled_from(ints[:-2]).map(float),
    )


_COMPARISONS = [F.EqualTo, F.LessThan, F.LessThanOrEqual, F.GreaterThan, F.GreaterThanOrEqual]


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([0, 1, 9, 70, 200, 300]))
    ints, base, width = draw(_int_cells(n))
    floats = draw(st.lists(st.one_of(st.sampled_from(_FLOATS), st.floats(width=64)), min_size=n, max_size=n))
    texts = draw(st.lists(st.sampled_from(_CITIES), min_size=n, max_size=n))
    for cells in (ints, floats, texts):
        if n and draw(st.integers(0, 3)) == 0:  # a NULL: that stripe is a list
            cells[draw(st.integers(0, n - 1))] = None
    leaves = st.one_of(
        st.builds(
            lambda kind, value: kind("i", value),
            st.sampled_from(_COMPARISONS),
            st.one_of(_thresholds(base, width), st.sampled_from([c for c in ints if c is not None] or [0])),
        ),
        st.builds(
            lambda kind, value: kind("f", value),
            st.sampled_from(_COMPARISONS),
            st.sampled_from(_FLOATS + [1, 0, -3]),
        ),
        st.sampled_from(
            [F.EqualTo("s", "Milan"), F.LikePattern("s", "%o%"), F.IsNotNull("i"),
             F.In("i", [base, base + 1]), F.Not(F.EqualTo("s", "Lyon"))]
        ),
    )
    trees = st.recursive(
        leaves,
        lambda kids: st.one_of(st.builds(F.And, kids, kids), st.builds(F.Or, kids, kids), st.builds(F.Not, kids)),
        max_leaves=3,
    )
    return SimpleNamespace(
        rows=list(zip(texts, ints, floats)),
        filters=draw(st.lists(trees, max_size=2)),
        columns=draw(st.sampled_from([["s", "i", "f"], ["i"], ["f"], ["f", "s"], ["i", "f"]])),
        stripe_rows=draw(st.sampled_from([1, 7, 64, 100, 4096, 4096])),
        block_rows=draw(st.sampled_from([1, 3, 64, 1024])),
        chunk=draw(st.sampled_from([1, 61, 1 << 16])),
    )


class _ObjectBytes:
    """The connector of a degraded scan, over an object held in memory."""

    def __init__(self, body):
        self.body = body

    def read_byte_ranges(self, _split, ranges):
        return [self.body[offset : offset + length] for offset, length in ranges]


def _row_bits(rows):
    return [tuple(_bits(row)) for row in rows]


class TestStorletDifferential:
    @settings(max_examples=300, deadline=None)
    @given(case=_cases())
    def test_stream_equals_the_row_at_a_time_reference(self, case):
        body = b"".join(
            reference.encode_stream(_DIFF_SCHEMA, case.rows, case.stripe_rows)
        )
        footer = decode_footer(body)
        parameters = {
            "schema": _DIFF_SCHEMA.to_header(),
            "columns": json.dumps(case.columns),
            "filters": F.filters_to_json(case.filters),
            "stripes": _stripes(footer),
            "range_start": "0",
        }
        with mock.patch.object(columnar_storlet, "BLOCK_ROWS", case.block_rows):
            result = run_storlet(ColumnarStorlet(), body, parameters)
            project = sorted(_DIFF_SCHEMA.index_of(name) for name in case.columns)
            out_schema = _DIFF_SCHEMA.select([_DIFF_SCHEMA.names[i] for i in project])
            degraded = ColumnarScanRDD(
                None, _ObjectBytes(body), [], out_schema, _DIFF_SCHEMA, None,
                filters=F.filters_from_json(parameters["filters"]),
            )._plain_batches(SimpleNamespace(split=None), footer.stripes)
            degraded = [row for batch in degraded for row in batch.rows]
        stream = [result.body[i : i + case.chunk] for i in range(0, len(result.body), case.chunk)]
        blocks = list(decode_block_stream(stream))
        assert all(0 < len(batch) <= case.block_rows for batch in blocks)
        got = [row for batch in blocks for row in batch.rows]
        checks = [item.to_predicate(_DIFF_SCHEMA) for item in case.filters]
        want = [
            tuple(row[i] for i in project)
            for row in case.rows
            if all(check(row) for check in checks)
        ]
        assert _row_bits(got) == _row_bits(want)
        # The degradation stream is the pushdown stream, block cuts aside.
        assert _row_bits(degraded) == _row_bits(want)
        assert result.metadata["x-object-meta-storlet-rows-out"] == str(len(want))
        shipped = _counters(result.metadata, "columns")
        assert sum(shipped.values()) == len(blocks) * len(project)


# -- the per-stripe encoding rule ---------------------------------------------------------


def _segment_sizes(stream, schema):
    """The segment lengths in the header of a stream's first block."""
    (preamble,) = struct.unpack_from("<I", stream)
    _rows, *sizes = struct.unpack_from(f"<{1 + len(schema)}I", stream, 4 + preamble)
    return sizes


class TestSettledEncoding:
    @settings(max_examples=200, deadline=None)
    @given(
        drawn=_int_cells(120),
        keep=st.lists(st.booleans(), min_size=120, max_size=120),
    )
    def test_a_settled_column_is_never_larger_than_the_size_rule(self, drawn, keep):
        cells, _base, _width = drawn
        column = decode_column(encode_segment(cells, INT)[0], INT, len(cells))
        mask = bytes(keep)
        if isinstance(column, DictColumn) or not any(keep):
            return
        (gathered,) = compress_columns([column], mask)
        want = [cell for cell, flag in zip(cells, keep) if flag]
        settled = settle_column(gathered)
        assert list(settled) == want
        schema = Schema.of("i:int")
        (size,) = _segment_sizes(block_stream([ColumnBatch(schema, [settled])]), schema)
        head = 1  # the tag: a NULL-free segment ships no bitmap
        candidates = [head + len(reference._plain(want, INT)[1])]
        narrow = reference._narrow_int(want, INT)
        if narrow is not None:
            candidates.append(head + len(narrow))
        if isinstance(settled, PackedColumn):
            assert size == min(candidates)
        else:  # re-encoded by the full size rule: a dictionary may win
            assert size <= min(candidates)

    def test_floats_and_other_columns_pass_through(self):
        floats = _packed([0.5, 0.5, 0.5], "d")
        coded = DictColumn(["a"], bytes(3))
        plain = [1, 2, 3]
        for column in (floats, coded, plain):
            assert settle_column(column) is column

    @pytest.mark.parametrize(
        "cells, code, base, settled",
        [
            ([10, 300, 20, 4000], "H", 10, "H"),  # still two bytes of span
            ([10, 200, 20, 40], "H", 10, None),  # one byte now: re-based
            ([10, 300], "H", 10, "H"),
            ([300], "H", 10, None),  # one row: plain int64 is no larger
            ([2**40, 0, 5, 2**41], "q", 0, "q"),
            ([7, 0, 5, 9], "q", 0, None),  # an int64 column that narrows
            ([7], "q", 0, "q"),  # ... but one row of it would not pay
        ],
    )
    def test_the_rule(self, cells, code, base, settled):
        column = settle_column(_packed(cells, code, base))
        if settled is None:
            assert type(column) is list and column == cells
        else:
            assert column.view.format == settled and list(column) == cells

    def test_every_torn_or_padded_carrier_segment_raises(self):
        for values, dtype in (
            (list(range(-3, 300)), INT),
            ([2**62, -(2**62), 0], INT),
            ([0.5 * i for i in range(40)], FLOAT),
            (list(range(200)), INT),
        ):
            data = encode_segment(values, dtype)[0]
            assert isinstance(decode_column(data, dtype, len(values)), PackedColumn)
            for cut in range(len(data)):
                with pytest.raises(ValueError):
                    decode_column(data[:cut], dtype, len(values))
            for junk in (b"\x00", b"junk", bytes(8)):
                with pytest.raises(ValueError):
                    decode_column(data + junk, dtype, len(values))
