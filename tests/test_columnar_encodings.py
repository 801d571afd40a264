"""The dictionary and narrow-int RCF1 segment encodings (docs/columnar.md).

Which encoding a segment takes (smallest wins, ties to the earlier
tag), that every encoding round-trips bit for bit, that no torn or
padded segment ever decodes, that a decoded dictionary stays a coded
carrier through filtering, gathering and the response block, and that
an object written with the four plain encodings only still answers.
"""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.batch import (
    ColumnBatch,
    DictColumn,
    PackedColumn,
    compress_columns,
    materialize,
)
from repro.columnar.layout import (
    ENC_BOOL,
    ENC_DECIMAL,
    ENC_DICT,
    ENC_FLOAT64,
    ENC_INT64,
    ENC_NARROW_INT,
    ENC_TEXT,
    BlockStreamEncoder,
    decode_block_stream,
    decode_column,
    decode_footer,
    decode_segment,
    encode_segment,
)
from repro.core import ScoopContext
from repro.csvscan import CsvScan
from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.gridpocket.queries import query_by_name
from repro.gridpocket.workload import synthetic_query
from repro.sql.filters import LessThan, LikePattern, filters_to_json
from repro.sql.types import DataType, Schema
from repro.storlets.api import StorletInputStream, StorletLogger
from repro.storlets.columnar_storlet import ColumnarStorlet, CsvToColumnarStorlet
from repro.swift.http import chunk_bytes

from tests import rowwise_reference as reference
from tests.storlet_harness import block_stream

STRING, INT, FLOAT, BOOL = (
    DataType.STRING, DataType.INT, DataType.FLOAT, DataType.BOOL,
)


def _bits(values):
    """Values with floats replaced by their 8 bytes: ``==`` cannot tell
    -0.0 from 0.0 or compare NaNs."""
    return [
        struct.pack("<d", v) if isinstance(v, float) else v for v in values
    ]


def _tag(values, dtype):
    return encode_segment(values, dtype)[0][0]


class TestSizeRule:
    @pytest.mark.parametrize(
        "values, dtype, tag",
        [
            (["Rotterdam", "Milan", "Lyon"] * 40, STRING, ENC_DICT),
            # Distinct strings: a dictionary only adds the codes.
            ([f"meter-{i}" for i in range(120)], STRING, ENC_TEXT),
            # Offsets of one byte beat a 20-entry dictionary.
            ([1000 + i % 20 for i in range(400)], INT, ENC_NARROW_INT),
            # Two far-apart values: 1-byte codes beat 8-byte offsets.
            ([0, 2**40] * 200, INT, ENC_DICT),
            # ... and offsets past four bytes have no narrow form at all.
            ([-(2**62), 2**62, 7], INT, ENC_INT64),
            ([1 / 3, 2 / 3] * 100, FLOAT, ENC_DICT),
            ([i / 7 for i in range(100)], FLOAT, ENC_FLOAT64),
            # One bit a value: nothing is smaller.
            ([True, False] * 100, BOOL, ENC_BOOL),
            ([10**30, 5] * 50, INT, ENC_DICT),
            ([10**30 + i for i in range(20)], INT, ENC_TEXT),
            ([None] * 50, INT, ENC_INT64),
            ([None] * 50, STRING, ENC_TEXT),
            ([], FLOAT, ENC_FLOAT64),
            # Hundredths: one-byte scaled integers beat 1-byte codes.
            ([0.5, 0.25] * 100, FLOAT, ENC_DECIMAL),
            ([0.353, 12.07, -4.5, 1e-3], FLOAT, ENC_DECIMAL),
        ],
    )
    def test_smallest_encoding_wins(self, values, dtype, tag):
        data = encode_segment(values, dtype)[0]
        assert data[0] == tag
        assert data == reference.encode_segment(values, dtype)[0]
        assert _bits(decode_segment(data, dtype, len(values))) == _bits(values)

    def test_ties_go_to_the_earlier_encoding(self):
        far = [i << 40 for i in range(7)]
        # 7 entries over 9 values: 5 + (1 + 1 + 56) + 9 == 72 == 8 * 9.
        assert _tag(far + far[:2], INT) == ENC_INT64
        assert _tag(far + far[:3], INT) == ENC_DICT
        # 2 entries 300 apart over 14 values: dictionary 5 + (1 + 1 +
        # 16) + 14 == 37 == 9 + 2 * 14, the narrow-int size.
        assert _tag([0, 300] * 7, INT) == ENC_DICT
        assert _tag([0, 300] * 6, INT) == ENC_NARROW_INT
        for values in (far + far[:2], [0, 300] * 7, [0, 300] * 6):
            assert (
                encode_segment(values, INT)[0]
                == reference.encode_segment(values, INT)[0]
            )

    @pytest.mark.parametrize(
        "span, width", [(255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4)]
    )
    def test_narrow_int_takes_the_narrowest_width(self, span, width):
        values = list(range(-5, 200)) + [-5 + span]
        data = encode_segment(values, INT)[0]
        bitmap = (len(values) + 7) // 8
        assert data[0] == ENC_NARROW_INT and data[1 + bitmap] == width
        assert struct.unpack_from("<q", data, 2 + bitmap) == (-5,)
        assert len(data) == 1 + bitmap + 9 + width * len(values)
        assert decode_segment(data, INT, len(values)) == values

    def test_int64_extremes_stay_plain(self):
        values = [-(2**63), 2**63 - 1, 0, 1]
        assert _tag(values, INT) == ENC_INT64
        assert decode_segment(encode_segment(values, INT)[0], INT, 4) == values

    @pytest.mark.parametrize("distinct, width", [(256, 1), (257, 2), (65536, 2)])
    def test_dictionary_code_width(self, distinct, width):
        values = [f"value-number-{i % distinct}" for i in range(distinct * 3)]
        data = encode_segment(values, STRING)[0]
        bitmap = (len(values) + 7) // 8
        assert data[0] == ENC_DICT and data[1 + bitmap] == width
        assert struct.unpack_from("<I", data, 2 + bitmap) == (distinct,)
        assert data == reference.encode_segment(values, STRING)[0]
        assert decode_segment(data, STRING, len(values)) == values

    def test_past_65536_distinct_values_there_is_no_dictionary(self):
        values = [f"value-number-{i % 65537}" for i in range(65537 * 3)]
        data = encode_segment(values, STRING)[0]
        assert data[0] == ENC_TEXT
        assert data == reference.encode_segment(values, STRING)[0]
        # Ints that far apart in count still narrow.
        ints = [i % 65537 for i in range(65537 * 3)]
        assert _tag(ints, INT) == ENC_NARROW_INT
        assert encode_segment(ints, INT)[0] == reference.encode_segment(ints, INT)[0]

    def test_entries_are_in_first_appearance_order(self):
        values = ["b", "a", "b", "c", "a"] * 20
        column = decode_column(encode_segment(values, STRING)[0], STRING, 100)
        assert column.entries == ["b", "a", "c"]
        assert column.codes[:5] == bytes([0, 1, 0, 2, 1])

    def test_floats_are_told_apart_by_their_bytes(self):
        quiet = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]
        values = [0.0, -0.0, float("nan"), quiet, float("inf"), None] * 30
        data = encode_segment(values, FLOAT)[0]
        assert data[0] == ENC_DICT
        column = decode_column(data, FLOAT, len(values))
        assert _bits(column.entries) == _bits(values[:5] + [None])
        assert _bits(decode_segment(data, FLOAT, len(values))) == _bits(values)
        # Fresh NaN objects every row: bits decide, never identity.
        rebuilt = [None if v is None else struct.unpack("<d", struct.pack("<d", v))[0] for v in values]
        assert encode_segment(rebuilt, FLOAT)[0] == data

    def test_non_ascii_strings(self):
        values = ["Zürich", "東京", "Kraków", "\U0001f600", ""] * 25
        data = encode_segment(values, STRING)[0]
        assert data[0] == ENC_DICT
        assert decode_segment(data, STRING, len(values)) == values


# -- torn / padded segments ---------------------------------------------------

#: Value pools that steer the encoder into every encoding.
_SEGMENTS = st.one_of(
    st.tuples(
        st.just(STRING),
        st.lists(st.one_of(st.none(), st.sampled_from(["Rotterdam", "Milan", "é漢", ""])), max_size=40),
    ),
    st.tuples(st.just(STRING), st.lists(st.text(max_size=5), max_size=12)),
    st.tuples(
        st.just(INT),
        st.lists(st.one_of(st.none(), st.integers(-3, 300)), max_size=40),
    ),
    st.tuples(
        st.just(INT),
        st.lists(st.sampled_from([0, 2**40, -(2**70), None]), max_size=40),
    ),
    st.tuples(
        st.just(FLOAT),
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, float("nan"), 1.5, None]),
                st.floats(width=64),
            ),
            max_size=40,
        ),
    ),
    st.tuples(st.just(BOOL), st.lists(st.one_of(st.none(), st.booleans()), max_size=40)),
    # Thousandths: decimal segments (tag 7).
    st.tuples(
        st.just(FLOAT),
        st.lists(
            st.one_of(st.none(), st.integers(-(10**6), 10**6).map(lambda k: k / 1000)),
            max_size=40,
        ),
    ),
)


class TestTornSegments:
    def test_the_reported_cases(self):
        data = encode_segment(["Rotterdam", "Milan", "Lyon"], STRING)[0]
        with pytest.raises(ValueError):
            decode_segment(data[:-6], STRING, 3)
        for values, dtype in (
            (["a", "b"], STRING),
            ([True, False, True], BOOL),
            ([1, 2**40, -7], INT),
        ):
            data = encode_segment(values, dtype)[0]
            with pytest.raises(ValueError):
                decode_segment(data + b"junk", dtype, len(values))
            with pytest.raises(ValueError):
                decode_segment(data[:-1], dtype, len(values))

    @settings(max_examples=150, deadline=None)
    @given(segment=_SEGMENTS, junk=st.binary(min_size=1, max_size=9))
    def test_no_truncation_or_extension_ever_decodes(self, segment, junk):
        dtype, values = segment
        data = encode_segment(values, dtype)[0]
        assert _bits(decode_segment(data, dtype, len(values))) == _bits(values)
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                decode_column(data[:cut], dtype, len(values))
        with pytest.raises(ValueError):
            decode_column(data + junk, dtype, len(values))

    def test_a_code_past_the_dictionary_is_rejected(self):
        data = bytearray(encode_segment(["a", "b"] * 20, STRING)[0])
        assert data[0] == ENC_DICT
        data[-1] = 2
        with pytest.raises(ValueError, match="beyond the dictionary"):
            decode_segment(bytes(data), STRING, 40)

    def test_unknown_widths_are_rejected(self):
        dictionary = bytearray(encode_segment(["a", "b"] * 20, STRING)[0])
        narrow = bytearray(encode_segment(list(range(40)), INT)[0])
        assert (dictionary[0], narrow[0]) == (ENC_DICT, ENC_NARROW_INT)
        for data, dtype in ((dictionary, STRING), (narrow, INT)):
            data[1 + 5] = 3  # the width byte, after tag + 5 bitmap bytes
            with pytest.raises(ValueError, match="width"):
                decode_segment(bytes(data), dtype, 40)

    def test_a_dictionary_of_dictionaries_is_rejected(self):
        data = bytearray(encode_segment(["a", "b"] * 20, STRING)[0])
        data[1 + 5 + 5] = ENC_DICT  # the nested segment's tag
        with pytest.raises(ValueError, match="unknown segment encoding"):
            decode_segment(bytes(data), STRING, 40)

    def test_null_bits_past_the_rows_are_rejected(self):
        data = bytearray(encode_segment(["a", None, "b"], STRING)[0])
        data[1] |= 0x80
        with pytest.raises(ValueError, match="beyond the rows"):
            decode_segment(bytes(data), STRING, 3)


# -- the coded carrier -----------------------------------------------------------


class TestDictColumn:
    def test_decode_keeps_small_dictionaries_coded(self):
        values = ["x", None, "y", "x"] * 30
        column = decode_column(encode_segment(values, STRING)[0], STRING, 120)
        assert isinstance(column, DictColumn)
        assert column.entries == ["x", "y", None]  # NULL is the last entry
        assert list(column) == materialize(column) == values
        assert len(column) == 120 and column[1] is None and column[2] == "y"
        assert list(column[4:8]) == values[4:8]
        assert column.count(None) == 30 and "y" in column

    def test_past_256_entries_decode_is_a_plain_list(self):
        values = [f"v{i % 300}" for i in range(900)]
        assert isinstance(decode_column(encode_segment(values, STRING)[0], STRING, 900), list)
        # 256 entries fit a byte code -- until NULL needs the 257th.
        values = [f"v{i % 256}" for i in range(768)]
        assert isinstance(
            decode_column(encode_segment(values, STRING)[0], STRING, 768), DictColumn
        )
        values[5] = None
        column = decode_column(encode_segment(values, STRING)[0], STRING, 768)
        assert isinstance(column, list) and column == values

    def test_compress_gathers_codes_only(self):
        column = DictColumn(["a", "b"], bytes([0, 1, 1, 0]))
        (kept,) = compress_columns([column], bytes([1, 0, 1, 0]))
        assert kept.entries is column.entries and kept.codes == bytes([0, 1])
        assert compress_columns([["p", "q", "r", "s"]], bytes([0, 1, 1, 0])) == [["q", "r"]]

    def test_a_block_ships_the_surviving_entries_still_coded(self):
        column = DictColumn(["Alpha", "Bravo", "Charlie", "Delta"], bytes([3, 1, 3, 3, 1]))
        later = DictColumn(["Delta", "Echo", "Alpha"], bytes([1, 0, 0]))
        plain = [7, 8, 9, 10, 11]
        schema = METER_SCHEMA.select(["city", "code"])
        encoder = BlockStreamEncoder(schema)
        stream = block_stream(
            [
                ColumnBatch(schema, [column, plain], 5),
                ColumnBatch(schema, [later, plain[:3]], 3),
            ],
            encoder=encoder,
        )
        first, second = decode_block_stream([stream])
        # Still carriers past the block decoder: cells expand where rows leave.
        coded, other = first.columns
        assert isinstance(coded, DictColumn) and isinstance(other, PackedColumn)
        assert (other.view.format, other.base, list(other)) == ("B", 7, plain)
        assert (coded.entries, coded.codes) == (["Bravo", "Delta"], bytes([1, 0, 1, 1, 0]))
        assert first.rows == tuple(zip(["Delta", "Bravo", "Delta", "Delta", "Bravo"], plain))
        # The second block codes into the dictionary the stream has built
        # and adds the one entry that is new to it ...
        (again, _other) = second.columns
        assert isinstance(again, DictColumn)
        assert (again.entries, again.codes) == (["Bravo", "Delta", "Echo"], bytes([2, 1, 1]))
        assert coded.entries == ["Bravo", "Delta"]  # ... in a list of its own.
        # Only entries a shipped row uses are ever sent, each of them once.
        assert encoder.entries_shipped == 3 and encoder.resets == 0
        for entry in (b"Bravo", b"Delta", b"Echo"):
            assert stream.count(entry) == 1
        assert b"Alpha" not in stream and b"Charlie" not in stream

    @pytest.mark.parametrize(
        "codes", [bytes([0, 2, 0, 1]), bytes([2, 2]), bytes([0, 1]), b""]
    )
    def test_a_block_with_nulls_or_no_rows_round_trips(self, codes):
        column = DictColumn(["a", "b", None], codes)
        schema = METER_SCHEMA.select(["city"])
        block = block_stream([ColumnBatch(schema, [column], len(codes))])
        (batch,) = decode_block_stream([block])
        (decoded,) = batch.columns
        # NULLs travel in the bitmap, so only a NULL-free block comes
        # back coded; either way the cells are the column's.
        assert isinstance(decoded, DictColumn) == (2 not in codes)
        assert list(decoded) == list(column)
        assert batch.rows == tuple((cell,) for cell in column)


# -- the storlet on the encoded form -------------------------------------------

SPEC = DatasetSpec(meters=40, intervals=60, objects=2, seed=5)
STRIPE_BYTES = 32 * 1024



def _ledger_queries(table):
    """The three queries of ``benchmarks/hotpath``."""
    return {
        "q_selective": query_by_name("Showgraphcons").sql(table),
        "q_half": synthetic_query(0.5, ["vid", "date", "index"], table=table),
        "q_groupby": (
            f"SELECT city, count(*) AS n, max(code) AS m FROM {table} "
            "GROUP BY city ORDER BY city"
        ),
    }


def _convert(csv_bytes, schema=METER_SCHEMA):
    return b"".join(
        CsvToColumnarStorlet().process(
            StorletInputStream(chunk_bytes(csv_bytes, 4096)),
            {
                "schema": schema.to_header(),
                "has_header": "false",
                "stripe_bytes": str(STRIPE_BYTES),
            },
            StorletLogger("t"),
            {},
        )
    )


def _scan(body, filters, columns, schema=METER_SCHEMA):
    """Run the columnar storlet over a whole object; ``(rows, metadata)``."""
    footer = decode_footer(body)
    stripes = [
        {"rows": s.rows, "cols": [[c.offset, c.length] for c in s.columns]}
        for s in footer.stripes
    ]
    metadata = {}
    chunks = ColumnarStorlet().process(
        StorletInputStream(chunk_bytes(body, 4096)),
        {
            "schema": schema.to_header(),
            "columns": json.dumps(columns),
            "filters": filters_to_json(filters),
            "stripes": json.dumps(stripes),
            "range_start": "0",
        },
        StorletLogger("t"),
        metadata,
    )
    rows = [row for batch in decode_block_stream(chunks) for row in batch.rows]
    return rows, metadata, footer


class TestStorletCounters:
    def test_like_runs_once_per_dictionary_entry(self):
        (_name, csv_bytes), _other = MeterDataGenerator(SPEC).csv_objects()
        body = _convert(csv_bytes)
        filters = [LikePattern("city", "Rotterdam"), LikePattern("date", "2015-01-%")]
        rows, metadata, footer = _scan(body, filters, ["vid", "date", "index"])
        want = [
            (r[0], r[1], r[2])
            for r in MeterDataGenerator(SPEC).rows()
            if r[6] == "Rotterdam" and r[1].startswith("2015-01-")
        ][: len(rows)]
        assert rows == want and rows
        stripes = len(footer.stripes)
        assert stripes > 1
        # city and date are dictionary segments in every stripe, so no
        # LIKE ever ran over a row cell ...
        assert "x-object-meta-storlet-filter-evals-rows" not in metadata
        evaluations = int(metadata["x-object-meta-storlet-filter-evals-dictionary"])
        cities = len({r[6] for r in MeterDataGenerator(SPEC).rows()})
        dates = len({r[1] for r in MeterDataGenerator(SPEC).rows()})
        # ... and per stripe at most once per entry of each dictionary.
        assert 2 * stripes <= evaluations <= (cities + dates) * stripes
        assert evaluations < footer.rows / 4
        # Four referenced columns per stripe, by encoding.
        decoded = {
            key.rsplit("-", 1)[1]: int(value)
            for key, value in metadata.items()
            if key.startswith("x-object-meta-storlet-segments-")
        }
        assert sum(decoded.values()) == 4 * stripes
        assert decoded["dictionary"] >= 3 * stripes

    def test_a_filter_over_a_plain_segment_counts_rows(self):
        (_name, csv_bytes), _other = MeterDataGenerator(SPEC).csv_objects()
        body = _convert(csv_bytes)
        # A float literal against the narrow-int ``code``: no byte planes,
        # the cells are judged as they stand.
        rows, metadata, footer = _scan(body, [LessThan("code", 1e18)], ["vid"])
        assert len(rows) == footer.rows
        # One C-level pass per stripe: no Python call per row.
        assert metadata["x-object-meta-storlet-filter-evals-rows_c"] == str(footer.rows)
        assert "x-object-meta-storlet-filter-evals-rows" not in metadata
        assert metadata["x-object-meta-storlet-segments-narrow_int"] == str(len(footer.stripes))
        # The decimal ``index`` is judged on its divided-out cells, never
        # on the byte planes of its scaled offsets.
        rows, metadata, footer = _scan(body, [LessThan("index", 1e18)], ["vid"])
        assert len(rows) == footer.rows
        assert metadata["x-object-meta-storlet-filter-evals-rows_c"] == str(footer.rows)
        assert "x-object-meta-storlet-filter-evals-planes" not in metadata
        assert metadata["x-object-meta-storlet-segments-decimal"] == str(len(footer.stripes))
        # A FLOAT column that is not decimal stays a float64 segment,
        # and its filter takes the same C-level pass.
        schema = Schema.of("id:int", "ratio:float")
        csv_bytes = "".join(f"{i},{i / 7!r}\n" for i in range(3000)).encode()
        body = _convert(csv_bytes, schema)
        rows, metadata, footer = _scan(body, [LessThan("ratio", 1e18)], ["id"], schema)
        assert rows == [(i,) for i in range(3000)] and len(footer.stripes) > 1
        assert metadata["x-object-meta-storlet-filter-evals-rows_c"] == str(footer.rows)
        assert "x-object-meta-storlet-filter-evals-rows" not in metadata
        assert metadata["x-object-meta-storlet-segments-float64"] == str(len(footer.stripes))

    def test_the_registry_sees_the_same_counts(self):
        ctx = ScoopContext(chunk_size=STRIPE_BYTES)
        for name, data in MeterDataGenerator(SPEC).csv_objects():
            ctx.upload_csv("meters", name, data)
        relation = ctx.register_csv_table(
            "t", "meters", schema=METER_SCHEMA, format="columnar"
        )
        ctx.sql(_ledger_queries("t")["q_selective"]).collect()
        registry = ctx.registry
        evaluated = registry.counter_value("storlets.filter_evaluations", domain="dictionary")
        assert 0 < evaluated < SPEC.total_rows() / 4
        assert registry.counter_value("storlets.filter_evaluations", domain="rows") == 0
        assert registry.counter_value("storlets.segments_decoded", encoding="dictionary") > 0
        assert registry.counter_total("storlets.segments_decoded") == sum(
            4 * len(columnar.stripes)
            for columnar in relation.splits
        )
        # The dictionary columns were gathered on their codes, and every
        # block shipped its four columns one way or another.
        assert registry.counter_value("storlets.gathers", kind="mark_delete") > 0
        assert registry.counter_value("storlets.columns_shipped", how="verbatim") == 0
        assert registry.counter_total("storlets.columns_shipped") % 4 == 0


# -- objects written before the three encodings existed ----------------------------


class TestPlainOnlyObjectsStillAnswer:
    def test_ledger_queries_over_a_parent_commit_object(self, monkeypatch):
        """The reference with all three candidates switched off is the
        encoder as it was: tags 0-3 only.  Such objects must read, and
        answer the three ledger queries as the CSV does."""
        monkeypatch.setattr(reference, "_dictionary", lambda values, dtype: None)
        monkeypatch.setattr(reference, "_narrow_int", lambda values, dtype: None)
        monkeypatch.setattr(reference, "_decimal", lambda values, dtype: None)
        ctx = ScoopContext(chunk_size=STRIPE_BYTES)
        ctx.client.put_container("old")
        for name, data in MeterDataGenerator(SPEC).csv_objects():
            ctx.upload_csv("meters", name, data)
            rows = list(CsvScan([data], METER_SCHEMA).rows())
            body = b"".join(
                reference.encode_stream(METER_SCHEMA, rows, 4096, STRIPE_BYTES)
            )
            tags = {
                body[segment.offset]
                for stripe in decode_footer(body).stripes
                for segment in stripe.columns
            }
            assert tags <= {ENC_INT64, ENC_FLOAT64, ENC_TEXT, ENC_BOOL}
            ctx.client.put_object("old", name.replace(".csv", ".rcf"), body)
        ctx.register_csv_table("t", "meters", schema=METER_SCHEMA, format="csv")
        ctx.register_columnar_table("old_t", "old", schema=METER_SCHEMA)
        ctx.register_csv_table("new_t", "meters", schema=METER_SCHEMA, format="columnar")
        for name, sql in _ledger_queries("t").items():
            want = sorted(ctx.sql(sql).collect())
            assert want, name
            for table in ("old_t", "new_t"):
                got = ctx.sql(_ledger_queries(table)[name]).collect()
                assert sorted(got) == want, (name, table)
