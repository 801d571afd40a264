"""RCF1's ``decimal`` segment (tag 7): a FLOAT run whose every value is
exactly ``k / 10**e``, stored as ``e`` and the scaled integers ``k``.

Properties, each checked against something that does not share the
encoder's loops: the cells come back bit for bit (``-0.0``, NaN
payloads, infinities and runs that need ``e > 15`` fall back to another
encoding); the exponent is the smallest that holds; text-fed and
typed-fed segments are the same bytes and equal the row-at-a-time
reference; a torn, extended or out-of-range payload never decodes; the
block stream carries a gathered decimal column under any mask and
blocking; a filter over a decimal carrier judges the decoded cells
exactly; and the whole stack, CSV or RCF1, answers as sqlite3 does.
"""

import itertools
import math
import operator
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.columnar import layout
from repro.columnar.batch import PackedColumn, compress_columns, decimal_cells
from repro.columnar.layout import (
    ENC_DECIMAL,
    BlockStreamEncoder,
    decode_block_stream,
    decode_column,
    encode_segment,
    settle_column,
)
from repro.core.scoop import ScoopContext
from repro.sql.filters import (
    EqualTo,
    GreaterThan,
    GreaterThanOrEqual,
    LessThan,
    LessThanOrEqual,
)
from repro.sql.kernels import FilterMask
from repro.sql.types import DataType, Schema

from tests import rowwise_reference as reference
from tests.sqlite_oracle import check_against_sqlite

FLOAT = DataType.FLOAT
ONE_FLOAT = Schema.of("x:float")

NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]
EDGES = [
    0.0, -0.0, float("nan"), NAN_PAYLOAD, float("inf"), float("-inf"),
    5e-324, 2.2250738585072014e-308, 1e-310, 0.1 + 0.2, 0.3, -1.5, 12.07,
    0.353, (2**53 - 1) / 1e3, -(2**53 - 1) / 1e15, 2.0**53, 3e-15, 3e-16,
    1e300,
]


def _bits(values):
    """Cells as comparable images: a float by its 8 bytes, so -0.0 and
    NaN payloads count."""
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


def _tag(values):
    data = encode_segment(values, FLOAT)[0]
    return data[0], data


@st.composite
def decimal_runs(draw, max_size=60, nulls=True, edges=True):
    """A FLOAT run of ``k / 10**e`` cells of one exponent (0 to 17, so
    some runs need more than the format holds), with NULLs, edge values
    and arbitrary floats mixed in now and then."""
    exponent = draw(st.integers(0, 17))
    span = draw(st.sampled_from([2**7, 2**15, 2**31, 2**53 - 1]))
    low = draw(st.integers(-(2**53) + 1, 2**53 - 1 - span))
    scale = 10.0**exponent
    options = [st.integers(low, low + span).map(lambda k: k / scale)]
    if nulls and draw(st.booleans()):
        options.append(st.none())
    if edges and draw(st.booleans()):
        options += [st.sampled_from(EDGES), st.floats(width=64)]
    return draw(st.lists(st.one_of(*options), max_size=max_size))


class TestRoundTrip:
    @settings(max_examples=400, deadline=None)
    @given(values=decimal_runs())
    @example(values=[-0.0, 1.5, 2.5])
    @example(values=[0.1 + 0.2, 0.3] * 4)
    @example(values=[5e-324, 0.0] * 4)
    @example(values=[NAN_PAYLOAD, 1.5] * 4)
    @example(values=[(2**53 - 1) / 1e3, -(2**53 - 1) / 1e3, 1.0])
    @example(values=[2.0**53, 1.0, 2.0])
    def test_cells_come_back_bit_for_bit(self, values):
        tag, data = _tag(values)
        assert _bits(layout.decode_segment(data, FLOAT, len(values))) == _bits(values)
        assert data == reference.encode_segment(values, FLOAT)[0]
        if tag == ENC_DECIMAL:
            present = [v for v in values if v is not None]
            assert all(math.isfinite(v) for v in present)
            assert not any(v == 0 and math.copysign(1.0, v) < 0 for v in present)

    @settings(max_examples=300, deadline=None)
    @given(values=decimal_runs(nulls=False, edges=False, max_size=40))
    def test_the_exponent_is_the_smallest_that_holds(self, values):
        tag, data = _tag(values)
        if tag != ENC_DECIMAL:
            return
        exponent = data[1 + (len(values) + 7) // 8]

        def holds(e):
            scaled = [round(v * 10.0**e) for v in values]
            return all(abs(k) < 2**53 for k in scaled) and _bits(
                decimal_cells(scaled, e)
            ) == _bits(values)

        assert holds(exponent)
        assert not any(holds(e) for e in range(exponent))

    def test_fifteen_digits_fit_and_sixteen_fall_back(self):
        tag, data = _tag([3e-15, 1e-15, 7e-15] * 10)
        assert tag == ENC_DECIMAL and data[1 + 4] == 15
        for values in ([3e-16, 1e-15] * 15, [i / 7 for i in range(30)]):
            tag, data = _tag(values)
            assert tag != ENC_DECIMAL
            assert data == reference.encode_segment(values, FLOAT)[0]

    @pytest.mark.parametrize(
        "poison", [-0.0, float("nan"), NAN_PAYLOAD, float("inf"), float("-inf")]
    )
    def test_one_poisoned_cell_falls_back_wherever_it_is(self, poison):
        """The exponent is picked from a sample; a value the sample
        skipped still decides."""
        values = [k / 100 for k in range(1000)]
        assert _tag(values)[0] == ENC_DECIMAL
        for at in (0, 1, 17, 999):
            poisoned = values[:at] + [poison] + values[at + 1 :]
            tag, data = _tag(poisoned)
            assert tag != ENC_DECIMAL
            assert _bits(layout.decode_segment(data, FLOAT, 1000)) == _bits(poisoned)

    def test_a_finer_value_the_sample_skipped_raises_the_exponent(self):
        values = [k / 10 for k in range(1000)]
        values[501] = 50.123
        tag, data = _tag(values)
        assert tag == ENC_DECIMAL and data[1 + 125] == 3
        assert layout.decode_segment(data, FLOAT, 1000) == values


SPELLINGS = [
    "1.", ".5", "-0.0", "0.0", "0", "0.10", "0.1", "1e5", "100000", "007",
    "7", "7.0", "1.25", "-3.5", "1e-3", "0.001", "12.070", "", "inf", "nan",
]


class TestTextFedSegments:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.one_of(
            st.lists(st.sampled_from(SPELLINGS), max_size=300),
            st.lists(st.sampled_from(SPELLINGS[:-2]), max_size=300),
            st.lists(
                st.one_of(
                    st.integers(-(10**6), 10**6).map(lambda k: f"{k}e-3"),
                    st.sampled_from(SPELLINGS[:-2]),
                ),
                max_size=300,
            ),
        )
    )
    @example(texts=["0.10", "0.1", ".1", "1e-1"] * 20)
    @example(texts=["-0.0", "0.0"] * 20)
    def test_texts_and_their_values_make_one_segment(self, texts):
        typed = FLOAT.parse_column(texts)
        by_text = layout._encode_texts(texts, FLOAT)
        by_value = layout._encode_values(typed, FLOAT)
        assert by_text[:4] == by_value[:4]
        data = bytes((by_text[0],)) + by_text[1] + by_text[2]
        assert data == reference.encode_segment(list(typed), FLOAT)[0]


class TestTornPayloads:
    CELLS = [k / 1000 for k in range(-20, 300)] * 2

    def _segment(self):
        """The segment, and where its payload (the exponent) starts."""
        data = encode_segment(self.CELLS, FLOAT)[0]
        assert data[0] == ENC_DECIMAL
        return bytearray(data), 1 + (len(self.CELLS) + 7) // 8

    def test_every_cut_and_every_extension_raises(self):
        data, _at = self._segment()
        rows = len(self.CELLS)
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                decode_column(bytes(data[:cut]), FLOAT, rows)
        for junk in (b"\0", b"junk", bytes(9)):
            with pytest.raises(ValueError):
                decode_column(bytes(data) + junk, FLOAT, rows)

    @pytest.mark.parametrize("exponent", [16, 17, 255])
    def test_an_exponent_past_fifteen_raises(self, exponent):
        data, at = self._segment()
        data[at] = exponent
        with pytest.raises(ValueError, match="exponent"):
            decode_column(bytes(data), FLOAT, len(self.CELLS))

    @pytest.mark.parametrize("width", [0, 3, 5, 8, 255])
    def test_a_width_outside_one_two_four_raises(self, width):
        data, at = self._segment()
        data[at + 1] = width
        with pytest.raises(ValueError, match="width"):
            decode_column(bytes(data), FLOAT, len(self.CELLS))


class TestBlockStream:
    @settings(max_examples=200, deadline=None)
    @given(
        values=decimal_runs(nulls=False, edges=False, max_size=300),
        seed=st.randoms(use_true_random=False),
        keep=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
        block_rows=st.integers(1, 1024),
    )
    def test_a_gathered_decimal_crosses_any_mask_and_blocking(
        self, values, seed, keep, block_rows
    ):
        data = encode_segment(values, FLOAT)[0]
        column = decode_column(data, FLOAT, len(values))
        mask = bytes(int(seed.random() < keep) for _ in values)
        (gathered,) = compress_columns([column], mask)
        kept = mask.count(1)
        want = list(itertools.compress(values, mask))
        shipped = {}
        encoder = BlockStreamEncoder(ONE_FLOAT, shipped)
        stream = b"".join(encoder.blocks([gathered], kept, block_rows, gathered=True))
        batches = list(decode_block_stream([stream]))
        assert _bits([cell for batch in batches for cell in batch.columns[0]]) == _bits(want)
        if data[0] == ENC_DECIMAL:
            assert isinstance(column, PackedColumn) and column.exponent is not None
            how = "settled" if isinstance(settle_column(gathered), PackedColumn) else "reencoded"
            assert shipped == {how: len(batches)}
            if how == "settled":
                assert all(batch.columns[0].exponent == column.exponent for batch in batches)

    def test_settle_keeps_the_width_the_survivors_need_and_narrows_otherwise(self):
        cells = [k / 100 for k in range(300)] + [10**6 / 100]  # span > 2 bytes
        column = decode_column(encode_segment(cells, FLOAT)[0], FLOAT, len(cells))
        assert (column.view.format, column.exponent) == ("I", 2)
        wide = bytes(1 for _ in cells)[:-2] + b"\x00\x01"
        (kept,) = compress_columns([column], wide)
        assert settle_column(kept) is kept  # the outlier stays: 4 bytes still
        narrow = bytes(1 for _ in cells)[:-1] + b"\x00"
        (kept,) = compress_columns([column], narrow)
        settled = settle_column(kept)
        assert settled == cells[:-1] and not isinstance(settled, PackedColumn)
        # Re-encoded per block: a narrower decimal again, the same cells.
        encoder = BlockStreamEncoder(ONE_FLOAT, shipped := {})
        stream = b"".join(encoder.blocks([kept], len(kept), 128, gathered=True))
        batches = list(decode_block_stream([stream]))
        assert shipped == {"reencoded": 3}
        assert all(batch.columns[0].view.format == "B" for batch in batches)
        assert [c for batch in batches for c in batch.columns[0]] == cells[:-1]


_KINDS = {
    EqualTo: operator.eq,
    LessThan: operator.lt,
    LessThanOrEqual: operator.le,
    GreaterThan: operator.gt,
    GreaterThanOrEqual: operator.ge,
}


@st.composite
def literals_near(draw, cells):
    """A literal on, between or far from the cells: a cell, its float
    neighbours, a midpoint, an int (past 2**53 too), +/-0.0, NaN, inf."""
    cell = draw(st.sampled_from(cells)) if cells else 0.0
    return draw(
        st.one_of(
            st.just(cell),
            st.just(math.nextafter(cell, math.inf)),
            st.just(math.nextafter(cell, -math.inf)),
            st.just(cell + 0.0005),
            st.just(int(cell)),
            st.just(int(cell) + 2**53),
            st.integers(-(2**64), 2**64),
            st.sampled_from([0.0, -0.0, float("nan"), math.inf, -math.inf, 2**53 + 1]),
            st.floats(width=64),
        )
    )


class TestFiltersOverDecimalCarriers:
    @staticmethod
    def _judged_as_cells(column, literal):
        cells = column.tolist()
        for kind, judge in _KINDS.items():
            tally = {}
            mask = FilterMask([kind("x", literal)], ONE_FLOAT).mask([column], len(cells), tally)
            assert mask == bytes(judge(cell, literal) for cell in cells), (kind, literal)
            # One C-level pass over the divided-out cells: a decimal
            # carrier never reaches the byte planes of its offsets.
            assert tally == {"rows_c": len(cells)}

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), values=decimal_runs(nulls=False, edges=False, max_size=80))
    def test_filters_judge_as_the_decoded_cells_do(self, data, values):
        column = decode_column(encode_segment(values, FLOAT)[0], FLOAT, len(values))
        if isinstance(column, PackedColumn) and column.exponent is not None:
            self._judged_as_cells(column, data.draw(literals_near(column.tolist())))

    @pytest.mark.parametrize(
        "values",
        [
            # Integral cells just under 2**53, against ints past it.
            [float(2**53 - 1 - i) for i in range(0, 3000, 3)],
            # Fifteen digits where one float holds several scaled ints.
            [(8_500_000_000_000_000 + i) / 1e15 for i in range(0, 400, 3)],
        ],
    )
    def test_ints_past_two_to_the_53_and_crowded_cells(self, values):
        column = decode_column(encode_segment(values, FLOAT)[0], FLOAT, len(values))
        assert isinstance(column, PackedColumn) and column.exponent is not None
        cells = column.tolist()
        literals = [2**53, 2**53 + 1, 2**53 - 2, 2**64, -(2**64), math.nan, math.inf]
        for cell in cells[:40]:
            literals += [cell, math.nextafter(cell, math.inf), math.nextafter(cell, -math.inf)]
            literals += [int(cell), int(cell) + 1]
        for literal in literals:
            self._judged_as_cells(column, literal)

    def test_where_index_below_five_is_judged_on_cells_not_offsets(self):
        cells = [k / 1000 for k in range(0, 10_000, 7)]
        column = decode_column(encode_segment(cells, FLOAT)[0], FLOAT, len(cells))
        assert column.exponent == 3
        mask = FilterMask([LessThan("x", 5)], ONE_FLOAT).mask([column], len(cells))
        assert mask == bytes(cell < 5 for cell in cells)
        assert 0 < mask.count(1) < len(cells)


# -- through the stack ------------------------------------------------------------

STACK_SCHEMA = Schema.of("id:int", "reading:float", "ratio:float", "mixed:float")
STACK_ROWS = [
    (
        i,
        round((i * 37 % 1000) / 8, 3) if i % 11 else None,  # decimal everywhere
        i / 7,  # decimal nowhere
        (i % 500) / 4 if i < 1200 else i / 7,  # decimal in the first stripes only
    )
    for i in range(2400)
]
STACK_QUERIES = [
    "SELECT id, reading FROM t WHERE reading < 5",
    "SELECT id, reading FROM t WHERE reading = 62.5",
    "SELECT id FROM t WHERE reading >= 124.875 OR reading <= 0",
    "SELECT id, mixed FROM t WHERE mixed > 100.25",
    "SELECT id, ratio FROM t WHERE ratio < 10 AND mixed >= 3",
    "SELECT count(*) AS n, max(reading) AS m, min(mixed) AS l FROM t",
    "SELECT id % 3 AS g, sum(reading) AS s, avg(mixed) AS a FROM t GROUP BY id % 3",
]


def _render(value):
    return "" if value is None else repr(value)


@pytest.fixture(scope="module")
def stack_objects():
    lines = [",".join(map(_render, row)) + "\n" for row in STACK_ROWS]
    half = len(lines) // 2
    return [
        ("part-0.csv", "".join(lines[:half]).encode()),
        ("part-1.csv", "".join(lines[half:]).encode()),
    ]


class TestTheStackAgreesWithSqlite:
    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("pushdown", [True, False])
    @pytest.mark.parametrize("table_format", ["csv", "columnar"])
    def test_every_query(self, stack_objects, table_format, pushdown, parallelism):
        ctx = ScoopContext(chunk_size=8 * 1024, parallelism=parallelism)
        for name, data in stack_objects:
            ctx.upload_csv("readings", name, data)
        ctx.register_csv_table(
            "t", "readings", schema=STACK_SCHEMA, pushdown=pushdown, format=table_format
        )
        for sql in STACK_QUERIES:
            check_against_sqlite(sql, STACK_SCHEMA, STACK_ROWS, ctx.sql(sql).collect())

    def test_the_corpus_stores_all_three_kinds_of_float_column(self, stack_objects):
        ctx = ScoopContext(chunk_size=8 * 1024)
        for name, data in stack_objects:
            ctx.upload_csv("readings", name, data)
        ctx.register_csv_table("t", "readings", schema=STACK_SCHEMA, format="columnar")
        tags = {name: set() for name in STACK_SCHEMA.names}
        for name in ctx.client.list_objects("readings--columnar"):
            _headers, body = ctx.client.get_object("readings--columnar", name)
            for stripe in layout.decode_footer(body).stripes:
                for field, segment in zip(STACK_SCHEMA.fields, stripe.columns):
                    tags[field.name].add(body[segment.offset])
        assert tags["reading"] == {ENC_DECIMAL}
        assert ENC_DECIMAL not in tags["ratio"]
        assert ENC_DECIMAL in tags["mixed"] and len(tags["mixed"]) > 1
