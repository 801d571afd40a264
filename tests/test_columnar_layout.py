"""Property tests for the RCF1 columnar layout (docs/columnar.md).

Hypothesis drives the writer/reader pair through arbitrary schemas,
NULL patterns, stripe sizes and chunk boundaries; the invariant is
always the same: whatever ``encode_*`` produced, ``decode_*`` returns
the original rows, bit for bit.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.batch import ColumnBatch
from repro.columnar.layout import (
    BlockStreamDecoder,
    decode_block_stream,
    decode_footer,
    decode_segment,
    encode_columnar,
    encode_segment,
    encode_stream,
    footer_from_tail,
    iter_stripe_batches,
)
from repro.sql.types import DataType, Schema

from tests.storlet_harness import block_stream

# -- value strategies per column type ---------------------------------------

_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)
_VALUES = {
    DataType.STRING: st.one_of(st.none(), _TEXT),
    # Includes values outside int64 to exercise the text escape hatch.
    DataType.INT: st.one_of(
        st.none(), st.integers(min_value=-(2**80), max_value=2**80)
    ),
    DataType.FLOAT: st.one_of(
        st.none(),
        st.floats(allow_nan=False, allow_infinity=True, width=64),
    ),
    DataType.BOOL: st.one_of(st.none(), st.booleans()),
}


@st.composite
def schemas(draw):
    """A random schema: 1-6 uniquely named, randomly typed columns."""
    count = draw(st.integers(1, 6))
    types = draw(
        st.lists(
            st.sampled_from(list(DataType)), min_size=count, max_size=count
        )
    )
    return Schema.of(
        *[f"c{i}:{t.value}" for i, t in enumerate(types)]
    )


@st.composite
def tables(draw):
    """A (schema, rows) pair with NULLs sprinkled everywhere."""
    schema = draw(schemas())
    row = st.tuples(*[_VALUES[f.dtype] for f in schema.fields])
    rows = draw(st.lists(row, max_size=40))
    return schema, rows


def _all_rows(data: bytes):
    return [row for batch in iter_stripe_batches(data) for row in batch.rows]


class TestObjectRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(table=tables(), stripe_rows=st.integers(1, 7))
    def test_encode_decode_round_trips(self, table, stripe_rows):
        schema, rows = table
        data = encode_columnar(schema, rows, stripe_rows)
        footer = decode_footer(data)
        assert footer.schema.to_header() == schema.to_header()
        assert footer.rows == len(rows)
        assert _all_rows(data) == rows

    @settings(max_examples=60, deadline=None)
    @given(table=tables())
    def test_stream_equals_one_shot_encoding(self, table):
        schema, rows = table
        assert b"".join(encode_stream(schema, rows)) == encode_columnar(
            schema, rows
        )

    @settings(max_examples=60, deadline=None)
    @given(table=tables(), stripe_bytes=st.integers(1, 512))
    def test_byte_budgeted_stripes_round_trip(self, table, stripe_bytes):
        schema, rows = table
        data = b"".join(
            encode_stream(schema, rows, stripe_bytes=stripe_bytes)
        )
        assert _all_rows(data) == rows

    @settings(max_examples=60, deadline=None)
    @given(table=tables(), probe=st.integers(13, 64))
    def test_footer_from_tail_matches_full_decode(self, table, probe):
        schema, rows = table
        data = encode_columnar(schema, rows)
        tail = data[-min(probe, len(data)):]
        footer, needed = footer_from_tail(tail, len(data))
        if footer is None:
            footer, _ = footer_from_tail(data[-needed:], len(data))
        assert footer is not None
        full = decode_footer(data)
        assert footer.rows == full.rows
        assert [s.start for s in footer.stripes] == [
            s.start for s in full.stripes
        ]

    def test_empty_table_round_trips(self):
        schema = Schema.of("a", "b:int")
        data = encode_columnar(schema, [])
        footer = decode_footer(data)
        assert footer.rows == 0 and footer.stripes == []
        assert _all_rows(data) == []

    def test_column_projection_reads_only_named_columns(self):
        schema = Schema.of("a", "b:int", "c:float")
        rows = [("x", 1, 0.5), (None, None, None), ("y", 2, 1.5)]
        data = encode_columnar(schema, rows)
        batches = list(iter_stripe_batches(data, columns=["c", "a"]))
        assert [r for b in batches for r in b.rows] == [
            (0.5, "x"), (None, None), (1.5, "y")
        ]


class TestSegmentRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        dtype=st.sampled_from(list(DataType)),
        data=st.data(),
    )
    def test_segment_round_trips(self, dtype, data):
        values = data.draw(st.lists(_VALUES[dtype], max_size=30))
        encoded, nulls, mn, mx, has_nan = encode_segment(values, dtype)
        assert nulls == sum(1 for v in values if v is None)
        non_null = [v for v in values if v is not None]
        finite = [
            v
            for v in non_null
            if not (isinstance(v, float) and not math.isfinite(v))
        ]
        assert has_nan == (len(finite) < len(non_null))
        if finite:
            assert mn == min(finite) and mx == max(finite)
        else:
            assert mn is None and mx is None
        decoded = decode_segment(encoded, dtype, len(values))
        if dtype is DataType.FLOAT:
            decoded = [None if v is None else float(v) for v in decoded]
            non_null = [float(v) for v in non_null]
            values = [None if v is None else float(v) for v in values]
        assert decoded == values


@st.composite
def batch_lists(draw):
    """0-4 batches sharing one random schema, some possibly empty."""
    schema = draw(schemas())
    row = st.tuples(*[_VALUES[f.dtype] for f in schema.fields])
    return [
        ColumnBatch.from_rows(schema, tuple(draw(st.lists(row, max_size=12))))
        for _ in range(draw(st.integers(0, 4)))
    ]


class TestBlockStream:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64 * 1024])
    def test_decode_is_chunk_boundary_agnostic(self, chunk_size):
        schema = Schema.of("a", "b:int", "c:float", "d:bool")
        rows = [
            (f"r{i}", i if i % 3 else None, i / 2.0, i % 2 == 0)
            for i in range(300)
        ]
        stream = block_stream(
            [
                ColumnBatch.from_rows(schema, tuple(rows[:100])),
                ColumnBatch.from_rows(schema, tuple(rows[100:])),
            ]
        )
        chunks = [
            stream[i : i + chunk_size]
            for i in range(0, len(stream), chunk_size)
        ]
        decoded = [
            row
            for batch in decode_block_stream(chunks)
            for row in batch.rows
        ]
        assert decoded == rows

    @settings(max_examples=80, deadline=None)
    @given(batches=batch_lists(), chunk_size=st.integers(1, 97))
    def test_arbitrary_batches_round_trip(self, batches, chunk_size):
        stream = block_stream(batches)
        chunks = [
            stream[i : i + chunk_size]
            for i in range(0, len(stream), chunk_size)
        ]
        decoder = BlockStreamDecoder()
        out = [b for chunk in chunks for b in decoder.push(chunk)]
        decoder.finish()
        assert [b.rows for b in out] == [b.rows for b in batches]

    def test_truncated_stream_raises(self):
        schema = Schema.of("a")
        block = block_stream([ColumnBatch.from_rows(schema, (("x",), ("y",)))])
        with pytest.raises(ValueError):
            list(decode_block_stream([block[:-1]]))

    def test_empty_batch_round_trips(self):
        schema = Schema.of("a", "b:int")
        block = block_stream([ColumnBatch(schema, [[], []], 0)])
        (batch,) = list(decode_block_stream([block]))
        assert len(batch) == 0
        assert batch.schema.to_header() == schema.to_header()
