"""Column-major ingest against the row-at-a-time reference.

The encoder never builds a row tuple, sizes stripes from column-wise
cost vectors and hands the object catalog the stripe statistics it just
computed; ``tests/rowwise_reference.py`` does all of that one cell at a
time.  Whatever the blocking of the input, the two must agree byte for
byte: the RCF1 object (so stripe boundaries and footer statistics) and
the catalog header.
"""

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.catalog import CatalogBuilder, decode_catalog
from repro.catalog.metadata import CATALOG_HEADER, MAX_BLOOM_KEYS
from repro.columnar.layout import (
    decode_footer,
    encode_column_stream,
    encode_stream,
    iter_stripe_batches,
)
from repro.csvscan import CsvScan
from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.sql.types import DataType, Schema
from repro.storlets.api import StorletInputStream, StorletLogger
from repro.storlets.columnar_storlet import CsvToColumnarStorlet
from repro.swift.http import chunk_bytes

from tests import rowwise_reference as reference

_VALUES = {
    # Few long values (a dictionary pays) or many short ones (it does not).
    DataType.STRING: st.one_of(
        st.sampled_from(["Rotterdam", "Milan", "é漢\U0001f600"]),
        st.text(alphabet=st.sampled_from("ab,é漢\U0001f600 "), max_size=6),
    ),
    # Close together (narrow int), few and far apart (dictionary), and
    # beyond int64 on both sides: the text escape hatch.
    DataType.INT: st.one_of(
        st.integers(-5, 5),
        st.sampled_from([0, 2**40, -(2**62), 10**30]),
        st.integers(-(2**70), 2**70),
    ),
    DataType.FLOAT: st.one_of(
        st.sampled_from(
            [0.0, -0.0, 1.5, float("nan"), float("inf"), float("-inf")]
        ),
        st.floats(allow_nan=False, width=64),
    ),
    DataType.BOOL: st.booleans(),
}


@st.composite
def tables(draw):
    """``(schema, rows)``: 1-5 typed columns, each NULL-free, all-NULL
    or NULL-sprinkled."""
    types = draw(st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=5))
    schema = Schema.of(*[f"c{i}:{t.value}" for i, t in enumerate(types)])
    cells = []
    for dtype in types:
        nulls = draw(st.sampled_from(["none", "some", "all"]))
        cells.append(
            {
                "none": _VALUES[dtype],
                "some": st.one_of(st.none(), _VALUES[dtype]),
                "all": st.none(),
            }[nulls]
        )
    return schema, draw(st.lists(st.tuples(*cells), max_size=60))


def column_major(schema, rows, block_rows, stripe_rows, stripe_bytes):
    """The object and catalog header ``encode_column_stream`` produces
    from ``rows`` fed as column blocks of ``block_rows`` rows."""
    catalog = CatalogBuilder(schema)
    blocks = (
        list(zip(*rows[start : start + block_rows]))
        for start in range(0, len(rows), block_rows)
    )
    data = b"".join(
        encode_column_stream(
            schema, blocks, stripe_rows, stripe_bytes, on_stripe=catalog.add_stripe
        )
    )
    return data, catalog.to_metadata()


def row_major(schema, rows, stripe_rows, stripe_bytes):
    catalog = reference.RowwiseCatalog(schema)
    for row in rows:
        catalog.observe(row)
    data = b"".join(reference.encode_stream(schema, rows, stripe_rows, stripe_bytes))
    return data, catalog.to_metadata()


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        table=tables(),
        block_rows=st.sampled_from([1, 7, 1024]),
        stripe_rows=st.sampled_from([1, 3, 16, 4096]),
        stripe_bytes=st.one_of(st.none(), st.integers(1, 400)),
    )
    # -0.0 before 0.0: min/max keep the first among equals.
    @example(
        table=(Schema.of("a:float"), [(-0.0,), (0.0,), (0.0,), (-0.0,)]),
        block_rows=1,
        stripe_rows=2,
        stripe_bytes=None,
    )
    def test_object_footer_and_catalog_are_identical(
        self, table, block_rows, stripe_rows, stripe_bytes
    ):
        schema, rows = table
        data, metadata = column_major(
            schema, rows, block_rows, stripe_rows, stripe_bytes
        )
        want_data, want_metadata = row_major(schema, rows, stripe_rows, stripe_bytes)
        assert data == want_data
        assert decode_footer(data) == decode_footer(want_data)
        assert metadata == want_metadata
        # One encoder: the row-taking front is the same thing.
        assert b"".join(encode_stream(schema, rows, stripe_rows, stripe_bytes)) == data

    @pytest.mark.parametrize("distinct", [300, 70_000])
    def test_wide_dictionaries_across_blockings(self, distinct):
        """Past 256 distinct values codes take two bytes, past 65 536
        there is no dictionary; either way one stripe, any blocking."""
        schema = Schema.of("s", "i:int", "f:float", "n")
        rows = [
            (
                f"value-number-{i % distinct}",
                (i % distinct) << 33,
                float(i % distinct) if i else None,
                None,
            )
            for i in range(2 * distinct + 5)
        ]
        want_data, want_metadata = row_major(schema, rows, 10**6, None)
        tags = [
            want_data[segment.offset]
            for segment in decode_footer(want_data).stripes[0].columns
        ]
        assert tags == ([4, 4, 4, 2] if distinct == 300 else [2, 0, 1, 2])
        for block_rows in (999, 65_536):
            assert column_major(schema, rows, block_rows, 10**6, None) == (
                want_data, want_metadata,
            )

    @settings(max_examples=60, deadline=None)
    @given(table=tables(), stripe_bytes=st.integers(1, 400))
    def test_blocking_does_not_move_a_byte(self, table, stripe_bytes):
        schema, rows = table
        whole = column_major(schema, rows, max(1, len(rows)), 4096, stripe_bytes)
        for block_rows in (1, 7):
            assert column_major(schema, rows, block_rows, 4096, stripe_bytes) == whole

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("chunk_size", [16 * 1024, 256 * 1024])
    def test_meter_corpus_through_the_storlet(self, seed, chunk_size):
        """The benchmark's shape: CSV in, RCF1 + catalog headers out."""
        spec = DatasetSpec(meters=30, intervals=40, objects=2, seed=seed)
        for _name, csv_bytes in MeterDataGenerator(spec).csv_objects():
            metadata = {}
            data = b"".join(
                CsvToColumnarStorlet().process(
                    StorletInputStream(chunk_bytes(csv_bytes, 4096)),
                    {
                        "schema": METER_SCHEMA.to_header(),
                        "has_header": "false",
                        "stripe_bytes": str(chunk_size),
                    },
                    StorletLogger("t"),
                    metadata,
                )
            )
            rows = list(CsvScan([csv_bytes], METER_SCHEMA).rows())
            want_data, want_metadata = row_major(
                METER_SCHEMA, rows, 4096, chunk_size
            )
            assert data == want_data
            assert metadata[CATALOG_HEADER] == want_metadata[CATALOG_HEADER]
            assert metadata["x-object-meta-columnar-rows"] == str(len(rows))
            assert [r for b in iter_stripe_batches(data) for r in b.rows] == rows


class TestBloomCap:
    """Kept iff distinct canonical keys <= MAX_BLOOM_KEYS -- decided by
    the value set, never by row order or stripe boundaries."""

    SCHEMA = Schema.of("k:int", "s")

    def _documents(self, distinct):
        base = [(i % distinct, f"v{i % distinct}") for i in range(3 * distinct)]
        documents = set()
        for seed, stripe_rows in itertools.product(range(4), (1, 100, 256, 4096)):
            rows = list(base)
            random.Random(seed).shuffle(rows)
            _data, metadata = column_major(self.SCHEMA, rows, 64, stripe_rows, None)
            documents.add(metadata[CATALOG_HEADER])
        return documents

    def test_exactly_the_cap_keeps_the_bloom_in_any_order(self):
        (document,) = self._documents(MAX_BLOOM_KEYS)
        cols = json.loads(document)["cols"]
        assert "bloom" in cols["k"] and "bloom" in cols["s"]
        catalog = decode_catalog({CATALOG_HEADER: document})
        assert all(
            catalog.columns["k"].bloom.may_contain(i) for i in range(MAX_BLOOM_KEYS)
        )

    def test_one_past_the_cap_never_has_a_bloom(self):
        (document,) = self._documents(MAX_BLOOM_KEYS + 1)
        cols = json.loads(document)["cols"]
        assert "bloom" not in cols["k"] and "bloom" not in cols["s"]
        assert cols["k"]["min"] == 0 and cols["k"]["max"] == MAX_BLOOM_KEYS

    def test_equal_numbers_are_one_key(self):
        """1, 1.0 and True are one canonical key; 0.0 and -0.0 too."""
        schema = Schema.of("a:float")
        rows = [(float(i),) for i in range(MAX_BLOOM_KEYS)] + [(-0.0,), (1,), (True,)]
        _data, metadata = column_major(schema, rows, 50, 97, None)
        assert "bloom" in json.loads(metadata[CATALOG_HEADER])["cols"]["a"]
