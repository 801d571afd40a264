"""Column-major ingest against the row-at-a-time reference.

The encoder never builds a row tuple, sizes stripes from column-wise
cost vectors and hands the object catalog the stripe statistics it just
computed; ``tests/rowwise_reference.py`` does all of that one cell at a
time.  Whatever the blocking of the input, the two must agree byte for
byte: the RCF1 object (so stripe boundaries and footer statistics) and
the catalog header -- also from CSV text, where the converter's encoder
types a column's distinct texts and the reference every cell.
"""

import csv
import hashlib
import io
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.catalog import CatalogBuilder, decode_catalog
from repro.catalog.metadata import CATALOG_HEADER, MAX_BLOOM_KEYS
from repro.columnar.layout import (
    _block_cost,
    _row_costs,
    decode_footer,
    encode_column_stream,
    encode_stream,
    iter_stripe_batches,
)
from repro.columnar.stats import BloomFilter, canonical_bloom_key
from repro.core import ScoopContext
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
                (i % distinct) / 7 if i else None,
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


class TestStripeCosts:
    """Stripes are cut from per-block cost sums, expanded to per-row
    costs only where a cut falls: the sum must be the expansion's."""

    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    def test_a_block_sum_is_its_row_costs_summed(self, table):
        schema, rows = table
        if not rows:
            return
        typed = list(zip(*rows))
        texts = [
            [fld.dtype.render(value) for value in column]
            for fld, column in zip(schema.fields, typed)
        ]
        assert _block_cost(schema, typed) == sum(_row_costs(schema, typed))
        assert _block_cost(schema, texts, "") == sum(_row_costs(schema, texts, ""))


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

    @pytest.mark.parametrize(
        "count,stripe_rows", [(300, 100), (600, 600)], ids=["300", "600"]
    )
    def test_past_the_cap_huge_ints_keep_their_bloom_by_key_count(
        self, count, stripe_rows
    ):
        """Distinct ints near 2**60 share a few float images: more
        values than the cap, few keys -- the bloom stays, as the
        reference keeps it.  A 600-row stripe is long enough for the
        prefix rule, whose prefix is not provably injective."""
        schema = Schema.of("k:int")
        rows = [(2**60 + k,) for k in range(count)]
        _data, metadata = column_major(schema, rows, 64, stripe_rows, None)
        assert metadata == row_major(schema, rows, stripe_rows, None)[1]
        assert "bloom" in json.loads(metadata[CATALOG_HEADER])["cols"]["k"]

    def test_a_long_run_of_distinct_floats_drops_the_bloom_from_its_prefix(self):
        """More than 2 * cap distinct floats in one stripe: the prefix
        alone shows more than the cap, and the bloom is off, as the
        reference drops it."""
        schema = Schema.of("x:float", "k:int")
        rows = [(i / 7, i % 3) for i in range(2 * MAX_BLOOM_KEYS + 100)]
        _data, metadata = column_major(schema, rows, 64, len(rows), None)
        assert metadata == row_major(schema, rows, len(rows), None)[1]
        cols = json.loads(metadata[CATALOG_HEADER])["cols"]
        assert "bloom" not in cols["x"] and "bloom" in cols["k"]


class TestBloomFormat:
    """The catalog's bloom bits, computed here with ``hashlib`` alone:
    a key's ``8 * hashes``-byte blake2b digest, read as 8-byte
    big-endian words, sets bit ``word % bits`` for each word."""

    @staticmethod
    def _hex(keys, bits=1024, hashes=4):
        payload = 0
        for key in keys:
            digest = hashlib.blake2b(key, digest_size=8 * hashes).digest()
            for index in range(hashes):
                word = digest[8 * index : 8 * index + 8]
                payload |= 1 << (int.from_bytes(word, "big") % bits)
        return format(payload, f"0{bits // 4}x")

    @pytest.mark.parametrize(
        "values",
        [
            ["Rotterdam", "é漢\U0001f600", ""],
            [0, -7, 2**53, 2**80],
            [0.5, -0.0, 1e300],
            [True, False],
        ],
    )
    def test_bits_are_blake2b_of_index_byte_and_key(self, values):
        keys = [canonical_bloom_key(value) for value in values]
        for bits, hashes in ((1024, 4), (64, 3), (100, 8)):
            bloom = BloomFilter.of_keys(keys, bits=bits, hashes=hashes)
            assert bloom.to_hex() == self._hex(keys, bits, hashes)
            assert all(bloom.may_contain(value) for value in values)

    def test_one_digest_bounds_the_hash_count(self):
        with pytest.raises(ValueError):
            BloomFilter(hashes=9)

    def test_catalog_document_carries_those_bits(self):
        schema = Schema.of("s", "n:float")
        rows = [("b", 1.5), ("a", 1.5), ("b", None)]
        _data, metadata = column_major(schema, rows, 2, 4096, None)
        cols = json.loads(metadata[CATALOG_HEADER])["cols"]
        assert cols["s"]["bloom"] == self._hex([b"sa", b"sb"])
        assert cols["n"]["bloom"] == self._hex([b"n1.5"])


#: How each dtype may be spelled in CSV: one value several ways, NULL as
#: an empty field.  Any text is a BOOL.
_SPELLINGS = {
    DataType.INT: ["-0", "0", "007", "7", "+7", "1_000", " 3", "-12", "9" * 20, ""],
    DataType.FLOAT: [
        "1.0", "1.00", "1.", "1", "1e0", "-0.0", "0.0", "0", "2.5", "nan", "NaN",
        "-nan", "inf", "-inf", "1e400", "",
    ],
    DataType.BOOL: ["TRUE", "true", "t", "yes", "1", "0", "false", "no", " T", ""],
    DataType.STRING: ["Rotterdam", "é漢", "a b", "x", "", 'say "hi"', "a,b"],
}
#: A cell that no INT, FLOAT (or, for width, any) record survives.
_UNTYPABLE = {DataType.INT: "1.5", DataType.FLOAT: "1,5", DataType.BOOL: "", DataType.STRING: ""}


def _render(fields):
    """One CSV record, fields quoted only where they must be."""
    return ",".join(
        '"' + field.replace('"', '""') + '"' if "," in field or '"' in field else field
        for field in fields
    )


@st.composite
def spelled_csv(draw):
    """``(schema, csv text)``: 1-4 columns, records of spellings drawn
    per column, and now and then a record the drop rule removes."""
    types = draw(st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=4))
    schema = Schema.of(*[f"c{i}:{t.value}" for i, t in enumerate(types)])
    columns = [
        st.sampled_from(draw(st.lists(st.sampled_from(_SPELLINGS[t]), min_size=1, max_size=6)))
        for t in types
    ]
    records = [
        _render(fields)
        for fields in draw(st.lists(st.tuples(*columns), max_size=300))
    ]
    for _ in range(draw(st.integers(0, 2))):
        bad = [_SPELLINGS[t][0] for t in types]
        column = draw(st.integers(0, len(types)))
        if column == len(types):
            bad.append("extra")  # wrong width
        elif types[column] in (DataType.INT, DataType.FLOAT):
            bad[column] = _UNTYPABLE[types[column]]
        records.insert(draw(st.integers(0, len(records))), _render(bad))
    return schema, "".join(record + "\n" for record in records)


def _typed_rows(schema, text):
    """The drop rule, record by record, with the stdlib's reader (a
    blank line is one empty field, not none)."""
    rows = []
    for fields in csv.reader(io.StringIO(text)):
        try:
            rows.append(schema.parse_row(fields or [""]))
        except ValueError:
            pass
    return rows


class TestTextSpellings:
    """The converter types a column's distinct texts and merges texts of
    one value; the row-wise reference types every cell.  Same bytes."""

    @settings(max_examples=200, deadline=None)
    @given(
        table=spelled_csv(),
        chunk_size=st.sampled_from([1024, 4096, 65536]),
        stripe_rows=st.sampled_from([1, 3, 16, 4096]),
        # Up to a few 1 KiB blocks' worth of row cost per stripe.
        stripe_bytes=st.one_of(st.none(), st.integers(1, 5000)),
    )
    def test_storlet_output_equals_the_rowwise_reference(
        self, table, chunk_size, stripe_rows, stripe_bytes
    ):
        schema, text = table
        data = text.encode("utf-8")
        parameters = {"schema": schema.to_header(), "stripe_rows": str(stripe_rows)}
        if stripe_bytes is not None:
            parameters["stripe_bytes"] = str(stripe_bytes)
        metadata = {}
        body = b"".join(
            CsvToColumnarStorlet().process(
                StorletInputStream(chunk_bytes(data, chunk_size)),
                parameters,
                StorletLogger("t"),
                metadata,
            )
        )
        rows = _typed_rows(schema, text)
        want_data, want_metadata = row_major(schema, rows, stripe_rows, stripe_bytes)
        assert body == want_data
        assert metadata[CATALOG_HEADER] == want_metadata[CATALOG_HEADER]
        assert metadata["x-object-meta-columnar-rows"] == str(len(rows))

    def test_one_value_spelled_many_ways_is_one_dictionary_entry(self):
        schema = Schema.of("i:int", "f:float", "b:bool")
        text = "".join(
            f"{i},{f},{b}\n"
            for i, f, b in zip(
                ["-0", "0", "007", "+1099511627776"] * 50,
                ["1.0", "1.00", "1.", "-0.0"] * 50,
                ["TRUE", "t", "yes", "0"] * 50,
            )
        )
        out = b"".join(
            CsvToColumnarStorlet().process(
                StorletInputStream([text.encode()]),
                {"schema": schema.to_header()},
                StorletLogger("t"),
                {},
            )
        )
        stripe = decode_footer(out).stripes[0]
        (batch,) = iter_stripe_batches(out)
        assert [out[segment.offset] for segment in stripe.columns] == [4, 4, 3]
        assert batch.columns[0].entries == [0, 7, 2**40]
        assert [str(v) for v in batch.columns[1].entries] == ["1.0", "-0.0"]
        assert str(stripe.columns[1].min_value) == "-0.0"
        assert list(batch.rows)[:4] == [
            (0, 1.0, True), (0, 1.0, True), (7, 1.0, True), (2**40, -0.0, False)
        ]


class TestConverterCounts:
    """The converter publishes how its scan validated each block column,
    as the CSV storlet does: a failed numeric proof shows."""

    SCHEMA = Schema.of("k", "n:int", "x:float")

    def _convert(self, text):
        out = {}
        b"".join(
            CsvToColumnarStorlet().process(
                StorletInputStream([text]),
                {"schema": self.SCHEMA.to_header()},
                StorletLogger("t"),
                out,
            )
        )
        return {
            key.rpartition("-")[2]: int(value)
            for key, value in out.items()
            if key.startswith("x-object-meta-storlet-csv-columns-")
        }

    def test_proven_columns_are_counted_and_a_failed_proof_is_parsed(self):
        assert self._convert(b"a,1,2.5\nb,2,3\n") == {"proven": 2}
        assert self._convert(b"a,1,2.5e0\nb,2,3\n") == {"proven": 1, "parsed": 1}

    def test_the_registry_and_the_stored_object_carry_them(self):
        ctx = ScoopContext()
        ctx.upload_csv("c", "a.csv", "a,1,2.5\nb,2,1e3\n")
        (name,) = ctx.convert_csv_to_columnar("c", "rcf", self.SCHEMA)
        headers = ctx.client.head_object("rcf", name)
        assert headers["x-object-meta-storlet-csv-columns-proven"] == "1"
        assert headers["x-object-meta-storlet-csv-columns-parsed"] == "1"
        registry = ctx.registry
        assert registry.counter_value("storlets.csv_columns", how="proven") == 1
        assert registry.counter_value("storlets.csv_columns", how="parsed") == 1
