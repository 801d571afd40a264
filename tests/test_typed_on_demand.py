"""A CSV block types only the cells its reader uses.

A regular block types the columns its filters reference and the ones
its caller reads; every other INT / FLOAT column is validated by
:func:`repro.csvscan.numeric_proof` or, where the proof does not hold,
parsed for the exact verdict.  What a caller reads must change nothing
else: not which records are kept or dropped, not the counts or the log
lines, not a byte the CSV storlet emits.  The all-typed scan -- every
column typed, as :meth:`CsvScan.blocks` does when told nothing -- is the
reference throughout.
"""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import csvscan
from repro.core import ScoopContext
from repro.core.pushdown import PushdownTask
from repro.csvscan import CsvScan, numeric_proof
from repro.gridpocket import METER_SCHEMA, DatasetSpec, MeterDataGenerator
from repro.gridpocket.queries import query_by_name
from repro.sql.catalyst import extract_pushdown
from repro.sql.filters import (
    EqualTo,
    GreaterThan,
    IsNotNull,
    LessThan,
    StringStartsWith,
    filters_to_json,
)
from repro.sql.parser import parse_query
from repro.sql.types import DataType, Schema
from repro.storlets import CsvStorlet, StorletInputStream, StorletLogger

from tests.sqlite_oracle import check_against_sqlite
from tests.test_chunk_boundaries import block_cap

# -- the proof ----------------------------------------------------------------

_TOKENS = list("0123456789") + [".", "-", "+", "e", "E", "_", " ", "inf", "nan", "٣"]
_CELLS = st.lists(
    st.lists(st.sampled_from(_TOKENS), max_size=6).map("".join), max_size=8
)


class TestNumericProof:
    @settings(max_examples=500, deadline=None)
    @given(cells=_CELLS)
    @example(cells=["1" * 5000])  # past int()'s digit limit
    @example(cells=["-", "1"])
    @example(cells=["1.", "-.5", ".5", ""])
    def test_where_the_proof_holds_every_cell_types(self, cells):
        for dtype in (DataType.INT, DataType.FLOAT):
            if numeric_proof(cells, dtype is DataType.FLOAT):
                dtype.parse_column(cells)  # must not raise

    @pytest.mark.parametrize(
        "cells", [["0.353", "12", "-1.5", "", "5.", "-.5", ".5"], ["45.4372"] * 3, [], [""]]
    )
    def test_it_holds_for_decimal_text(self, cells):
        assert numeric_proof(cells, fractional=True)

    @pytest.mark.parametrize("cells", [["8524", "-7", "", "007"], ["0"], [""]])
    def test_it_holds_for_integer_text(self, cells):
        assert numeric_proof(cells, fractional=False)

    @pytest.mark.parametrize(
        "cell", ["-", ".", "-.", "1-2", "--1", "1.2.3", "1e5", " 5", "+5", "1_0", "nan", "٣"]
    )
    def test_it_refuses_every_other_shape(self, cell):
        assert not numeric_proof(["1", cell, "2"], fractional=True)
        assert not numeric_proof(["1", cell, "2"], fractional=False)

    def test_an_int_column_refuses_a_point(self):
        assert not numeric_proof(["1.5"], fractional=False)
        assert not numeric_proof(["1" * 5000], fractional=False)
        assert numeric_proof(["1" * 5000], fractional=True)


# -- the scan: typed on demand against the all-typed scan ----------------------

SCHEMA = Schema.of("vid", "date", "index:float", "code:int", "city", "ok:bool")

_VALID = {
    DataType.STRING: ["M01", "", "Rotterdam", "Paris", "été"],
    DataType.FLOAT: ["0.353", "", "-1.5", "12", "-.5", "5."],
    DataType.INT: ["8524", "", "-7", "0"],
    DataType.BOOL: ["true", "", "0", "x"],
}
#: Numeric cells off the proof's shapes: untypable ones drop their
#: record, typable ones ("1e5" as a FLOAT, " 5", "nan", ...) are parsed.
_ODD_NUMBERS = ["x1", "1.2.3", "-", ".", "-.", "1-2", "--1", "1e5", " 5", "nan", "٣", "1_0", "+5", "inf"]


def _cell(dtype):
    valid = st.sampled_from(_VALID[dtype])
    if dtype in (DataType.INT, DataType.FLOAT):
        return st.one_of(valid, valid, valid, st.sampled_from(_ODD_NUMBERS))
    return valid


def _render(cells, shape, terminator):
    if shape == "quoted":  # keeps its block off the regular path
        text = '"' + cells[0] + '",' + ",".join(cells[1:])
    elif shape == "short":  # the wrong width
        text = ",".join(cells[:-1])
    else:
        text = ",".join(cells)
    return (text + terminator).encode("utf-8")


_RECORDS = st.builds(
    _render,
    st.tuples(*[_cell(field.dtype) for field in SCHEMA.fields]),
    st.sampled_from(["plain"] * 8 + ["quoted", "short"]),
    st.sampled_from(["\n"] * 6 + ["\r\n"]),
)
_CSV = st.lists(_RECORDS, max_size=30).map(b"".join)
_FILTERS = st.lists(
    st.sampled_from([
        GreaterThan("code", 100),
        LessThan("index", 1.0),
        StringStartsWith("city", "Rot"),
        EqualTo("city", "Rotterdam"),
        IsNotNull("vid"),
        EqualTo("ok", True),
    ]),
    max_size=2,
)
_SUBSETS = [
    subset
    for size in range(len(SCHEMA) + 1)
    for subset in itertools.combinations(range(len(SCHEMA)), size)
]


def _scan(data, filters, log):
    return CsvScan([data], SCHEMA, filters=filters, log=log.append)


def _typed(filters):
    return {SCHEMA.index_of(name) for item in filters for name in item.references()}


class TestTypedOnDemand:
    @settings(max_examples=80, deadline=None)
    @given(data=_CSV, filters=_FILTERS, cap=st.sampled_from([48, 200, csvscan.BLOCK_BYTES]))
    def test_every_subset_of_read_columns_agrees_with_the_all_typed_scan(
        self, data, filters, cap
    ):
        with block_cap(cap):
            log: list = []
            reference = _scan(data, filters, log)
            expected = list(reference.blocks())
            expected_select = [reference.select(block) for block in expected]
            for read in _SUBSETS:
                seen: list = []
                scan = _scan(data, filters, seen)
                blocks = list(scan.blocks(read))
                assert (scan.records_in, scan.dropped, seen) == (
                    reference.records_in, reference.dropped, log
                )
                assert len(blocks) == len(expected)
                wanted = set(read) | _typed(filters)
                for block, other, picked in zip(blocks, expected, expected_select):
                    assert (block.lines, block.texts, block.regular) == (
                        other.lines, other.texts, other.regular
                    )
                    for index in range(len(SCHEMA)):
                        if index in wanted or not block.regular:
                            assert repr(block.columns[index]) == repr(other.columns[index])
                        else:
                            assert block.columns[index] is None
                    assert scan.select(block) == picked
                assert scan.evaluations == reference.evaluations
                # batches(projection) reads the projection alone.
                projected = list(_scan(data, filters, []).rows(list(read)))
                assert repr(projected) == repr(
                    [tuple(row[i] for i in read) for row in _scan(data, filters, []).rows()]
                )

    @settings(max_examples=80, deadline=None)
    @given(
        data=_CSV,
        filters=_FILTERS,
        columns=st.sampled_from([None, ["vid"], ["index", "code"], ["date", "ok"]]),
    )
    def test_the_storlet_emits_what_the_all_typed_scan_would(self, data, filters, columns):
        parameters = {"schema": SCHEMA.to_header(), "filters": filters_to_json(filters)}
        if columns is not None:
            parameters["columns"] = json.dumps(columns)
        on_demand = _run_storlet(data, parameters)
        with mock.patch.object(CsvScan, "blocks", _all_typed_blocks):
            all_typed = _run_storlet(data, parameters)
        (output, metadata, lines), (want, want_metadata, want_lines) = on_demand, all_typed
        assert output == want
        assert lines == want_lines
        assert _without_column_checks(metadata) == _without_column_checks(want_metadata)
        # The storlet types no column beyond the filters'.
        typed = int(metadata.get("x-object-meta-storlet-columns-typed", 0))
        regular = int(want_metadata.get("x-object-meta-storlet-columns-typed", 0)) // len(SCHEMA)
        assert typed == regular * len(_typed(filters))


_original_blocks = CsvScan.blocks


def _all_typed_blocks(self, read=None):
    """:meth:`CsvScan.blocks` typing every column whatever it is told."""
    return _original_blocks(self)


def _run_storlet(data, parameters):
    metadata: dict = {}
    logger = StorletLogger("test")
    output = b"".join(
        CsvStorlet().process(StorletInputStream([data]), dict(parameters), logger, metadata)
    )
    return output, metadata, list(logger)


def _without_column_checks(metadata):
    return {key: value for key, value in metadata.items() if "-columns-" not in key}


class TestColumnChecks:
    SCHEMA = Schema.of("k", "x:float", "n:int")

    def _checks(self, data):
        scan = CsvScan([data], self.SCHEMA, log=lambda line: None)
        rows = list(scan.rows([0]))
        return scan, rows

    def test_unread_numbers_are_proven(self):
        scan, rows = self._checks(b"a,1.5,2\nb,-0.5,-3\n")
        assert rows == [("a",), ("b",)]
        assert scan.column_checks == {"typed": 1, "proven": 2}

    def test_a_typable_cell_off_the_proof_is_parsed(self):
        scan, rows = self._checks(b"a,1e5,2\nb,-0.5,-3\n")
        assert rows == [("a",), ("b",)]
        assert scan.column_checks == {"typed": 1, "parsed": 1, "proven": 1}

    def test_an_untypable_unread_cell_still_drops_its_record(self):
        scan, rows = self._checks(b"a,oops,2\nb,-0.5,-3\n")
        assert rows == [("b",)]
        assert (scan.records_in, scan.dropped) == (2, 1)
        assert scan.column_checks == {}  # the block went record by record


# -- end to end: the drop rule, judged by sqlite3 -------------------------------


def _corrupted_meter_lines():
    """1 800 meter records.  Among the first 600, every 7th has an
    untypable ``sumHC`` and every 11th an untypable ``code`` -- columns
    Showgraphcons never reads; among the last 600, every 5th and every
    Rotterdam record (the ones Showgraphcons reads past its needle) has
    a ``lat`` that types but is off the proof.  The middle stays
    regular."""
    lines = [
        line.decode().rstrip("\n").split(",")
        for line in MeterDataGenerator(DatasetSpec(meters=30, intervals=60)).csv_lines()
    ]
    schema = METER_SCHEMA
    sumhc, code, lat, city = (
        schema.index_of(name) for name in ("sumHC", "code", "lat", "city")
    )
    for number, fields in enumerate(lines):
        if number < 600 and number % 7 == 3:
            fields[sumhc] = "0.1.2"
        if number < 600 and number % 11 == 5:
            fields[code] = "x"
        if number >= 1200 and (number % 5 == 1 or fields[city] == "Rotterdam"):
            fields[lat] = " " + fields[lat]
    return lines


def test_a_malformed_unread_cell_drops_its_record_end_to_end():
    lines = _corrupted_meter_lines()
    data = "".join(",".join(fields) + "\n" for fields in lines).encode()
    well_formed = []
    for fields in lines:
        try:
            well_formed.append(METER_SCHEMA.parse_row(fields))
        except ValueError:
            pass
    assert 0 < len(well_formed) < len(lines)

    sql = query_by_name("Showgraphcons").sql("t")
    ctx = ScoopContext(chunk_size=4096, placement="object", skipping=False)
    ctx.upload_csv("meters", "a.csv", data)
    ctx.register_csv_table(
        "t", "meters", schema=METER_SCHEMA, format="csv", agg_pushdown=False
    )
    frame, report = ctx.run_query(sql)
    assert report.pushdown_requests > 0
    answer = frame.collect()
    assert answer
    check_against_sqlite(sql, METER_SCHEMA, well_formed, answer)

    # The storlet counts and logs the drops as the all-typed scan does.
    pushdown = extract_pushdown(parse_query(sql), METER_SCHEMA)
    parameters = PushdownTask(
        schema=METER_SCHEMA, columns=pushdown.required_columns, filters=pushdown.filters
    ).to_parameters()
    output, metadata, log = _run_storlet(data, parameters)
    with mock.patch.object(CsvScan, "blocks", _all_typed_blocks):
        want, want_metadata, want_log = _run_storlet(data, parameters)
    assert (output, log) == (want, want_log)
    assert _without_column_checks(metadata) == _without_column_checks(want_metadata)
    # A record whose bytes lack ``Rotterdam`` fails ``city = 'Rotterdam'``
    # whatever its cells: it is ruled out unread, so only the malformed
    # records that hold it are judged and dropped.
    def holds(fields):
        return "Rotterdam" in ",".join(fields)

    def malformed(fields):
        try:
            METER_SCHEMA.parse_row(fields)
        except ValueError:
            return True
        return False

    malformed_holding = sum(malformed(fields) and holds(fields) for fields in lines)
    assert 0 < malformed_holding < len(lines) - len(well_formed)
    assert metadata["x-object-meta-storlet-rows-dropped"] == str(malformed_holding)
    assert metadata["x-object-meta-storlet-rows-ruled-out"] == str(
        sum(not holds(fields) for fields in lines)
    )
    # The padded ``lat`` cells type but are off the proof: visible.
    assert int(metadata.get("x-object-meta-storlet-columns-parsed", 0)) > 0


def test_the_registry_sees_how_the_storlet_filtered_and_validated():
    lines = MeterDataGenerator(DatasetSpec(meters=30, intervals=60)).csv_lines()
    ctx = ScoopContext(chunk_size=4096, placement="object", skipping=False)
    ctx.upload_csv("meters", "a.csv", b"".join(lines))
    ctx.register_csv_table(
        "t", "meters", schema=METER_SCHEMA, format="csv", agg_pushdown=False
    )
    _frame, report = ctx.run_query(query_by_name("Showgraphcons").sql("t"))
    assert report.pushdown_requests > 0
    registry = ctx.registry
    # Both string predicates ran in the C-level pass, and every unread
    # numeric column was proven: nothing left the fast path.
    assert registry.counter_value("storlets.filter_evaluations", domain="rows_c") > 0
    assert registry.counter_value("storlets.filter_evaluations", domain="rows") == 0
    proven = registry.counter_value("storlets.csv_columns", how="proven")
    typed = registry.counter_value("storlets.csv_columns", how="typed")
    assert registry.counter_value("storlets.csv_columns", how="parsed") == 0
    # Per regular block: city and date typed, six numeric columns proven.
    assert typed > 0 and proven * 2 == typed * 6
