"""Tests for the CSV pushdown storlet: projection, selection, byte
ranges and the critical coverage invariant: the storlet outputs of an
object's planned splits make up the whole-object output."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import (
    EqualTo,
    GreaterThan,
    Schema,
    StringStartsWith,
    filters_to_json,
)
from repro.connector.split_planner import plan_split_starts
from repro.storlets import CsvStorlet, StorletException
from repro.csvscan import CsvScan, owned_records
from tests.storlet_harness import run_storlet

SCHEMA = Schema.of("vid", "date", "index:float", "city")


def invoke(data: bytes, parameters: dict, chunk_size: int = 37) -> bytes:
    """Run the storlet over data split into awkward chunk sizes."""
    return run_storlet(
        CsvStorlet(),
        data,
        {"schema": SCHEMA.to_header(), **parameters},
        chunk_size=chunk_size,
    ).body


SAMPLE = (
    b"m1,2015-01-01,10.5,Rotterdam\n"
    b"m2,2015-01-02,3.25,Paris\n"
    b"m3,2015-02-01,99.0,Rotterdam\n"
    b"m4,2015-02-02,1.0,Berlin\n"
)


class TestProjectionSelection:
    def test_no_parameters_passthrough(self):
        assert invoke(SAMPLE, {}) == SAMPLE

    def test_projection_keeps_schema_order(self):
        result = invoke(SAMPLE, {"columns": json.dumps(["city", "vid"])})
        assert result.splitlines()[0] == b"m1,Rotterdam"

    def test_selection_equal(self):
        filters = filters_to_json([EqualTo("city", "Rotterdam")])
        result = invoke(SAMPLE, {"filters": filters})
        assert result.count(b"\n") == 2
        assert b"Paris" not in result

    def test_selection_numeric(self):
        filters = filters_to_json([GreaterThan("index", 5.0)])
        result = invoke(SAMPLE, {"filters": filters})
        assert result.splitlines() == [
            b"m1,2015-01-01,10.5,Rotterdam",
            b"m3,2015-02-01,99.0,Rotterdam",
        ]

    def test_selection_and_projection_combined(self):
        result = invoke(
            SAMPLE,
            {
                "columns": json.dumps(["vid", "index"]),
                "filters": filters_to_json(
                    [StringStartsWith("date", "2015-01")]
                ),
            },
        )
        assert result.splitlines() == [b"m1,10.5", b"m2,3.25"]

    def test_rows_metadata_reported(self):
        out = run_storlet(
            CsvStorlet(),
            SAMPLE,
            {
                "schema": SCHEMA.to_header(),
                "filters": filters_to_json([EqualTo("city", "Paris")]),
            },
        )
        assert out.metadata["x-object-meta-storlet-rows-in"] == "4"
        assert out.metadata["x-object-meta-storlet-rows-out"] == "1"

    def test_missing_schema_raises(self):
        with pytest.raises(StorletException):
            run_storlet(CsvStorlet(), SAMPLE, {})

    def test_malformed_rows_dropped(self):
        data = SAMPLE + b"broken,row\n" + b"m9,2015-03-01,2.0,Lyon\n"
        result = invoke(data, {"columns": json.dumps(["vid"])})
        assert b"broken" not in result
        assert b"m9" in result

    def test_untypable_rows_dropped_when_filtering(self):
        data = b"m1,2015-01-01,notanumber,Rotterdam\n" + SAMPLE
        filters = filters_to_json([GreaterThan("index", 0.0)])
        result = invoke(data, {"filters": filters})
        assert result.count(b"\n") == 4

    def test_untypable_rows_dropped_without_filter_and_counted(self):
        # The drop rule does not depend on a filter being present, and
        # the storlet publishes how many records it cost.
        data = b"m1,2015-01-01,notanumber,Rotterdam\nbroken,row\n" + SAMPLE
        out = run_storlet(
            CsvStorlet(),
            data,
            {"schema": SCHEMA.to_header(), "columns": json.dumps(["vid"])},
        )
        assert out.body == b"m1\nm2\nm3\nm4\n"
        assert out.metadata["x-object-meta-storlet-rows-in"] == "6"
        assert out.metadata["x-object-meta-storlet-rows-out"] == "4"
        assert out.metadata["x-object-meta-storlet-rows-dropped"] == "2"

    def test_quoted_fields_parsed(self):
        data = b'm1,2015-01-01,1.0,"Rotter,dam"\n'
        filters = filters_to_json([EqualTo("city", "Rotter,dam")])
        result = invoke(data, {"filters": filters})
        assert result.count(b"\n") == 1
        # Output re-quotes the field containing the delimiter.
        assert b'"Rotter,dam"' in result

    def test_multi_character_delimiter(self):
        # A delimiter longer than one character may straddle where the
        # block path joins records; such input is read record by record.
        data = b"m1||2015-01-01||1.0||x|\nm2||2015-01-02||2.0||y\n"
        result = invoke(
            data, {"delimiter": "||", "columns": json.dumps(["vid", "city"])}
        )
        assert result == b"m1||x|\nm2||y\n"

    def test_final_line_without_newline_processed(self):
        data = SAMPLE + b"m5,2015-03-01,7.0,Nice"  # no trailing newline
        result = invoke(data, {"columns": json.dumps(["vid"])})
        assert b"m5" in result


class TestHeaderHandling:
    HEADERED = b"vid,date,index,city\n" + SAMPLE

    def test_header_skipped_on_first_range(self):
        result = invoke(self.HEADERED, {"has_header": "true"})
        assert result == SAMPLE

    def test_header_emitted_when_requested(self):
        result = invoke(
            self.HEADERED,
            {
                "has_header": "true",
                "emit_header": "true",
                "columns": json.dumps(["vid", "city"]),
            },
        )
        lines = result.splitlines()
        assert lines[0] == b"vid,city"
        assert lines[1] == b"m1,Rotterdam"

    def test_header_not_skipped_on_later_ranges(self):
        # range_start > 0: the range starts at a later record, which is
        # data, not the header.
        start = SAMPLE.index(b"m2")
        result = invoke(
            SAMPLE[start:], {"has_header": "true", "range_start": str(start)}
        )
        assert result == SAMPLE[start:]


def planned_ranges(data: bytes, chunk_size: int):
    """``(start, end)`` (end exclusive) of every split discovery plans
    for ``data`` at ``chunk_size``."""
    starts = plan_split_starts(data, chunk_size)
    return list(zip(starts, starts[1:] + [len(data)]))


def invoke_range(data: bytes, start: int, end: int, parameters=None) -> bytes:
    """The storlet over bytes ``[start, end)``, as the middleware hands
    them over for ``X-Storlet-Range: bytes=start-(end - 1)``."""
    return invoke(data[start:end], {**(parameters or {}), "range_start": str(start)})


class TestRangeSemantics:
    """A chunk grid point becomes a range at discovery, at the first
    record start at or after it; the storlet then frames exactly the
    bytes of its range."""

    def test_range_skips_partial_first_record(self):
        # Grid point 3 lands inside m1: its range starts at m2.
        start, end = planned_ranges(SAMPLE, 3)[1]
        assert start == SAMPLE.index(b"m2")
        assert invoke_range(SAMPLE, start, end).splitlines() == [
            b"m2,2015-01-02,3.25,Paris"
        ]

    def test_range_zero_keeps_first_record(self):
        # Grid point 5 lands inside m1, which starts at offset 0: the
        # first range holds m1 whole.
        start, end = planned_ranges(SAMPLE, 5)[0]
        assert invoke_range(SAMPLE, start, end).splitlines() == [
            b"m1,2015-01-01,10.5,Rotterdam"
        ]

    def test_record_straddling_range_end_completed(self):
        first_len = len(b"m1,2015-01-01,10.5,Rotterdam\n")
        # Grid point inside record 2: record 2 starts before it, so the
        # first range runs through record 2's end.
        start, end = planned_ranges(SAMPLE, first_len + 3)[0]
        assert invoke_range(SAMPLE, start, end).splitlines() == [
            b"m1,2015-01-01,10.5,Rotterdam",
            b"m2,2015-01-02,3.25,Paris",
        ]

    def test_empty_range_in_middle_of_record_yields_nothing(self):
        # Grid points 2, 4, ... 28 all land inside m1: they merge onto
        # m2's start, so no range starts in the middle of a record.
        starts = [start for start, _end in planned_ranges(SAMPLE, 2)]
        assert starts[:2] == [0, SAMPLE.index(b"m2")]
        # A grid point inside the last record adds no range at all.
        assert planned_ranges(SAMPLE, len(SAMPLE) - 3) == [(0, len(SAMPLE))]


QUOTED = (
    b'm1,2015-01-01,10.5,"Rotter\ndam"\n'
    b"m2,2015-01-02,3.25,Paris\n"
    b'm3,2015-02-01,99.0,"Ber\nlin,City"\n'
    b"m4,2015-02-02,1.0,Nice\n"
)


class TestQuotedNewlines:
    """RFC 4180 framing: a newline inside a quoted field must not
    terminate the record (the original framing split on raw b"\\n" and
    sheared quoted records in half)."""

    def test_embedded_newline_is_one_record(self):
        # Passthrough must reproduce the input byte-for-byte: 4 records,
        # not 6 "lines".
        assert invoke(QUOTED, {}) == QUOTED

    def test_rows_in_counts_records_not_newlines(self):
        out = run_storlet(
            CsvStorlet(), QUOTED, {"schema": SCHEMA.to_header()}
        )
        assert out.metadata["x-object-meta-storlet-rows-in"] == "4"
        assert out.metadata["x-object-meta-storlet-rows-out"] == "4"

    def test_filter_matches_multiline_field(self):
        filters = filters_to_json([EqualTo("city", "Rotter\ndam")])
        result = invoke(QUOTED, {"filters": filters})
        assert result == b'm1,2015-01-01,10.5,"Rotter\ndam"\n'

    def test_projection_requotes_multiline_field(self):
        result = invoke(QUOTED, {"columns": json.dumps(["vid", "city"])})
        # The projected multiline field is re-quoted, so re-framing the
        # output yields the same 4 records.
        reparsed = list(
            owned_records([result])
        )
        assert len(reparsed) == 4
        assert reparsed[0] == b'm1,"Rotter\ndam"'
        assert reparsed[2] == b'm3,"Ber\nlin,City"'

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 8, 13])
    def test_quote_state_carries_across_chunk_refills(self, chunk_size):
        # Tiny chunks force buffer refills inside quoted fields; the
        # scanner's (scan_pos, in_quotes) state must survive them.
        assert invoke(QUOTED, {}, chunk_size=chunk_size) == QUOTED

    def test_escaped_quotes_toggle_parity_twice(self):
        data = b'm1,2015-01-01,1.0,"say ""hi""\nok"\n'
        assert invoke(data, {}) == data
        filters = filters_to_json([EqualTo("city", 'say "hi"\nok')])
        assert invoke(data, {"filters": filters}) == data

    def test_range_end_inside_multiline_record_completes_it(self):
        # The grid point follows m3's quoted newline: quote-aware, it
        # slides to m4, so the first range holds m3 whole -- including
        # the part of its quoted field past the grid point.
        point = QUOTED.index(b"lin,City")
        assert QUOTED[point - 1 : point] == b"\n"
        (start, end), following = planned_ranges(QUOTED, point)
        assert following == (QUOTED.index(b"m4"), len(QUOTED))
        assert invoke_range(QUOTED, start, end) == QUOTED[: QUOTED.index(b"m4")]


class TestQuotedNewlinePushdownIdentity:
    """Acceptance: pushdown and compute-side scans return identical rows
    on data with quoted embedded newlines."""

    QSCHEMA = Schema.of("vid", "date", "index:float", "city")

    @pytest.fixture
    def quoted_scoop(self):
        from repro.core import ScoopContext

        context = ScoopContext(
            storage_node_count=2,
            disks_per_node=1,
            proxy_count=1,
            replica_count=1,
            num_workers=2,
            # Several splits per object: grid points land inside quoted
            # fields, and discovery moves each to the next record start.
            chunk_size=128,
        )
        for part in range(4):
            rows = []
            for offset in range(10):
                i = part * 10 + offset
                if i % 3 == 0:
                    city = f'"city\n{i},north"'
                elif i % 3 == 1:
                    city = f'"say ""hi""\n{i}"'
                else:
                    city = "Paris"
                rows.append(
                    f"m{i:03d},2015-01-{(i % 28) + 1:02d},{i}.5,{city}\n"
                )
            context.upload_csv(
                "quoted", f"part-{part}.csv", "".join(rows)
            )
        context.register_csv_table(
            "qpush", "quoted", schema=self.QSCHEMA, pushdown=True
        )
        context.register_csv_table(
            "qplain", "quoted", schema=self.QSCHEMA, pushdown=False
        )
        return context

    def test_rows_identical_with_filter_and_projection(self, quoted_scoop):
        frame_push, report_push = quoted_scoop.run_query(
            "SELECT vid, city FROM qpush WHERE index > 10"
        )
        frame_plain, _report = quoted_scoop.run_query(
            "SELECT vid, city FROM qplain WHERE index > 10"
        )
        push_rows = frame_push.collect()
        plain_rows = frame_plain.collect()
        assert push_rows == plain_rows
        assert len(push_rows) == 30  # index 10.5..39.5 -> rows 10..39
        # The data actually exercised the quote-aware path.
        assert any("\n" in city for _vid, city in push_rows)
        assert report_push.pushdown_requests > 0

    def test_full_scan_identical(self, quoted_scoop):
        push = quoted_scoop.sql("SELECT * FROM qpush").collect()
        plain = quoted_scoop.sql("SELECT * FROM qplain").collect()
        assert push == plain
        assert len(push) == 40


COVERAGE_SCHEMA = Schema.of("vid:int", "note", "city")

#: Note texts: quoted newlines and delimiters, ``""`` escapes, CRLF
#: inside quotes, non-ASCII.
NOTES = st.text(alphabet=st.sampled_from(list('ab,"\n\r\u00e9')), max_size=10)


@st.composite
def csv_objects(draw):
    """``(object, has_header, chunk_size)``: a CSV object with quoted
    newlines, ``""`` escapes, CRLF or LF terminators, records longer
    than the chunk, an optional header and an optional last record
    whose quote never closes."""
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    has_header = draw(st.booleans())
    lines = ["vid,note,city"] if has_header else []
    for vid in range(draw(st.integers(0, 16))):
        note = draw(NOTES) + "x" * draw(st.sampled_from([0, 0, 90]))
        if any(byte in note for byte in ',"\n\r'):
            note = '"' + note.replace('"', '""') + '"'
        lines.append(f"{vid},{note},{draw(st.sampled_from(['Paris', 'Lyon']))}")
    text = "".join(line + terminator for line in lines)
    if draw(st.booleans()):
        text += '99,"never closed' + draw(NOTES).replace('"', "")
    return text.encode("utf-8"), has_header, draw(st.integers(1, 64))


class TestCoverageProperty:
    """The invariant the whole pushdown correctness rests on: the
    planner tiles an object record by record, and concatenating what
    every reader makes of each planned split -- the storlet's output,
    the typed scan, the raw records -- reproduces exactly what it makes
    of the whole object."""

    @settings(max_examples=150, deadline=None)
    @given(
        drawn=csv_objects(),
        use_filter=st.booleans(),
        use_columns=st.booleans(),
    )
    def test_union_of_ranges_equals_full_scan(self, drawn, use_filter, use_columns):
        data, has_header, chunk_size = drawn
        starts = plan_split_starts(data, chunk_size)
        # The planner's invariants: ascending starts, each 0 or right
        # after a newline outside quotes, together tiling the object.
        assert starts[0] == 0
        assert starts == sorted(set(starts))
        assert all(start < len(data) or start == 0 for start in starts)
        for start in starts[1:]:
            assert data[start - 1 : start] == b"\n"
            assert data.count(b'"', 0, start) % 2 == 0

        parameters = {
            "schema": COVERAGE_SCHEMA.to_header(),
            "has_header": str(has_header).lower(),
            "emit_header": "true",
        }
        if use_filter:
            parameters["filters"] = filters_to_json([EqualTo("city", "Paris")])
        if use_columns:
            parameters["columns"] = json.dumps(["vid", "note"])

        def scan(stream, first):
            return list(
                CsvScan(
                    [stream], COVERAGE_SCHEMA, skip_header=has_header and first
                ).rows()
            )

        pieces, rows, records = [], [], []
        for start, end in planned_ranges(data, chunk_size):
            piece = data[start:end]
            pieces.append(invoke_range(data, start, end, parameters))
            rows += scan(piece, start == 0)
            records += owned_records([piece])
        whole = b"".join(pieces)
        assert whole == invoke(data, dict(parameters))
        assert rows == scan(data, True)
        assert records == list(owned_records([data]))
        # What the storlet ships frames back, on the compute side, to
        # the rows a plain read filters and projects.
        kept = [row for row in rows if not use_filter or row[2] == "Paris"]
        names = ["vid", "note"] if use_columns else COVERAGE_SCHEMA.names
        shipped = CsvScan([whole], COVERAGE_SCHEMA.select(names), skip_header=has_header)
        assert list(shipped.rows()) == [row[: len(names)] for row in kept]

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(max_size=400), chunk_size=st.integers(1, 64))
    def test_owned_lines_never_crashes_on_garbage(self, data, chunk_size):
        records = []
        for start, end in planned_ranges(data, chunk_size):
            records += owned_records([data[start:end]])
        assert records == list(owned_records([data] if data else []))
