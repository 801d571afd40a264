"""A CSV block is one chunk, proven regular by its delimiter skeleton.

:func:`repro.csvscan.uniform_width` decides record widths from the bytes
a block keeps once everything but the delimiter and ``\\n`` is deleted;
it must say exactly what counting the delimiter record by record says.
A block holds every complete record one chunk buffered, so the unit of
work is the store's chunk, and a LIMIT still stops within a chunk of
where it stopped with quarter-chunk blocks.
"""

from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scoop import ScoopContext
from repro.csvscan import CsvScan, uniform_width
from repro.gridpocket import METER_SCHEMA, DatasetSpec, MeterDataGenerator
from repro.sql.types import Schema
from repro.swift.http import DEFAULT_CHUNK_SIZE

ASCII_DELIMITERS = [",", ";", "\t", "|"]
#: Two non-ASCII delimiters: the scan falls back to counting characters.
OTHER_DELIMITERS = ["¦", "€"]
#: Cell characters: ASCII, two- to four-byte UTF-8 (none of whose bytes
#: is ASCII), and every delimiter, so a cell can carry an extra one.
CELL_TEXT = st.text(
    alphabet=st.sampled_from(list("ab 7.") + ["é", "ĭ", "€", "😀"] + ASCII_DELIMITERS + OTHER_DELIMITERS),
    max_size=4,
)


def per_record_verdict(text, delimiter, width):
    """The reference: every record holds ``width - 1`` delimiters."""
    return set(map(str.count, text.split("\n"), repeat(delimiter))) == {width - 1}


@st.composite
def records(draw, delimiter):
    """Records of ``width`` fields, some with a field too many or too
    few -- often in pairs that cancel, so the block's total delimiter
    count is that of a regular block."""
    width = draw(st.integers(1, 4))
    count = draw(st.integers(1, 12))
    deltas = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=count, max_size=count))
    if draw(st.booleans()):
        deltas[-1] -= sum(deltas[:-1])  # extra and missing ones cancel
    lines = []
    for delta in deltas:
        fields = draw(st.lists(CELL_TEXT, min_size=max(width + delta, 0), max_size=max(width + delta, 0)))
        # A cell may hold a delimiter of its own: one more field.
        lines.append(delimiter.join(fields))
    return width, lines


class TestTheSkeletonCountsWhatStrCountCounts:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), delimiter=st.sampled_from(ASCII_DELIMITERS))
    def test_uniform_width_is_the_per_record_count(self, data, delimiter):
        width, lines = data.draw(records(delimiter))
        text = "\n".join(lines)
        assert uniform_width(text.encode("utf-8"), delimiter.encode(), width) == (
            per_record_verdict(text, delimiter, width)
        )

    @pytest.mark.parametrize(
        "data, width",
        [
            (b"a,b,c\n", 2),  # one too many, then one too few
            (b",\n,,,\n,", 3),
            (b"a\n\n", 1),  # empty records of a one-column schema
            (b"\xc3\xa9,\xe2\x82\xac", 2),  # multi-byte cells
        ],
    )
    def test_the_total_count_is_not_enough(self, data, width):
        assert uniform_width(data, b",", width) == per_record_verdict(data.decode(), ",", width)
        assert uniform_width(data, b",", width) == (data in (b"a\n\n", b"\xc3\xa9,\xe2\x82\xac"))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), delimiter=st.sampled_from(ASCII_DELIMITERS + OTHER_DELIMITERS))
    def test_a_block_is_regular_iff_every_record_has_the_width(self, data, delimiter):
        width, lines = data.draw(records(delimiter))
        schema = Schema.of(*[f"c{index}" for index in range(width)])
        text = "\n".join(lines)
        data = (text + "\n").encode("utf-8")
        scan = CsvScan([data], schema, delimiter)
        blocks = list(scan.blocks())
        assert len(blocks) == 1
        assert blocks[0].regular == per_record_verdict(text, delimiter, width)
        kept = [line for line in lines if line.count(delimiter) == width - 1]
        assert list(blocks[0].lines) == kept
        assert (scan.records_in, scan.dropped) == (len(lines), len(lines) - len(kept))
        rows = list(CsvScan([data], schema, delimiter).rows())
        assert rows == [schema.parse_row(line.split(delimiter)) for line in kept]


def meter_corpus():
    return b"".join(MeterDataGenerator(DatasetSpec(meters=40, intervals=400)).csv_lines())


def test_a_plain_split_reads_one_regular_block_per_chunk():
    ctx = ScoopContext(chunk_size=256 * 1024, skipping=False)
    ctx.upload_csv("m", "a.csv", meter_corpus())
    splits = ctx.connector.discover_partitions("m", record_aligned=True)
    assert len(splits) > 1
    for split in splits:
        _headers, stream = ctx.connector.open_split_stream(split, task=None)
        chunks = []
        scan = CsvScan(
            (chunks.append(chunk) or chunk for chunk in stream),
            METER_SCHEMA,
        )
        regular = sum(block.regular for block in scan.blocks())
        assert max(map(len, chunks)) == DEFAULT_CHUNK_SIZE
        assert 0 < regular <= len(chunks) + 1, (regular, len(chunks))


#: ``bytes_transferred`` of the two LIMIT 5 queries below when a block
#: was capped at a quarter chunk.  A block of a whole chunk may cost at
#: most one chunk more before the LIMIT stops the scan.
QUARTER_CHUNK_LIMIT_BYTES = {"plain": 65_536, "pushdown": 66_266}


def test_a_limit_stops_within_a_chunk_of_where_it_did():
    # Serial: concurrent tasks read past a satisfied LIMIT by however
    # far the other splits got.
    ctx = ScoopContext(skipping=False, parallelism=1)
    ctx.upload_csv("m", "a.csv", meter_corpus())
    for table, pushdown in (("plain", False), ("pushdown", True)):
        ctx.register_csv_table(
            table, "m", schema=METER_SCHEMA, format="csv", pushdown=pushdown, agg_pushdown=False
        )
        frame, report = ctx.run_query(f"SELECT vid, index FROM {table} LIMIT 5")
        assert len(frame.collect()) == 5
        assert (report.pushdown_requests > 0) == pushdown
        assert report.bytes_transferred <= QUARTER_CHUNK_LIMIT_BYTES[table] + DEFAULT_CHUNK_SIZE
