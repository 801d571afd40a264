"""Filter before you split: a conjunct's string literal narrows a block.

A conjunct that needs a literal in a STRING cell -- ``EqualTo``,
``StringStartsWith`` / ``EndsWith`` / ``Contains``, a ``LikePattern``'s
longest literal run -- gives :class:`repro.csvscan.CsvScan` a needle,
and a quote-free block is cut to the records whose bytes hold it before
anything is split or typed.  The rows must be exactly those of a
whole-buffer reference judged one row at a time; only the counts move:
``records_in`` still counts every framed record, and each is kept,
rejected by the filters, dropped or ruled out -- exactly one of them.
"""

from hypothesis import example, given, settings, strategies as st

from repro import csvscan
from repro.core import ScoopContext
from repro.csvscan import CsvScan
from repro.gridpocket import METER_SCHEMA, DatasetSpec, MeterDataGenerator
from repro.gridpocket.queries import query_by_name
from repro.sql.filters import (
    And,
    EqualTo,
    GreaterThan,
    In,
    LikePattern,
    Not,
    Or,
    StringContains,
    StringEndsWith,
    StringStartsWith,
    filters_to_json,
)
from repro.sql.types import Schema
from repro.storlets import CsvStorlet, StorletInputStream, StorletLogger

from tests.rowwise_reference import where_keeps
from tests.test_chunk_boundaries import (
    READER_SCHEMA,
    _chunks,
    block_cap,
    quote_first_field,
    reference_records,
    reference_scan,
)

NAMES = [name.lower() for name in READER_SCHEMA.names]

#: ``(filter, the same predicate as a reference tuple tree, needle)``:
#: conjuncts that give the scan a needle ...
NEEDLE_LEAVES = [
    (EqualTo("k", "Rotterdam"), ("cmp", "k", "=", "Rotterdam"), b"Rotterdam"),
    (StringStartsWith("k", "Rot"), ("like", "k", "Rot%", False), b"Rot"),
    (StringEndsWith("k", "dam"), ("like", "k", "%dam", False), b"dam"),
    (StringContains("k", "tter"), ("like", "k", "%tter%", False), b"tter"),
    (LikePattern("k", "R_tt%rdam"), ("like", "k", "R_tt%rdam", False), b"rdam"),
    (EqualTo("k", "été"), ("cmp", "k", "=", "été"), "été".encode()),
]
#: ... and shapes that must not narrow: no literal, a literal that is
#: not a STRING cell's text, or one outside a top-level conjunct.
OTHER_LEAVES = [
    (GreaterThan("n", 0), ("cmp", "n", ">", 0)),
    (EqualTo("n", 1), ("cmp", "n", "=", 1)),
    (In("k", ["Rotterdam", "dam"]), ("in", "k", ["Rotterdam", "dam"], False)),
    (Not(EqualTo("k", "Rotterdam")), ("not", ("cmp", "k", "=", "Rotterdam"))),
    (
        Or(EqualTo("k", "Rotterdam"), GreaterThan("n", 0)),
        ("or", ("cmp", "k", "=", "Rotterdam"), ("cmp", "n", ">", 0)),
    ),
    # A number's text is not its raw text: int("5_000") is 5000.
    (StringContains("n", "50"), ("like", "n", "%50%", False)),
    (StringStartsWith("x", "1000"), ("like", "x", "1000%", False)),
    (StringContains("k", "r,1"), ("like", "k", "%r,1%", False)),  # the delimiter
    (LikePattern("k", "%_%"), ("like", "k", "%_%", False)),  # no literal run
]

#: The literal planted in the filtered column ``k``, in another column
#: (where it is untypable) or in none.
_K = st.sampled_from(
    ["Rotterdam", "xRotterdam", "Rotterdamy", "Rotter", "dam", "", "été",
     "Rötterdam", "RaTterdam", "pétér"]
)
_N = st.sampled_from(["1", "-7", "", "0", "5_000", "Rotterdam", "été", "x"])
_X = st.sampled_from(["2.5", "", "nan", "-0.0", "1e3", "dam"])


def _record(k, n, x, shape):
    record = f"{k},{n},{x}".encode("utf-8")
    if shape == "quoted":
        return quote_first_field(record)
    if shape == "split":  # the literal across a quote: read as Rotterdam
        return f'"Rotter"dam,{n},{x}'.encode("utf-8")
    if shape == "short":
        return f"{k},{n}".encode("utf-8")
    if shape == "latin1":  # not UTF-8, the needle's bytes still there
        return record.replace(b"\xc3\xa9", b"\xe9") + b"\xff"
    return record


RECORDS = st.builds(
    _record, _K, _N, _X, st.sampled_from(["plain"] * 6 + ["quoted", "split", "short", "latin1"])
)
CSV = st.builds(
    lambda records, terminators, final: b"".join(
        record + terminators[index % len(terminators)]
        for index, record in enumerate(records)
    )[: None if final or not records else -1],
    st.lists(RECORDS, max_size=30),
    st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=1, max_size=3),
    st.booleans(),
)


def _filters(leaves, nest):
    """The leaves as a conjunctive filter list, or as one nested ``And``."""
    filters = [leaf[0] for leaf in leaves]
    if nest and len(filters) > 1:
        nested = filters[-1]
        for item in reversed(filters[:-1]):
            nested = And(item, nested)
        filters = [nested]
    return filters


class TestFilterBeforeSplit:
    @settings(max_examples=300, deadline=None)
    @given(
        data=CSV,
        needles=st.lists(st.sampled_from(NEEDLE_LEAVES), max_size=2),
        others=st.lists(st.sampled_from(OTHER_LEAVES), max_size=2),
        nest=st.booleans(),
        chunk_size=st.sampled_from([1, 7, 64 * 1024, None]),
        block_bytes=st.sampled_from([16, 100, csvscan.BLOCK_BYTES]),
    )
    @example(
        data=b'"Rotter"dam,1,2.5\nRotterdam,1,2.5\nParis,1,2.5\n',
        needles=[NEEDLE_LEAVES[0]], others=[], nest=False, chunk_size=None,
        block_bytes=csvscan.BLOCK_BYTES,
    )
    @example(  # an Or holds a literal but needs none of its records
        data=b"Paris,1,2.5\nRotterdam,-7,2.5\n", needles=[], others=[OTHER_LEAVES[4]],
        nest=False, chunk_size=None, block_bytes=csvscan.BLOCK_BYTES,
    )
    def test_rows_and_counts_match_the_row_at_a_time_reference(
        self, data, needles, others, nest, chunk_size, block_bytes
    ):
        leaves = needles + others
        if not leaves:
            return
        filters = _filters(leaves, nest)
        conjuncts = [leaf[1] for leaf in leaves]
        records, rows = reference_scan(data)
        expected = [row for row in rows if where_keeps(conjuncts, dict(zip(NAMES, row)))]

        with block_cap(block_bytes):
            scan = CsvScan(_chunks(data, chunk_size), READER_SCHEMA, filters=filters)
            got, read = [], 0
            for block in scan.blocks():
                typed = list(zip(*block.columns))
                picked = scan.select(block)
                got += typed if picked is None else [typed[index] for index in picked]
                read += block.count
        assert repr(got) == repr(expected)  # nan-safe, -0.0-exact
        # Every framed record is kept, rejected by the filters, dropped
        # or ruled out: exactly one of them.
        assert scan.records_in == len(records)
        rejected = read - len(got)
        assert scan.records_in == len(got) + rejected + scan.dropped + scan.ruled_out

        literals = {leaf[2] for leaf in needles}
        if not literals:
            assert scan.ruled_out == 0  # Or, Not, In, numbers: no needle
        # Only a record whose bytes miss a needle is ruled out ...
        assert scan.ruled_out <= sum(
            not all(literal in raw for literal in literals) for raw in records
        )
        if (
            len(literals) == 1
            and b'"' not in data
            and data.endswith(b"\n")
            and block_bytes == csvscan.BLOCK_BYTES
        ):
            # ... and every one is when every block is a run of plain
            # records (no quote, no unterminated tail, no record past
            # the block cap) too short for its needle to be dense.
            (literal,) = literals
            assert scan.ruled_out == sum(literal not in raw for raw in records)

    @settings(max_examples=100, deadline=None)
    @given(data=CSV, leaf=st.sampled_from(NEEDLE_LEAVES))
    def test_a_needle_never_narrows_a_quoted_block(self, data, leaf):
        quoted = b"".join(
            quote_first_field(raw) + b"\n" for _offset, raw in reference_records(data)
        )
        scan = CsvScan([quoted], READER_SCHEMA, filters=[leaf[0]])
        list(scan.blocks())
        assert scan.ruled_out == 0


def test_a_literal_split_by_quotes_is_read_and_kept():
    """``a,"Rotter"dam,b`` reads as ``Rotterdam`` although its bytes do
    not hold it: its block is quoted, so it is read, and it passes."""
    schema = Schema.of("c0", "c1", "c2")
    data = b'a,"Rotter"dam,b\nx,Paris,y\nz,Rotterdam,w\nq,Lyon,r\n'
    filters = [EqualTo("c1", "Rotterdam")]
    scan = CsvScan([data], schema, filters=filters)
    assert list(scan.rows()) == [("a", "Rotterdam", "b"), ("z", "Rotterdam", "w")]
    assert (scan.records_in, scan.dropped, scan.ruled_out) == (4, 0, 1)

    metadata: dict = {}
    output = b"".join(
        CsvStorlet().process(
            StorletInputStream([data]),
            {"schema": schema.to_header(), "filters": filters_to_json(filters)},
            StorletLogger("test"),
            metadata,
        )
    )
    assert output == b'a,"Rotter"dam,b\nz,Rotterdam,w\n'
    assert metadata["x-object-meta-storlet-rows-ruled-out"] == "1"
    assert metadata["x-object-meta-storlet-rows-out"] == "2"


def test_a_dense_needle_gives_way_to_a_sparse_one():
    """A needle that more than a quarter of the records hold is no use:
    the block takes the path it takes unfiltered -- or the next needle,
    which from then on is searched first."""
    schema = Schema.of("k", "when", "n:int")
    records = [
        f"{'Rotterdam' if index % 10 == 3 else 'Paris'},2015-01-{index % 28 + 1:02d},{index}"
        for index in range(400)
    ]
    data = ("\n".join(records) + "\n").encode()
    rotterdam = sum("Rotterdam" in record for record in records)

    dense = CsvScan([data], schema, filters=[StringStartsWith("when", "2015-01")])
    assert len(list(dense.rows())) == 400
    assert (dense.records_in, dense.ruled_out) == (400, 0)
    assert dense.column_checks == {"typed": 3}  # one regular block, read whole

    filters = [StringStartsWith("when", "2015-01"), EqualTo("k", "Rotterdam")]
    for chunk_size in (None, 1000):
        scan = CsvScan(_chunks(data, chunk_size), schema, filters=filters)
        assert len(list(scan.rows())) == rotterdam
        assert (scan.records_in, scan.ruled_out) == (400, 400 - rotterdam)


def test_the_registry_counts_what_the_needles_ruled_out():
    """``CsvStorlet`` declares ``rows-ruled-out`` in its tallies, so a
    query's storlets fold it into ``storlets.rows_ruled_out``."""
    lines = list(MeterDataGenerator(DatasetSpec(meters=30, intervals=60)).csv_lines())
    ctx = ScoopContext(chunk_size=4096, placement="object", skipping=False)
    ctx.upload_csv("meters", "a.csv", b"".join(lines))
    ctx.register_csv_table(
        "t", "meters", schema=METER_SCHEMA, format="csv", agg_pushdown=False
    )
    _frame, report = ctx.run_query(query_by_name("Showgraphcons").sql("t"))
    assert report.pushdown_requests > 0
    assert ctx.registry.counter_value("storlets.rows_ruled_out") == sum(
        b"Rotterdam" not in line for line in lines
    )
