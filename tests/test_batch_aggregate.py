"""Columns all the way to the aggregate: group-at-a-time == row-at-a-time.

One generator feeds three differentials:

* :func:`repro.sql.executor.execute_plan` over a ``ColumnBatch`` stream
  -- plain, tuple and dictionary-coded columns, any batch cuts --
  against the same rows as one plain batch, and (DISTINCT apart, which
  it does not speak) against the per-row loop of
  ``tests/rowwise_aggregate.py`` over the rows a hand-written WHERE
  keeps -- compared cell for cell, group order included;
* :func:`repro.storlets.agg_storlet.tagged_partial_aggregate` against
  that same per-row loop, record for record at every spill bound;
* each accumulator's ``add_many`` against its own ``add``.

Plus the two places a batch can be cut under a consumer: a scheduler
retry resuming inside a ``ColumnBatch`` and a CSV scan degrading after
the storlet died inside a block.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.batch import ColumnBatch, DictColumn
from repro.connector.stocator import PushdownError
from repro.core import ScoopContext
from repro.gridpocket import DatasetSpec, METER_SCHEMA
from repro.gridpocket.generator import MeterDataGenerator
from repro.gridpocket.queries import GRIDPOCKET_QUERIES
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.spark.rdd import RDD
from repro.spark.scheduler import SparkContext
from repro.sql.catalyst import Optimizer, build_logical_plan
from repro.sql.errors import SqlTypeError
from repro.sql.executor import execute_plan
from repro.sql.functions import make_accumulator
from repro.sql.grouping import GroupTable
from repro.sql.parser import parse_query
from repro.sql.types import Schema
from repro.storlets.agg_storlet import AggregationSpec, tagged_partial_aggregate
from tests.rowwise_aggregate import rowwise_tagged_partial_aggregate
from tests.sqlite_oracle import check_against_sqlite

SCHEMA = Schema.of("k", "d", "w:int", "n:int", "x:float", "m:float")

KEYS = [None, "a", "b", "A", " a ", "ab", ""]
DATES = [
    f"2015-{month:02d}-{day:02d} {hour:02d}:00:00"
    for month in (1, 2)
    for day in (1, 2, 3)
    for hour in (0, 7, 23)
] + [None]
INTS = [None, 0, 1, -1, 7, 2**62, -(2**62), 255]
FLOATS = [None, 0.0, -0.0, 0.1, 1.5, -2.25, 1e308, -1e308, math.inf, -math.inf]


def generate_rows(seed: int, size: int, groups: int):
    """``size`` rows of SCHEMA; ``w`` takes ``groups`` distinct values."""
    rng = random.Random(seed)

    def number():
        # A fresh NaN object now and then: NaN groups and dedupes by
        # identity, so sharing one object would hide order bugs.
        return float("nan") if rng.random() < 0.1 else rng.choice(FLOATS)

    return [
        (
            rng.choice(KEYS),
            rng.choice(DATES),
            rng.randrange(groups),
            rng.choice(INTS),
            number(),
            # Declared FLOAT, holds both: what CASE / arithmetic can make.
            rng.choice(INTS) if rng.random() < 0.5 else number(),
        )
        for _ in range(size)
    ]


def code_column(values, rng):
    """``values`` dictionary-coded the way a decoded segment never is:
    entries in random order, NULL anywhere.  Distinct representations
    stay distinct entries (``0.0`` / ``-0.0``, ``1`` / ``1.0``), as RCF1
    keeps them; ``None`` when the column does not fit a byte code."""
    entries = {}
    for value in values:
        entries.setdefault((value.__class__, repr(value)), value)
    if not values or len(entries) > 256:
        return None
    order = list(entries)
    rng.shuffle(order)
    codes = {key: code for code, key in enumerate(order)}
    return DictColumn(
        [entries[key] for key in order],
        bytes(codes[(value.__class__, repr(value))] for value in values),
    )


def make_batches(rows, cut_seed: int, pieces: int, coded: bool):
    """``rows`` as a ColumnBatch stream cut into ``pieces``; columns are
    lists, tuples or (``coded``) DictColumns, by the draw."""
    rng = random.Random(cut_seed)
    cuts = sorted(rng.randrange(len(rows) + 1) for _ in range(pieces - 1))
    batches = []
    for start, stop in zip([0] + cuts, cuts + [len(rows)]):
        columns = []
        for values in zip(*rows[start:stop]) if stop > start else [()] * len(SCHEMA):
            column = code_column(values, rng) if coded and rng.random() < 0.7 else None
            if column is None:
                column = list(values) if rng.random() < 0.5 else values
            columns.append(column)
        batches.append(ColumnBatch(SCHEMA, columns, stop - start))
    return batches


GROUP_BYS = [
    [],
    ["k"],
    ["d"],
    ["w"],
    ["x"],
    ["SUBSTRING(d, 0, 10)"],
    ["UPPER(k)"],
    ["LENGTH(k)"],
    ["k", "w"],
    ["SUBSTRING(d, 0, 7)", "k"],
    ["d", "SUBSTR(d, 6, 2)"],
]
NUMERIC_ARGS = ["n", "x", "m", "n + w", "CASE WHEN n > 0 THEN n ELSE x END"]
ANY_ARGS = NUMERIC_ARGS + ["k", "TRIM(k)", "LOWER(d)"]
AGGREGATES = (
    ["COUNT(*)"]
    + [
        f"{name}({distinct}{arg})"
        for name in ("SUM", "AVG")
        for arg in NUMERIC_ARGS
        for distinct in ("", "DISTINCT ")
    ]
    + [
        f"{name}({distinct}{arg})"
        for name in ("COUNT", "MIN", "MAX", "FIRST_VALUE", "LAST_VALUE")
        for arg in ANY_ARGS
        for distinct in ("", "DISTINCT ")
    ]
)
#: WHERE clause -> the rows it keeps, written out by hand over
#: ``(k, d, w, n, x, m)``.
WHERES = {
    "": lambda k, d, w, n, x, m: True,
    " WHERE k LIKE 'a%' AND n > 0": lambda k, d, w, n, x, m: (
        k is not None and k.startswith("a") and n is not None and n > 0
    ),
    " WHERE d LIKE '2015-01-%' AND k IS NOT NULL AND w < 300": lambda k, d, w, n, x, m: (
        d is not None and d.startswith("2015-01-") and k is not None and w < 300
    ),
    " WHERE w >= 0 AND LENGTH(k) < 2": lambda k, d, w, n, x, m: (
        w >= 0 and k is not None and len(k) < 2
    ),
    " WHERE x > 0": lambda k, d, w, n, x, m: x is not None and x > 0,
}

shapes = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**30),
        # 700 rows over 400 ``w`` values: > 256 groups in one batch.
        "size": st.sampled_from([0, 1, 9, 80, 700]),
        "groups": st.sampled_from([1, 3, 400]),
        "pieces": st.integers(1, 6),
        "coded": st.booleans(),
        "group_by": st.sampled_from(GROUP_BYS),
        "aggregates": st.lists(
            st.sampled_from(AGGREGATES), min_size=1, max_size=4, unique=True
        ),
    }
)


def cells(rows):
    """``rows`` as comparable text: ``repr`` tells ``0.0`` from ``-0.0``
    and ``1`` from ``1.0``, and equates NaN with NaN."""
    return [repr(row) for row in rows]


def tagged_spec(shape):
    """The shape's aggregation as the storlet wire format carries it
    (which has no DISTINCT)."""
    aggregates = []
    for text in shape["aggregates"]:
        name, _paren, arg = text.partition("(")
        aggregates.append((name, arg[:-1].replace("DISTINCT ", "")))
    return AggregationSpec(shape["group_by"], aggregates)


def rowwise_answer(rows, spec):
    """The per-row loop's groups as output rows: keys, then each
    aggregate's result (its state, merged into a fresh accumulator)."""
    answer = []
    groups = list(rowwise_tagged_partial_aggregate(rows, spec, SCHEMA, 10**9))
    if not groups and not spec.group_by:
        groups = [("p", 0, (), [acc.state() for acc in spec.accumulators()])]
    for _tag, _ordinal, key, states in groups:
        results = []
        for accumulator, state in zip(spec.accumulators(), states):
            accumulator.merge(state)
            results.append(accumulator.result())
        answer.append(tuple(key) + tuple(results))
    return answer


@given(shape=shapes, where=st.sampled_from(list(WHERES)))
@settings(max_examples=250, deadline=None)
def test_batch_executor_equals_the_rowwise_reference(shape, where):
    rows = generate_rows(shape["seed"], shape["size"], shape["groups"])
    batches = make_batches(rows, shape["seed"], shape["pieces"], shape["coded"])
    select = ", ".join(
        f"{item} AS c{position}"
        for position, item in enumerate(shape["group_by"] + shape["aggregates"])
    )
    sql = f"SELECT {select} FROM t{where}"
    if shape["group_by"]:
        sql += " GROUP BY " + ", ".join(shape["group_by"])

    def plan():
        return Optimizer().optimize(build_logical_plan(parse_query(sql), SCHEMA))

    # Both references see the very cells the batches hold.
    flat = [row for batch in batches for row in batch.rows]
    assert cells(flat) == cells(rows)
    previous = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        _schema, result = execute_plan(plan(), lambda: iter(batches), SCHEMA)
    finally:
        set_registry(previous)
    # Filter, keys and inputs all fused: this is the batch aggregate.
    assert not registry.counter_series("sql.kernel_refusals"), sql
    whole = [ColumnBatch.from_rows(SCHEMA, tuple(flat))]
    assert cells(result) == cells(execute_plan(plan(), lambda: iter(whole), SCHEMA)[1]), sql
    if "DISTINCT" not in sql:
        kept = [row for row in flat if WHERES[where](*row)]
        assert cells(result) == cells(rowwise_answer(kept, tagged_spec(shape))), sql


@given(
    shape=shapes,
    max_groups=st.sampled_from([1, 3, 10**9]),
    batch_rows=st.sampled_from([1, 5, 64, 512]),
)
@settings(max_examples=250, deadline=None)
def test_tagged_stream_equals_the_rowwise_loop(shape, max_groups, batch_rows):
    rows = generate_rows(shape["seed"], shape["size"], shape["groups"])
    spec = tagged_spec(shape)
    expected = rowwise_tagged_partial_aggregate(rows, spec, SCHEMA, max_groups)
    stream = tagged_partial_aggregate(
        iter(rows), spec, SCHEMA, max_groups=max_groups, batch_rows=batch_rows
    )
    # As the storlet sends them: one JSON line per record.
    assert [json.dumps(record) for record in stream] == [
        json.dumps(record) for record in expected
    ]


def test_a_group_keeps_the_key_and_ordinal_of_its_first_row():
    """Equal entries fold into one group (``0.0 == -0.0``, and ``"b"``
    twice, as ``SUBSTRING`` leaves them) whose key is the first row's
    cell -- not the first entry's."""
    def counts():
        return [make_accumulator("count")]

    table = GroupTable(counts)
    column = DictColumn([0.0, -0.0, 1.0], bytes([1, 0, 2, 1]))
    assert table.add_batch([column], [None], 4) == []
    assert repr(list(table.groups)) == "[(-0.0,), (1.0,)]"
    assert [group[0].result() for group in table.groups.values()] == [3, 1]
    column = DictColumn(["b", "a", "b", None], bytes([3, 2, 1, 0, 3]))
    bounded = GroupTable(counts, max_groups=2)
    assert bounded.add_batch([column], [None], 5) == [2]  # "a" came third
    assert bounded.add_batch([["a", "b", None]], [None], 3) == [0]
    assert bounded.first_seen == {(None,): 0, ("b",): 1}
    assert [group[0].result() for group in bounded.groups.values()] == [3, 3]
    assert bounded.rows == 8


def test_unprovable_expressions_take_the_same_table():
    """``FLOOR(x)`` can raise, so its kernel is the bound expression
    looped over the batch -- into the same group table."""
    rows = [(key, None, 0, number, float(number), None) for key, number in
            [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)]]
    spec = AggregationSpec(["k"], [("sum", "FLOOR(x)"), ("count", "*")])
    for max_groups in (1, 2, 10):
        assert list(
            tagged_partial_aggregate(rows, spec, SCHEMA, max_groups, batch_rows=2)
        ) == list(rowwise_tagged_partial_aggregate(rows, spec, SCHEMA, max_groups))


VALUES = st.lists(
    st.one_of(
        st.none(),
        st.integers(-(2**63), 2**63),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1e308, -1e308, 2.0**900, True]),
    ),
    max_size=200,
)


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize(
    "name", ["sum", "avg", "count", "min", "max", "first_value", "last_value"]
)
@given(values=VALUES, cut_seed=st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_add_many_leaves_the_state_add_would(name, distinct, values, cut_seed):
    rng = random.Random(cut_seed)
    one_by_one = make_accumulator(name, distinct)
    for value in values:
        one_by_one.add(value)
    in_runs = make_accumulator(name, distinct)
    position = 0
    while position < len(values):
        stop = position + rng.randrange(1, 130)
        run = values[position:stop]
        in_runs.add_many(run if rng.random() < 0.5 else tuple(run))
        position = stop
    assert repr(in_runs.result()) == repr(one_by_one.result())
    if not distinct:
        assert repr(in_runs.state()) == repr(one_by_one.state())


@given(
    values=st.lists(
        st.one_of(
            st.none(), st.integers(-5, 5), st.sampled_from([math.nan, 0.5, -7.25])
        ),
        max_size=12,
    ),
    cut=st.integers(0, 12),
    seed=st.integers(0, 2**30),
)
@settings(max_examples=200, deadline=None)
def test_min_max_do_not_depend_on_order_or_cuts(values, cut, seed):
    """Spark's total order: NaN above every number, NULL ignored -- so
    ``best=5, then [NaN, 1]`` is 1 however it is fed."""
    present = [value for value in values if value is not None]
    numbers = [value for value in present if value == value]
    low = min(numbers) if numbers else (math.nan if present else None)
    high = (
        math.nan if len(numbers) != len(present) else max(numbers, default=None)
    )
    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    for name, expected in (("min", low), ("max", high)):
        row_by_row = make_accumulator(name)
        for value in shuffled:
            row_by_row.add(value)
        reduced_then_merged = make_accumulator(name)
        reduced_then_merged.add_many(values[:cut])
        other = make_accumulator(name)
        other.add_many(values[cut:])
        reduced_then_merged.merge(other.state())
        assert repr(row_by_row.result()) == repr(expected)
        assert repr(reduced_then_merged.result()) == repr(expected)


# -- a scheduler retry that resumes inside a ColumnBatch ----------------------


class SpyBatch(ColumnBatch):
    """A ColumnBatch that records a ``rows`` access."""

    __slots__ = ("touched",)

    @property
    def rows(self):
        self.touched.append(len(self))
        return ColumnBatch.rows.fget(self)


class RecutRDD(RDD):
    """One partition of ``total`` rows ``(i, "v<i>")``.  The first
    attempt yields them cut by ``first_cuts`` and then fails; every
    later one cuts them by ``replay_cuts``."""

    SCHEMA = Schema.of("i:int", "v")

    def __init__(self, context, total, first_cuts, replay_cuts, touched):
        super().__init__(context)
        self.total = total
        self.cuts = [first_cuts, replay_cuts]
        self.touched = touched
        self.attempts = 0

    def num_partitions(self):
        return 1

    def compute_batches(self, split, batch_rows=0):
        self.attempts += 1
        first = self.attempts == 1
        start = 0
        for size in self.cuts[0 if first else 1]:
            stop = start + size
            ids = list(range(start, stop))
            values = DictColumn([f"v{i}" for i in ids], bytes(range(size)))
            batch = SpyBatch(self.SCHEMA, [ids, values], size)
            batch.touched = self.touched
            yield batch
            start = stop
        if first:
            raise RuntimeError("worker lost mid-partition")
        assert start == self.total


@pytest.mark.parametrize("parallelism", [1, 8])
def test_retry_resumes_inside_a_column_batch(parallelism):
    context = SparkContext(num_workers=4, max_task_attempts=2, parallelism=parallelism)
    touched = []
    # 7 rows are out when the fault lands; the replay's second batch
    # (rows 5..9) straddles that point.
    rdd = RecutRDD(context, 15, first_cuts=[4, 3], replay_cuts=[5, 5, 5], touched=touched)
    batches = list(context.iter_batches(rdd))
    assert [len(batch) for batch in batches] == [4, 3, 3, 5]
    assert all(isinstance(batch.columns[1], DictColumn) for batch in batches)
    rows = [row for batch in batches for row in zip(*batch.columns)]
    assert rows == [(i, f"v{i}") for i in range(15)]
    # Counted with len, cut with slice: never turned into rows.
    assert touched == []
    assert context.task_retries() == 1


# -- a CSV scan whose storlet dies inside a block ------------------------------

CSV_SPEC = DatasetSpec(meters=20, intervals=60, objects=2, seed=11)


def csv_context(parallelism):
    ctx = ScoopContext(chunk_size=24 * 1024, parallelism=parallelism, skipping=False)
    for name, data in MeterDataGenerator(CSV_SPEC).csv_objects():
        ctx.upload_csv("meters", name, data)
    return ctx


@pytest.mark.parametrize("parallelism", [1, 8])
def test_csv_scan_degrades_after_a_partial_block(parallelism):
    sql = (
        "SELECT vid, date, index FROM t WHERE index > 0.5 AND date LIKE '2015-01-01%'"
    )
    oracle = csv_context(1)
    oracle.register_csv_table("t", "meters", schema=METER_SCHEMA, pushdown=False)
    expected = oracle.run_query(sql)[0].collect()
    assert len(expected) > 50

    ctx = csv_context(parallelism)
    ctx.register_csv_table(
        "t", "meters", schema=METER_SCHEMA, pushdown=True, agg_pushdown=False
    )
    original = ctx.connector.open_split_stream
    cut_at = {}

    def dying(split, task=None):
        headers, chunks = original(split, task)
        if task is None or split.index != 1:
            return headers, chunks

        def broken():
            # Two records and a half, then the storlet is gone: the
            # reader types the two it can frame as one short block.
            first = next(iter(chunks))
            end = first.index(b"\n", first.index(b"\n") + 1) + 1
            cut_at["rows"] = 2
            yield first[: end + 7]
            raise PushdownError("died", degradable=True, reason="test-partial-block")

        return headers, broken()

    ctx.connector.open_split_stream = dying
    frame, report = ctx.run_query(sql)
    assert cut_at == {"rows": 2}
    assert frame.collect() == expected
    assert report.pushdown_fallbacks == 1


# -- Table I stays on the fast path, and a refusal says why --------------------


@pytest.mark.parametrize("table_format", ["csv", "columnar"])
def test_table_one_compiles_to_kernels_with_zero_refusals(table_format):
    reference = csv_context(1)
    reference.register_csv_table("ref", "meters", schema=METER_SCHEMA, pushdown=False)
    ctx = csv_context(1)
    ctx.register_csv_table(
        "largeMeter", "meters", schema=METER_SCHEMA, format=table_format,
        agg_pushdown=False,
    )
    # Plainly ingested rows, for sqlite to answer over.
    relation = reference.session.relation("ref")
    rows = list(reference.spark_context.iter_rows(relation.build_scan()))
    for query in GRIDPOCKET_QUERIES:
        frame, _report = ctx.run_query(query.sql())
        check_against_sqlite(query.sql("ref"), METER_SCHEMA, rows, frame.collect())
    sql_profile = ctx.explain_profile()["sql"]
    assert sql_profile["queries"] == {"batch": len(GRIDPOCKET_QUERIES)}
    assert sql_profile["kernel_refusals"] == []
    assert ctx.registry.counter_total("sql.kernel_refusals") == 0


def test_a_refused_key_says_why():
    ctx = csv_context(1)
    ctx.register_csv_table("t", "meters", schema=METER_SCHEMA, agg_pushdown=False)
    sql = "SELECT SUBSTRING(date, code, 2), count(*) FROM t GROUP BY SUBSTRING(date, code, 2)"
    frame, _report = ctx.run_query(sql)
    assert sum(row[1] for row in frame.collect()) == CSV_SPEC.total_rows()
    sql_profile = ctx.explain_profile()["sql"]
    # One pipeline: the refused key ran as an interpreted kernel.
    assert sql_profile["queries"] == {"batch": 1}
    assert sql_profile["kernel_refusals"] == [
        {
            "reason": "function_not_total",
            "expression": "SUBSTRING(date, code, 2)",
            "count": 1,
        }
    ]
    # An ordered comparison across kinds is refused, interpreted -- and raises.
    with pytest.raises(SqlTypeError):
        ctx.run_query("SELECT vid FROM t WHERE vid < code")
    sql_profile = ctx.explain_profile()["sql"]
    assert sql_profile["queries"] == {"batch": 2}
    assert {
        "reason": "incomparable_types",
        "expression": "(vid < code)",
        "count": 1,
    } in sql_profile["kernel_refusals"]
    assert len(sql_profile["kernel_refusals"]) == 2
