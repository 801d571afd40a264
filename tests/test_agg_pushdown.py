"""Tests for aggregation pushdown: the ``aggregation`` parameter of both
scan storlets, the executor's Aggregate merging accumulator states, the
gate and the end-to-end path."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ScoopContext
from repro.gridpocket import METER_SCHEMA, upload_dataset
from repro.sql import Schema
from repro.sql.errors import SqlAnalysisError
from repro.sql.executor import execute_query
from repro.columnar.layout import decode_footer
from repro.storlets import CsvStorlet, StorletException
from repro.storlets.aggregation import AggregationSpec
from repro.storlets.columnar_storlet import ColumnarStorlet, CsvToColumnarStorlet
from tests.agg_partials import execute_partials, gate
from tests.conftest import SMALL_SPEC
from tests.storlet_harness import run_storlet

SCHEMA = Schema.of("vid", "date", "index:float", "city")
DATA = (
    b"m1,2015-01-01,10.0,Rotterdam\n"
    b"m1,2015-01-02,12.0,Rotterdam\n"
    b"m2,2015-01-01,5.0,Paris\n"
    b"m2,2015-02-01,7.0,Paris\n"
)
ROWS = [
    ("m1", "2015-01-01", 10.0, "Rotterdam"),
    ("m1", "2015-01-02", 12.0, "Rotterdam"),
    ("m2", "2015-01-01", 5.0, "Paris"),
    ("m2", "2015-02-01", 7.0, "Paris"),
]


def as_rcf1(data, schema):
    """``data`` converted to RCF1 (three rows a stripe) and the stripe
    descriptors a split's task carries."""
    body = run_storlet(
        CsvToColumnarStorlet(), data, {"schema": schema.to_header(), "stripe_rows": "3"}
    ).body
    stripes = [
        {"rows": stripe.rows, "cols": [[c.offset, c.length] for c in stripe.columns]}
        for stripe in decode_footer(body).stripes
    ]
    return body, {"stripes": json.dumps(stripes), "range_start": "0"}


def run_agg(data, spec, extra=None, chunk=33, schema=SCHEMA, split=0, fmt="csv"):
    """The records of the ``fmt`` storlet asked for ``spec`` over the
    CSV ``data`` (converted to RCF1 first for ``columnar``), stamped
    with ``split`` the way the scan RDD stamps them."""
    parameters = {
        "schema": schema.to_header(),
        "aggregation": spec.to_json(),
        **(extra or {}),
    }
    storlet = CsvStorlet()
    if fmt == "columnar":
        data, stripes = as_rcf1(data, schema)
        parameters.update(stripes)
        storlet = ColumnarStorlet()
    out = run_storlet(storlet, data, parameters, chunk_size=chunk)
    return [(split, *record) for record in map(json.loads, out.body.splitlines())]


def merged(sql, records, schema=SCHEMA):
    return execute_partials(sql, schema, records)[1]


def spec_of(sql, schema=SCHEMA):
    spec = gate(sql, schema)
    assert isinstance(spec, AggregationSpec), spec
    return spec


@pytest.mark.parametrize("fmt", ["csv", "columnar"])
class TestAggregationParameter:
    """Both scan storlets answer a task carrying ``aggregation`` with
    partial-aggregation records of the rows their scan keeps."""

    def test_grouped_sum_and_count(self, fmt):
        sql = "SELECT vid, sum(index), count(*) FROM t GROUP BY vid"
        assert merged(sql, run_agg(DATA, spec_of(sql), fmt=fmt)) == [
            ("m1", 22.0, 2),
            ("m2", 12.0, 2),
        ]

    def test_group_by_expression(self, fmt):
        sql = (
            "SELECT SUBSTRING(date, 0, 7), sum(index) FROM t "
            "GROUP BY SUBSTRING(date, 0, 7)"
        )
        assert merged(sql, run_agg(DATA, spec_of(sql), fmt=fmt)) == [
            ("2015-01", 27.0),
            ("2015-02", 7.0),
        ]

    def test_filters_applied_before_aggregation(self, fmt):
        from repro.sql import EqualTo, filters_to_json

        sql = "SELECT vid, count(*) FROM t GROUP BY vid"
        records = run_agg(
            DATA,
            spec_of(sql),
            extra={"filters": filters_to_json([EqualTo("city", "Paris")])},
            fmt=fmt,
        )
        assert merged(sql, records) == [("m2", 2)]

    def test_projected_to_the_columns_the_spec_reads(self, fmt):
        """The task names the columns the keys and arguments read; the
        spec compiles against them alone."""
        sql = "SELECT city, max(index) FROM t GROUP BY city"
        records = run_agg(
            DATA, spec_of(sql), extra={"columns": json.dumps(["index", "city"])}, fmt=fmt
        )
        assert merged(sql, records) == [("Rotterdam", 12.0), ("Paris", 7.0)]

    def test_unmergeable_aggregate_rejected(self, fmt):
        with pytest.raises(StorletException):
            AggregationSpec(["vid"], [("median", "index")])
        unmergeable = json.dumps({"group_by": ["vid"], "aggregates": [["median", "index"]]})
        with pytest.raises(StorletException):
            run_agg(DATA, spec_of("SELECT count(*) FROM t"), fmt=fmt,
                    extra={"aggregation": unmergeable})

    def test_missing_parameters_raise(self, fmt):
        storlet = CsvStorlet() if fmt == "csv" else ColumnarStorlet()
        aggregation = spec_of("SELECT count(*) FROM t").to_json()
        with pytest.raises(StorletException):
            run_storlet(storlet, DATA, {"aggregation": aggregation})
        if fmt == "columnar":
            with pytest.raises(StorletException):
                run_storlet(storlet, DATA, {"schema": SCHEMA.to_header(),
                                            "aggregation": aggregation})


def test_spec_json_round_trip():
    spec = AggregationSpec(
        ["vid", "city"], [("sum", "index"), ("avg", "index")]
    )
    restored = AggregationSpec.from_json(spec.to_json())
    assert restored.group_by == spec.group_by
    assert restored.aggregates == spec.aggregates
    assert spec.columns(SCHEMA) == ["vid", "index", "city"]
    assert AggregationSpec([], [("count", "*")]).columns(SCHEMA) == []


G_SCHEMA = Schema.of("g", "x:float")


def g_records(sql, *parts):
    """One storlet run per part of ``(g, x)`` pairs, split-stamped."""
    spec = spec_of(sql, G_SCHEMA)
    records = []
    for split, part in enumerate(parts):
        data = "".join(
            f"{g},{'' if x is None else repr(x)}\n" for g, x in part
        ).encode()
        records += run_agg(data, spec, schema=G_SCHEMA, split=split)
    return records


class TestMergePartials:
    def test_ranges_merge_to_full_result(self):
        sql = "SELECT vid, sum(index), count(*) FROM t GROUP BY vid"
        spec = spec_of(sql)
        # Two ranges, each aggregated separately.
        records = run_agg(DATA[:58], spec) + run_agg(DATA[58:], spec, split=1)
        assert merged(sql, records) == [("m1", 22.0, 2), ("m2", 12.0, 2)]

    def test_avg_merges_by_sum_and_count(self):
        sql = "SELECT g, avg(x) FROM t GROUP BY g"
        records = g_records(
            sql,
            [("m1", 4.0), ("m1", 6.0)],
            [("m1", 5.0), ("m1", 7.0), ("m1", 8.0)],
        )
        assert merged(sql, records, G_SCHEMA) == [("m1", 6.0)]

    def test_min_max_merge(self):
        sql = "SELECT g, min(x), max(x) FROM t GROUP BY g"
        records = g_records(
            sql, [("a", 3.0), ("a", 9.0)], [("a", 1.0), ("a", 4.0)]
        )
        assert merged(sql, records, G_SCHEMA) == [("a", 1.0, 9.0)]

    def test_first_value_respects_range_order(self):
        sql = "SELECT g, first_value(x), last_value(x) FROM t GROUP BY g"
        records = g_records(
            sql, [("b", 0.0)], [("a", 1.0), ("a", 2.0)], [("a", 3.0)]
        )
        assert merged(sql, records, G_SCHEMA) == [
            ("b", 0.0, 0.0),
            ("a", 1.0, 3.0),
        ]

    def test_null_only_groups(self):
        sql = "SELECT g, sum(x), avg(x), count(x) FROM t GROUP BY g"
        records = g_records(sql, [("a", None)], [("a", None)])
        assert merged(sql, records, G_SCHEMA) == [("a", None, None, 0)]

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=40,
        ),
        split_at=st.integers(min_value=0, max_value=40),
    )
    def test_merge_is_split_invariant(self, values, split_at):
        """Aggregating any prefix/suffix split and merging equals
        aggregating everything at once -- exactly, sums included."""
        sql = "SELECT g, sum(x), count(*), min(x), max(x) FROM t GROUP BY g"
        split_at = min(split_at, len(values))
        split_result = merged(
            sql,
            g_records(sql, values[:split_at], values[split_at:]),
            G_SCHEMA,
        )
        assert split_result == merged(sql, g_records(sql, values), G_SCHEMA)


class TestPlanner:
    """The gate asks one question; everything above the Aggregate --
    post-aggregate expressions, HAVING, ORDER BY, LIMIT -- is the
    executor's, on the partials path as on any other."""

    def plan(self, sql, schema=METER_SCHEMA):
        return gate(sql, schema)

    def identical(self, sql):
        """The storlet's records over ``DATA`` answer ``sql`` exactly as
        the executor does over its rows; returns the rows."""
        rows = merged(sql, run_agg(DATA, spec_of(sql)))
        assert rows == execute_query(sql, SCHEMA, ROWS)[1]
        return rows

    def test_mergeable_query_planned(self):
        spec = self.plan(
            "SELECT vid, sum(index) as total FROM t "
            "WHERE city LIKE 'Rot%' GROUP BY vid ORDER BY vid LIMIT 5"
        )
        assert spec.group_by == ["vid"]
        assert spec.aggregates == [("sum", "index")]

    def test_non_aggregate_query_not_planned(self):
        assert self.plan("SELECT vid FROM t WHERE code > 5") == "not_aggregate"

    def test_residual_where_not_planned(self):
        assert (
            self.plan(
                "SELECT vid, sum(index) FROM t "
                "WHERE SUBSTRING(date, 0, 4) = '2015' GROUP BY vid"
            )
            == "residual_filter"
        )

    def test_expression_over_aggregates_not_planned(self):
        sql = "SELECT max(index) - min(index) AS spread FROM t"
        assert self.plan(sql).aggregates == [("max", "index"), ("min", "index")]
        assert self.identical(sql) == [(7.0,)]

    def test_distinct_aggregate_not_planned(self):
        assert (
            self.plan("SELECT count(DISTINCT vid) FROM t GROUP BY city")
            == "distinct_aggregate"
        )

    def test_order_by_alias_resolves(self):
        sql = "SELECT vid, sum(index) as total FROM t GROUP BY vid ORDER BY total"
        assert self.identical(sql) == [("m2", 12.0), ("m1", 22.0)]

    def test_order_by_unresolvable_not_planned(self):
        # Planned (the gate does not resolve ORDER BY); the executor
        # refuses it on the partials path exactly as over rows.
        sql = "SELECT vid, sum(index) FROM t GROUP BY vid ORDER BY city"
        records = run_agg(DATA, spec_of(sql))
        with pytest.raises(SqlAnalysisError):
            merged(sql, records)
        with pytest.raises(SqlAnalysisError):
            execute_query(sql, SCHEMA, ROWS)

    def test_having_and_distinct_take_the_partials_path(self):
        # HAVING's aggregate ships too, as the last state.
        sql = "SELECT DISTINCT count(*) AS n FROM t GROUP BY vid HAVING sum(index) > 11"
        assert self.plan(sql).aggregates == [("count", "*"), ("sum", "index")]
        assert self.identical(sql) == [(2,)]


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def scoop(self):
        """``largeMeter`` answers through filter pushdown, ``aggMeter``
        (same objects) through GROUP-BY pushdown on the scheduler path."""
        # Default split size: one split per object, 32 rows per meter
        # in each (an exact float sum ships its rounding residual too,
        # so a group state is ~57 B where a rounded one was ~26 B).
        ctx = ScoopContext()
        upload_dataset(ctx.client, "meters", SMALL_SPEC)
        for table, agg_pushdown in (("largeMeter", False), ("aggMeter", True)):
            ctx.register_csv_table(
                table, "meters", schema=METER_SCHEMA, format="csv",
                agg_pushdown=agg_pushdown,
            )
        return ctx

    def test_matches_filter_pushdown_results(self, scoop):
        sql = (
            "SELECT vid, sum(index) as total, count(*) as n "
            "FROM largeMeter WHERE city LIKE 'Rotterdam' "
            "GROUP BY vid ORDER BY vid"
        )
        frame, report = scoop.run_query(sql.replace("largeMeter", "aggMeter"))
        assert report.pushdown_requests > 0
        assert frame.schema.names == ["vid", "total", "n"]
        assert frame.collect() == scoop.sql(sql).collect()

    def test_transfers_far_less_than_filter_pushdown(self, scoop):
        sql = (
            "SELECT vid, sum(index) as total FROM largeMeter "
            "GROUP BY vid ORDER BY vid"
        )
        _frame, agg_report = scoop.run_query(
            sql.replace("largeMeter", "aggMeter")
        )
        _frame, filter_report = scoop.run_query(sql)
        assert (
            agg_report.bytes_transferred
            < filter_report.bytes_transferred / 5
        )

    def test_order_and_limit_applied(self, scoop):
        sql = (
            "SELECT vid, max(index) as peak FROM aggMeter "
            "GROUP BY vid ORDER BY peak DESC LIMIT 3"
        )
        rows = scoop.run_query(sql)[0].collect()
        assert len(rows) == 3
        peaks = [row[1] for row in rows]
        assert peaks == sorted(peaks, reverse=True)
