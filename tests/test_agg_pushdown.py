"""Tests for aggregation pushdown: the storlet's tagged protocol, the
merge of accumulator states, the planner and the end-to-end path."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agg_pushdown import (
    merge_tagged_records,
    plan_aggregation_pushdown,
)
from repro.core import ScoopContext
from repro.gridpocket import METER_SCHEMA, upload_dataset
from repro.sql import Schema
from repro.sql.parser import parse_query
from repro.storlets import StorletException
from repro.storlets.agg_storlet import AggregatingStorlet, AggregationSpec
from tests.conftest import SMALL_SPEC
from tests.storlet_harness import run_storlet

SCHEMA = Schema.of("vid", "date", "index:float", "city")
DATA = (
    b"m1,2015-01-01,10.0,Rotterdam\n"
    b"m1,2015-01-02,12.0,Rotterdam\n"
    b"m2,2015-01-01,5.0,Paris\n"
    b"m2,2015-02-01,7.0,Paris\n"
)


def run_agg(data, spec, extra=None, chunk=33, schema=SCHEMA, split=0):
    """The storlet's records over ``data``, stamped with ``split`` the
    way the scan RDD stamps them."""
    parameters = {
        "schema": schema.to_header(),
        "aggregation": spec.to_json(),
        **(extra or {}),
    }
    out = run_storlet(AggregatingStorlet(), data, parameters, chunk_size=chunk)
    return [
        (record[0], split, *record[1:])
        for record in map(json.loads, out.body.splitlines())
    ]


def merged(sql, records, schema=SCHEMA):
    plan = plan_aggregation_pushdown(parse_query(sql), schema)
    return merge_tagged_records(plan, records, schema)[1]


def spec_of(sql, schema=SCHEMA):
    return plan_aggregation_pushdown(parse_query(sql), schema).spec


class TestAggregatingStorlet:
    def test_grouped_sum_and_count(self):
        sql = "SELECT vid, sum(index), count(*) FROM t GROUP BY vid"
        assert merged(sql, run_agg(DATA, spec_of(sql))) == [
            ("m1", 22.0, 2),
            ("m2", 12.0, 2),
        ]

    def test_group_by_expression(self):
        sql = (
            "SELECT SUBSTRING(date, 0, 7), sum(index) FROM t "
            "GROUP BY SUBSTRING(date, 0, 7)"
        )
        assert merged(sql, run_agg(DATA, spec_of(sql))) == [
            ("2015-01", 27.0),
            ("2015-02", 7.0),
        ]

    def test_filters_applied_before_aggregation(self):
        from repro.sql import EqualTo, filters_to_json

        sql = "SELECT vid, count(*) FROM t GROUP BY vid"
        records = run_agg(
            DATA,
            spec_of(sql),
            extra={"filters": filters_to_json([EqualTo("city", "Paris")])},
        )
        assert merged(sql, records) == [("m2", 2)]

    def test_unmergeable_aggregate_rejected(self):
        with pytest.raises(StorletException):
            AggregationSpec(["vid"], [("median", "index")])

    def test_missing_parameters_raise(self):
        with pytest.raises(StorletException):
            run_storlet(
                AggregatingStorlet(), DATA, {"schema": SCHEMA.to_header()}
            )

    def test_spec_json_round_trip(self):
        spec = AggregationSpec(
            ["vid", "city"], [("sum", "index"), ("avg", "index")]
        )
        restored = AggregationSpec.from_json(spec.to_json())
        assert restored.group_by == spec.group_by
        assert restored.aggregates == spec.aggregates


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
    def plan(self, sql, schema=METER_SCHEMA):
        return plan_aggregation_pushdown(parse_query(sql), schema)

    def test_mergeable_query_planned(self):
        plan = self.plan(
            "SELECT vid, sum(index) as total FROM t "
            "WHERE city LIKE 'Rot%' GROUP BY vid ORDER BY vid LIMIT 5"
        )
        assert plan is not None
        assert plan.spec.group_by == ["vid"]
        assert plan.spec.aggregates == [("sum", "index")]
        assert len(plan.filters) == 1
        assert plan.limit == 5
        assert plan.output_schema.names == ["vid", "total"]

    def test_non_aggregate_query_not_planned(self):
        assert self.plan("SELECT vid FROM t WHERE code > 5") is None

    def test_residual_where_not_planned(self):
        assert (
            self.plan(
                "SELECT vid, sum(index) FROM t "
                "WHERE SUBSTRING(date, 0, 4) = '2015' GROUP BY vid"
            )
            is None
        )

    def test_expression_over_aggregates_not_planned(self):
        assert (
            self.plan("SELECT max(index) - min(index) FROM t") is None
        )

    def test_distinct_aggregate_not_planned(self):
        assert (
            self.plan("SELECT count(DISTINCT vid) FROM t GROUP BY city")
            is None
        )

    def test_order_by_alias_resolves(self):
        plan = self.plan(
            "SELECT vid, sum(index) as total FROM t GROUP BY vid "
            "ORDER BY total DESC"
        )
        assert plan is not None
        assert plan.order_by == [(1, False)]

    def test_order_by_unresolvable_not_planned(self):
        assert (
            self.plan(
                "SELECT vid, sum(index) FROM t GROUP BY vid ORDER BY city"
            )
            is None
        )


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
