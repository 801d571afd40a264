"""Tests for aggregation pushdown: the storlet, the partial-state merge,
the planner and the end-to-end path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agg_pushdown import (
    plan_aggregation_pushdown,
    run_aggregation_query,
)
from repro.gridpocket import METER_SCHEMA
from repro.sql import Schema
from repro.sql.errors import SqlAnalysisError
from repro.sql.parser import parse_query
from repro.storlets import (
    StorletException,
    StorletInputStream,
    StorletLogger,
    StorletOutputStream,
)
from repro.storlets.agg_storlet import (
    AggregatingStorlet,
    AggregationSpec,
    merge_partials,
)
from repro.csvscan import parse_record
from repro.sql.types import DataType

SCHEMA = Schema.of("vid", "date", "index:float", "city")
DATA = (
    b"m1,2015-01-01,10.0,Rotterdam\n"
    b"m1,2015-01-02,12.0,Rotterdam\n"
    b"m2,2015-01-01,5.0,Paris\n"
    b"m2,2015-02-01,7.0,Paris\n"
)


def run_agg(data, spec, extra=None, chunk=33):
    chunks = [data[i : i + chunk] for i in range(0, len(data), chunk)]
    out = StorletOutputStream()
    parameters = {
        "schema": SCHEMA.to_header(),
        "aggregation": spec.to_json(),
        **(extra or {}),
    }
    AggregatingStorlet().invoke(
        [StorletInputStream(chunks)], [out], parameters, StorletLogger("t")
    )
    return [
        parse_record(line, ",")
        for line in out.getvalue().splitlines()
    ]


class TestAggregatingStorlet:
    def test_grouped_sum_and_count(self):
        spec = AggregationSpec(["vid"], [("sum", "index"), ("count", "*")])
        partials = run_agg(DATA, spec)
        merged = dict(
            (row[0], (float(row[1]), int(row[2]))) for row in partials
        )
        assert merged == {"m1": (22.0, 2), "m2": (12.0, 2)}

    def test_group_by_expression(self):
        spec = AggregationSpec(
            ["SUBSTRING(date, 0, 7)"], [("sum", "index")]
        )
        partials = run_agg(DATA, spec)
        merged = dict((row[0], float(row[1])) for row in partials)
        assert merged == {"2015-01": 27.0, "2015-02": 7.0}

    def test_filters_applied_before_aggregation(self):
        from repro.sql import EqualTo, filters_to_json

        spec = AggregationSpec(["vid"], [("count", "*")])
        partials = run_agg(
            DATA,
            spec,
            extra={"filters": filters_to_json([EqualTo("city", "Paris")])},
        )
        assert dict((r[0], int(r[1])) for r in partials) == {"m2": 2}

    def test_unmergeable_aggregate_rejected(self):
        with pytest.raises(StorletException):
            AggregationSpec(["vid"], [("median", "index")])

    def test_missing_parameters_raise(self):
        out = StorletOutputStream()
        with pytest.raises(StorletException):
            AggregatingStorlet().invoke(
                [StorletInputStream([DATA])],
                [out],
                {"schema": SCHEMA.to_header()},
                StorletLogger("t"),
            )

    def test_spec_json_round_trip(self):
        spec = AggregationSpec(
            ["vid", "city"], [("sum", "index"), ("avg", "index")]
        )
        restored = AggregationSpec.from_json(spec.to_json())
        assert restored.group_by == spec.group_by
        assert restored.aggregates == spec.aggregates


class TestMergePartials:
    def test_ranges_merge_to_full_result(self):
        spec = AggregationSpec(["vid"], [("sum", "index"), ("count", "*")])
        # Simulate two ranges, each aggregated separately.
        first = run_agg(DATA[:58], spec)  # first two records
        second = run_agg(
            DATA[58:], spec, extra={}
        )
        merged = merge_partials(spec, first + second)
        assert dict((k, (total, n)) for k, total, n in merged) == {
            "m1": (22.0, 2),
            "m2": (12.0, 2),
        }

    def test_avg_merges_by_sum_and_count(self):
        spec = AggregationSpec(["vid"], [("avg", "index")])
        partials = [["m1", "10.0", "2"], ["m1", "20.0", "3"]]
        merged = merge_partials(spec, partials)
        assert merged == [("m1", 6.0)]

    def test_min_max_merge(self):
        spec = AggregationSpec(["g"], [("min", "x"), ("max", "x")])
        partials = [["a", "3.0", "9.0"], ["a", "1.0", "4.0"]]
        assert merge_partials(spec, partials) == [("a", 1.0, 9.0)]

    def test_first_value_respects_range_order(self):
        spec = AggregationSpec(["g"], [("first_value", "x")])
        partials = [["a", "0", ""], ["a", "1", "early"], ["a", "1", "late"]]
        assert merge_partials(spec, partials) == [("a", "early")]

    def test_null_only_groups(self):
        spec = AggregationSpec(["g"], [("sum", "x")])
        partials = [["a", ""], ["a", ""]]
        assert merge_partials(spec, partials) == [("a", None)]

    def test_key_types_parse_keys(self):
        spec = AggregationSpec(["n"], [("count", "*")])
        merged = merge_partials(
            spec, [["7", "2"], ["7", "3"]], key_types=[DataType.INT]
        )
        assert merged == [(7, 5)]

    def test_wrong_width_raises(self):
        spec = AggregationSpec(["g"], [("count", "*")])
        with pytest.raises(ValueError):
            merge_partials(spec, [["a", "1", "extra"]])

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
        aggregating everything at once."""
        spec = AggregationSpec(
            ["g"], [("sum", "x"), ("count", "*"), ("min", "x"), ("max", "x")]
        )
        schema = Schema.of("g", "x:float")

        def partials_for(subset):
            if not subset:
                return []
            data = "".join(f"{g},{x!r}\n" for g, x in subset).encode()
            out = StorletOutputStream()
            AggregatingStorlet().invoke(
                [StorletInputStream([data])],
                [out],
                {"schema": schema.to_header(), "aggregation": spec.to_json()},
                StorletLogger("t"),
            )
            return [
                parse_record(line, ",")
                for line in out.getvalue().splitlines()
            ]

        split_at = min(split_at, len(values))
        split_result = merge_partials(
            spec, partials_for(values[:split_at]) + partials_for(values[split_at:])
        )
        whole_result = merge_partials(spec, partials_for(values))
        assert {row[0]: row[2] for row in split_result} == {
            row[0]: row[2] for row in whole_result
        }  # counts
        for split_row, whole_row in zip(
            sorted(split_result), sorted(whole_result)
        ):
            assert split_row[1] == pytest.approx(whole_row[1], abs=1e-6)
            assert split_row[3] == pytest.approx(whole_row[3])
            assert split_row[4] == pytest.approx(whole_row[4])


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
    def test_matches_filter_pushdown_results(self, scoop):
        sql = (
            "SELECT vid, sum(index) as total, count(*) as n "
            "FROM largeMeter WHERE city LIKE 'Rotterdam' "
            "GROUP BY vid ORDER BY vid"
        )
        (schema, rows), report = scoop.run_aggregation_query(
            sql, "meters", METER_SCHEMA
        )
        reference = scoop.sql(sql).collect()
        assert schema.names == ["vid", "total", "n"]
        assert len(rows) == len(reference)
        for got, want in zip(rows, reference):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1])
            assert got[2] == want[2]

    def test_transfers_far_less_than_filter_pushdown(self, scoop):
        sql = (
            "SELECT vid, sum(index) as total FROM largeMeter "
            "GROUP BY vid ORDER BY vid"
        )
        _result, agg_report = scoop.run_aggregation_query(
            sql, "meters", METER_SCHEMA
        )
        _frame, filter_report = scoop.run_query(sql)
        assert (
            agg_report.bytes_transferred
            < filter_report.bytes_transferred / 5
        )

    def test_unmergeable_query_raises(self, scoop):
        with pytest.raises(SqlAnalysisError):
            scoop.run_aggregation_query(
                "SELECT vid FROM largeMeter", "meters", METER_SCHEMA
            )

    def test_order_and_limit_applied(self, scoop):
        sql = (
            "SELECT vid, max(index) as peak FROM largeMeter "
            "GROUP BY vid ORDER BY peak DESC LIMIT 3"
        )
        (schema, rows), _report = scoop.run_aggregation_query(
            sql, "meters", METER_SCHEMA
        )
        assert len(rows) == 3
        peaks = [row[1] for row in rows]
        assert peaks == sorted(peaks, reverse=True)
