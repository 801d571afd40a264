"""Tests for the volcano executor, including a brute-force differential
property test of GROUP BY aggregation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import Schema, execute_query
from repro.sql.errors import SqlAnalysisError
from repro.sql.types import DataType

SCHEMA = Schema.of("vid", "date", "index:float", "city")
ROWS = [
    ("m1", "2015-01-01", 10.0, "Rotterdam"),
    ("m1", "2015-01-02", 12.0, "Rotterdam"),
    ("m2", "2015-01-01", 5.0, "Paris"),
    ("m2", "2015-02-01", 7.0, "Paris"),
    ("m3", "2015-02-01", None, "Berlin"),
]


def run(sql, rows=None):
    return execute_query(sql, SCHEMA, rows if rows is not None else ROWS)


class TestProjection:
    def test_select_columns(self):
        schema, rows = run("SELECT vid, city FROM t")
        assert schema.names == ["vid", "city"]
        assert rows[0] == ("m1", "Rotterdam")

    def test_select_star(self):
        schema, rows = run("SELECT * FROM t")
        assert schema.names == SCHEMA.names
        assert rows == ROWS

    def test_computed_column_with_alias(self):
        schema, rows = run("SELECT index * 2 AS doubled FROM t")
        assert schema.names == ["doubled"]
        assert rows[0] == (20.0,)

    def test_null_propagates_in_projection(self):
        _schema, rows = run("SELECT index + 1 FROM t")
        assert rows[-1] == (None,)


class TestFilter:
    def test_where_filters_rows(self):
        _schema, rows = run("SELECT vid FROM t WHERE city = 'Paris'")
        assert rows == [("m2",), ("m2",)]

    def test_null_predicate_excludes_row(self):
        _schema, rows = run("SELECT vid FROM t WHERE index > 0")
        assert ("m3",) not in rows

    def test_like_filter(self):
        _schema, rows = run("SELECT vid FROM t WHERE date LIKE '2015-02%'")
        assert rows == [("m2",), ("m3",)]


class TestAggregation:
    def test_global_aggregate(self):
        _schema, rows = run("SELECT sum(index), count(*) FROM t")
        assert rows == [(34.0, 5)]

    def test_global_aggregate_on_empty_input(self):
        _schema, rows = run("SELECT count(*), sum(index) FROM t", rows=[])
        assert rows == [(0, None)]

    def test_group_by_column(self):
        _schema, rows = run(
            "SELECT city, sum(index) FROM t GROUP BY city ORDER BY city"
        )
        assert rows == [
            ("Berlin", None),
            ("Paris", 12.0),
            ("Rotterdam", 22.0),
        ]

    def test_group_by_expression(self):
        _schema, rows = run(
            "SELECT SUBSTRING(date, 0, 7) AS month, sum(index) FROM t "
            "GROUP BY SUBSTRING(date, 0, 7) ORDER BY SUBSTRING(date, 0, 7)"
        )
        assert rows == [("2015-01", 27.0), ("2015-02", 7.0)]

    def test_first_value(self):
        _schema, rows = run(
            "SELECT vid, first_value(city) FROM t GROUP BY vid ORDER BY vid"
        )
        assert rows == [
            ("m1", "Rotterdam"),
            ("m2", "Paris"),
            ("m3", "Berlin"),
        ]

    def test_min_max_in_one_query(self):
        _schema, rows = run(
            "SELECT min(index), max(index) FROM t WHERE city = 'Paris'"
        )
        assert rows == [(5.0, 7.0)]

    def test_count_distinct(self):
        _schema, rows = run("SELECT count(DISTINCT city) FROM t")
        assert rows == [(3,)]

    def test_avg(self):
        _schema, rows = run("SELECT avg(index) FROM t WHERE vid = 'm1'")
        assert rows == [(11.0,)]

    def test_expression_over_aggregates(self):
        _schema, rows = run("SELECT max(index) - min(index) FROM t")
        assert rows == [(7.0,)]

    def test_ungrouped_column_rejected(self):
        with pytest.raises(SqlAnalysisError):
            run("SELECT city, sum(index) FROM t GROUP BY vid")

    def test_aggregate_output_types(self):
        schema, _rows = run("SELECT count(*) AS n, avg(index) AS a FROM t")
        assert schema.field("n").dtype is DataType.INT
        assert schema.field("a").dtype is DataType.FLOAT


class TestSortLimitDistinct:
    def test_order_by_desc(self):
        _schema, rows = run(
            "SELECT vid, index FROM t WHERE index IS NOT NULL "
            "ORDER BY index DESC"
        )
        assert [r[1] for r in rows] == [12.0, 10.0, 7.0, 5.0]

    def test_order_by_multiple_keys(self):
        _schema, rows = run("SELECT city, date FROM t ORDER BY city, date DESC")
        assert rows[0][0] == "Berlin"
        paris = [r for r in rows if r[0] == "Paris"]
        assert paris[0][1] > paris[1][1]

    def test_ascending_sorts_nulls_first(self):
        # Spark's (and sqlite's) default: NULLS FIRST under ASC.
        _schema, rows = run("SELECT vid, index FROM t ORDER BY index")
        assert rows == [
            ("m3", None), ("m2", 5.0), ("m2", 7.0), ("m1", 10.0), ("m1", 12.0)
        ]

    def test_descending_sorts_nulls_last(self):
        _schema, rows = run("SELECT vid, index FROM t ORDER BY index DESC")
        assert rows == [
            ("m1", 12.0), ("m1", 10.0), ("m2", 7.0), ("m2", 5.0), ("m3", None)
        ]

    def test_null_keys_keep_their_ties_in_order(self):
        rows = [(f"n{i}", "d", None, "c") for i in range(3)] + ROWS
        for direction in ("ASC", "DESC"):
            _schema, out = run(
                f"SELECT vid, index FROM t ORDER BY index {direction}", rows
            )
            nulls = [vid for vid, index in out if index is None]
            assert nulls == ["n0", "n1", "n2", "m3"]

    def test_order_by_alias(self):
        _schema, rows = run(
            "SELECT vid, sum(index) AS total FROM t GROUP BY vid "
            "ORDER BY total DESC"
        )
        assert rows[0][0] == "m1"

    def test_order_by_group_expression_after_aggregate(self):
        _schema, rows = run(
            "SELECT sum(index) FROM t "
            "GROUP BY SUBSTRING(date, 0, 7) ORDER BY SUBSTRING(date, 0, 7) DESC"
        )
        assert rows == [(7.0,), (27.0,)]

    def test_unresolvable_order_key_raises(self):
        with pytest.raises(SqlAnalysisError):
            run("SELECT vid FROM t GROUP BY vid ORDER BY nonexistent")

    def test_limit(self):
        _schema, rows = run("SELECT vid FROM t LIMIT 2")
        assert len(rows) == 2

    def test_distinct(self):
        _schema, rows = run("SELECT DISTINCT city FROM t")
        assert sorted(rows) == [("Berlin",), ("Paris",), ("Rotterdam",)]

    def test_distinct_then_order(self):
        _schema, rows = run("SELECT DISTINCT city FROM t ORDER BY city")
        assert rows == [("Berlin",), ("Paris",), ("Rotterdam",)]


class TestDifferentialProperty:
    """Hash aggregation must agree with a brute-force reference."""

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from(["x", "y"]),
                st.one_of(
                    st.none(), st.floats(min_value=-100, max_value=100)
                ),
                st.sampled_from(["P", "Q", "R"]),
            ),
            max_size=40,
        )
    )
    def test_group_by_sum_matches_reference(self, rows):
        _schema, result = execute_query(
            "SELECT vid, sum(index) FROM t GROUP BY vid ORDER BY vid",
            SCHEMA,
            rows,
        )
        groups = {row[0] for row in rows}
        sums = {}
        for vid, _date, index, _city in rows:
            if index is not None:
                sums[vid] = sums.get(vid, 0.0) + index
        assert len(result) == len(groups)
        for vid, total in result:
            assert vid in groups
            if vid in sums:
                assert total == pytest.approx(sums[vid])
            else:
                assert total is None  # all inputs were NULL

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.text(
                    alphabet=st.characters(
                        min_codepoint=48, max_codepoint=57
                    ),
                    min_size=1,
                    max_size=8,
                ),
                st.floats(min_value=0, max_value=10),
                st.sampled_from(["P", "Q"]),
            ),
            max_size=40,
        ),
        threshold=st.floats(min_value=0, max_value=10),
    )
    def test_filter_count_matches_reference(self, rows, threshold):
        _schema, result = execute_query(
            f"SELECT count(*) FROM t WHERE index > {threshold}",
            SCHEMA,
            rows,
        )
        expected = sum(1 for row in rows if row[2] > threshold)
        assert result == [(expected,)]


class TestHaving:
    def test_having_on_aggregate(self):
        _schema, rows = run(
            "SELECT city, sum(index) AS total FROM t GROUP BY city "
            "HAVING sum(index) > 10 ORDER BY city"
        )
        assert rows == [("Paris", 12.0), ("Rotterdam", 22.0)]

    def test_having_on_unselected_aggregate(self):
        _schema, rows = run(
            "SELECT city FROM t GROUP BY city HAVING count(*) >= 2 "
            "ORDER BY city"
        )
        assert rows == [("Paris",), ("Rotterdam",)]

    def test_having_on_group_key(self):
        _schema, rows = run(
            "SELECT city, count(*) FROM t GROUP BY city "
            "HAVING city LIKE 'R%'"
        )
        assert rows == [("Rotterdam", 2)]

    def test_having_combined_condition(self):
        _schema, rows = run(
            "SELECT vid, sum(index) FROM t GROUP BY vid "
            "HAVING sum(index) > 5 AND vid <> 'm1' ORDER BY vid"
        )
        assert rows == [("m2", 12.0)]

    def test_having_without_group_by_on_global_aggregate(self):
        _schema, rows = run(
            "SELECT sum(index) FROM t HAVING count(*) > 100"
        )
        assert rows == []

    def test_having_without_aggregates_rejected(self):
        with pytest.raises(SqlAnalysisError):
            run("SELECT vid FROM t HAVING vid = 'm1'")

    def test_having_on_ungrouped_column_rejected(self):
        with pytest.raises(SqlAnalysisError):
            run(
                "SELECT city, count(*) FROM t GROUP BY city "
                "HAVING date LIKE '2015%'"
            )

    def test_having_round_trips_through_to_sql(self):
        from repro.sql.parser import parse_query

        sql = "SELECT city, SUM(index) FROM t GROUP BY city HAVING (SUM(index) > 5)"
        query = parse_query(sql)
        assert parse_query(query.to_sql()).to_sql() == query.to_sql()
