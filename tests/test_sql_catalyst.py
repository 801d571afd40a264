"""Tests for the optimizer: folding, LIKE decomposition, pushdown
extraction (the Catalyst role)."""

import pytest

from repro.sql import filters as f
from repro.sql.catalyst import (
    AggregateNode,
    FilterNode,
    Optimizer,
    ProjectNode,
    ScanNode,
    SortNode,
    build_logical_plan,
    conjoin,
    decompose_like,
    expression_to_filter,
    extract_pushdown,
    fold_constants,
    required_columns,
    split_conjuncts,
)
from repro.sql.errors import SqlAnalysisError
from repro.sql.expressions import Literal
from repro.sql.parser import parse_expression, parse_query
from repro.sql.types import Schema

SCHEMA = Schema.of(
    "vid", "date", "index:float", "sumHC:float", "sumHP:float",
    "code:int", "city", "state", "lat:float", "long:float",
)


class TestConstantFolding:
    def test_literal_arithmetic_folds(self):
        assert fold_constants(parse_expression("1 + 2 * 3")) == Literal(7)

    def test_boolean_identity_simplifies(self):
        expr = parse_expression("city = 'x' AND TRUE")
        assert fold_constants(expr) == parse_expression("city = 'x'")

    def test_or_false_simplifies(self):
        expr = parse_expression("city = 'x' OR FALSE")
        assert fold_constants(expr) == parse_expression("city = 'x'")

    def test_and_false_becomes_false(self):
        assert fold_constants(
            parse_expression("city = 'x' AND FALSE")
        ) == Literal(False)

    def test_double_negation_removed(self):
        expr = fold_constants(parse_expression("NOT NOT city = 'x'"))
        assert expr == parse_expression("city = 'x'")

    def test_constant_function_folds(self):
        assert fold_constants(
            parse_expression("SUBSTRING('2015-01-02', 0, 7)")
        ) == Literal("2015-01")

    def test_columns_not_folded(self):
        expr = parse_expression("code + 1")
        assert fold_constants(expr) == expr


class TestConjuncts:
    def test_split_nested_ands(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        parts = split_conjuncts(expr)
        assert len(parts) == 3

    def test_or_not_split(self):
        expr = parse_expression("a = 1 OR b = 2")
        assert split_conjuncts(expr) == [expr]

    def test_conjoin_inverse_of_split(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        assert conjoin(split_conjuncts(expr)) == expr

    def test_conjoin_empty_is_none(self):
        assert conjoin([]) is None


class TestLikeDecomposition:
    def test_exact(self):
        assert decompose_like("c", "Rotterdam") == f.EqualTo("c", "Rotterdam")

    def test_prefix(self):
        assert decompose_like("d", "2015-01%") == f.StringStartsWith(
            "d", "2015-01"
        )

    def test_suffix(self):
        assert decompose_like("d", "%-31") == f.StringEndsWith("d", "-31")

    def test_contains(self):
        assert decompose_like("d", "%mid%") == f.StringContains("d", "mid")

    def test_general_pattern_preserved(self):
        assert decompose_like("d", "a%b") == f.LikePattern("d", "a%b")
        assert decompose_like("d", "a_c") == f.LikePattern("d", "a_c")


class TestExpressionToFilter:
    def test_column_compare_literal(self):
        assert expression_to_filter(
            parse_expression("code > 5")
        ) == f.GreaterThan("code", 5)

    def test_literal_compare_column_flipped(self):
        assert expression_to_filter(
            parse_expression("5 > code")
        ) == f.LessThan("code", 5)

    def test_not_equal(self):
        assert expression_to_filter(
            parse_expression("city <> 'x'")
        ) == f.Not(f.EqualTo("city", "x"))

    def test_in_of_literals(self):
        assert expression_to_filter(
            parse_expression("city IN ('a', 'b')")
        ) == f.In("city", ["a", "b"])

    def test_between(self):
        converted = expression_to_filter(
            parse_expression("code BETWEEN 1 AND 9")
        )
        assert converted == f.And(
            f.GreaterThanOrEqual("code", 1), f.LessThanOrEqual("code", 9)
        )

    def test_is_not_null(self):
        assert expression_to_filter(
            parse_expression("city IS NOT NULL")
        ) == f.IsNotNull("city")

    def test_or_of_convertibles(self):
        converted = expression_to_filter(
            parse_expression("code = 1 OR code = 2")
        )
        assert converted == f.Or(f.EqualTo("code", 1), f.EqualTo("code", 2))

    def test_function_call_not_convertible(self):
        assert (
            expression_to_filter(
                parse_expression("SUBSTRING(date, 0, 7) = '2015-01'")
            )
            is None
        )

    def test_column_to_column_not_convertible(self):
        assert expression_to_filter(parse_expression("a = b")) is None

    def test_arithmetic_operand_not_convertible(self):
        assert expression_to_filter(parse_expression("code + 1 = 2")) is None


class TestPushdownExtraction:
    def test_columns_and_filters_for_gridpocket_query(self):
        query = parse_query(
            "SELECT vid, sum(index) as max FROM t "
            "WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01-%' "
            "GROUP BY SUBSTRING(date, 0, 10), vid "
            "ORDER BY SUBSTRING(date, 0, 10), vid"
        )
        spec = extract_pushdown(query, SCHEMA)
        # ``city`` is read by a handled filter only: it is filtered on
        # at the source and never crosses the link.
        assert spec.required_columns == ["vid", "date", "index"]
        assert f.EqualTo("city", "Rotterdam") in spec.filters
        assert f.StringStartsWith("date", "2015-01-") in spec.filters
        assert spec.handled == spec.filters
        assert spec.residual is None and spec.compute_filter is None

    def test_unconvertible_conjunct_becomes_residual(self):
        query = parse_query(
            "SELECT vid FROM t WHERE code > 5 AND SUBSTRING(date, 0, 4) = '2015'"
        )
        spec = extract_pushdown(query, SCHEMA)
        assert spec.filters == [f.GreaterThan("code", 5)]
        assert spec.residual is not None
        assert "SUBSTRING" in spec.residual.to_sql()

    def test_star_requires_all_columns(self):
        query = parse_query("SELECT * FROM t")
        spec = extract_pushdown(query, SCHEMA)
        assert spec.required_columns == SCHEMA.names

    def test_no_where_no_filters(self):
        query = parse_query("SELECT vid FROM t")
        spec = extract_pushdown(query, SCHEMA)
        assert spec.filters == []
        assert spec.required_columns == ["vid"]

    def test_required_columns_in_schema_order(self):
        query = parse_query("SELECT long, city, vid FROM t")
        assert required_columns(query, SCHEMA) == ["vid", "city", "long"]

    def test_order_by_contributes_columns(self):
        query = parse_query("SELECT vid FROM t ORDER BY lat")
        assert "lat" in required_columns(query, SCHEMA)

    def test_describe_is_readable(self):
        query = parse_query("SELECT vid FROM t WHERE code = 1")
        spec = extract_pushdown(query, SCHEMA)
        text = spec.describe()
        assert "vid" in text and "code" in text


class TestPlanBuilding:
    def test_plain_select_plan_shape(self):
        query = parse_query("SELECT vid FROM t WHERE code = 1 LIMIT 5")
        plan = build_logical_plan(query, SCHEMA)
        # Limit > Project > Filter > Scan
        names = []
        node = plan
        while node is not None:
            names.append(type(node).__name__)
            node = node.child
        assert names == ["LimitNode", "ProjectNode", "FilterNode", "ScanNode"]

    def test_aggregate_plan_shape(self):
        query = parse_query(
            "SELECT vid, sum(index) FROM t GROUP BY vid ORDER BY vid"
        )
        plan = build_logical_plan(query, SCHEMA)
        assert isinstance(plan, SortNode)
        assert isinstance(plan.child, AggregateNode)

    def test_star_expansion(self):
        query = parse_query("SELECT * FROM t")
        plan = build_logical_plan(query, SCHEMA)
        assert isinstance(plan, ProjectNode)
        assert len(plan.items) == len(SCHEMA)

    def test_aggregate_in_where_rejected(self):
        query = parse_query("SELECT vid FROM t WHERE sum(index) > 5")
        with pytest.raises(SqlAnalysisError):
            build_logical_plan(query, SCHEMA)

    def test_optimizer_removes_true_filter(self):
        query = parse_query("SELECT vid FROM t WHERE 1 = 1")
        plan = Optimizer().optimize(build_logical_plan(query, SCHEMA))
        assert isinstance(plan, ProjectNode)
        assert isinstance(plan.child, ScanNode)

    def test_describe_renders_tree(self):
        query = parse_query("SELECT vid FROM t WHERE code = 1")
        text = build_logical_plan(query, SCHEMA).describe()
        assert "Scan" in text and "Filter" in text
