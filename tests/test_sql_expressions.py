"""Tests for expression evaluation, NULL semantics and functions."""

import decimal
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql.errors import SqlAnalysisError
from repro.sql.expressions import like_pattern_to_regex
from repro.sql.functions import (
    make_accumulator,
    sql_round,
    sql_substring,
)
from repro.sql.types import Schema

from tests.row_at_a_time import row_evaluator

SCHEMA = Schema.of("a:int", "b:float", "s", "flag:bool")


def evaluate(text, row):
    return row_evaluator(text, SCHEMA)(row)


ROW = (5, 2.5, "hello", True)


class TestArithmetic:
    def test_basic_operations(self):
        assert evaluate("a + 1", ROW) == 6
        assert evaluate("a - 2", ROW) == 3
        assert evaluate("a * b", ROW) == 12.5
        assert evaluate("a / 2", ROW) == 2.5
        assert evaluate("a % 3", ROW) == 2

    def test_unary_minus(self):
        assert evaluate("-a", ROW) == -5
        assert evaluate("-(a + 1)", ROW) == -6

    def test_division_by_zero_yields_null(self):
        assert evaluate("a / 0", ROW) is None

    def test_null_propagates_through_arithmetic(self):
        assert evaluate("a + 1", (None, 1.0, "x", True)) is None

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("7 % 3", 1),
            ("-7 % 3", -1),
            ("7 % -3", 1),
            ("-7 % -3", -1),
            ("-6 % 3", 0),
            ("-a % 3", -2),
            ("7.5 % 2", 1.5),
            ("-7.5 % 2", -1.5),
            ("-7 % 2.5", -2.0),
            ("a % 0", None),
            ("b % 0.0", None),
        ],
    )
    def test_modulo_takes_the_sign_of_the_dividend(self, text, expected):
        """As in Spark and sqlite, not Python's floored ``%``."""
        assert repr(evaluate(text, ROW)) == repr(expected)

    def test_string_concat_operator(self):
        assert evaluate("s || '!'", ROW) == "hello!"


class TestComparisons:
    def test_numeric_comparisons(self):
        assert evaluate("a > 4", ROW) is True
        assert evaluate("a > 5", ROW) is False
        assert evaluate("a >= 5", ROW) is True
        assert evaluate("a <> 5", ROW) is False

    def test_string_comparison(self):
        assert evaluate("s = 'hello'", ROW) is True
        assert evaluate("s < 'world'", ROW) is True

    def test_null_comparison_is_null(self):
        assert evaluate("a = 5", (None, 1.0, "x", True)) is None


class TestBooleanLogic:
    def test_kleene_and(self):
        assert evaluate("a > 1 AND s = 'hello'", ROW) is True
        assert evaluate("a > 9 AND s = 'hello'", ROW) is False
        # NULL AND TRUE -> NULL; NULL AND FALSE -> FALSE
        null_row = (None, 1.0, "hello", True)
        assert evaluate("a > 1 AND s = 'hello'", null_row) is None
        assert evaluate("a > 1 AND s = 'x'", null_row) is False

    def test_kleene_or(self):
        null_row = (None, 1.0, "hello", True)
        assert evaluate("a > 1 OR s = 'hello'", null_row) is True
        assert evaluate("a > 1 OR s = 'x'", null_row) is None

    def test_not(self):
        assert evaluate("NOT a > 9", ROW) is True
        assert evaluate("NOT a > 1", ROW) is False
        assert evaluate("NOT a > 1", (None, 1.0, "x", True)) is None


class TestPredicates:
    def test_like(self):
        assert evaluate("s LIKE 'he%'", ROW) is True
        assert evaluate("s LIKE '%lo'", ROW) is True
        assert evaluate("s LIKE 'h_llo'", ROW) is True
        assert evaluate("s LIKE 'x%'", ROW) is False

    def test_not_like(self):
        assert evaluate("s NOT LIKE 'x%'", ROW) is True

    def test_like_null_operand(self):
        assert evaluate("s LIKE 'x%'", (1, 1.0, None, True)) is None

    def test_in(self):
        assert evaluate("a IN (1, 5, 7)", ROW) is True
        assert evaluate("a NOT IN (1, 5, 7)", ROW) is False
        assert evaluate("a IN (1, 2)", ROW) is False

    def test_between(self):
        assert evaluate("a BETWEEN 1 AND 10", ROW) is True
        assert evaluate("a NOT BETWEEN 1 AND 10", ROW) is False
        assert evaluate("a BETWEEN 6 AND 10", ROW) is False

    def test_is_null(self):
        assert evaluate("a IS NULL", (None, 1.0, "x", True)) is True
        assert evaluate("a IS NOT NULL", ROW) is True

    def test_case(self):
        expr = "CASE WHEN a > 3 THEN 'big' WHEN a > 1 THEN 'mid' ELSE 'small' END"
        assert evaluate(expr, ROW) == "big"
        assert evaluate(expr, (2, 0.0, "", False)) == "mid"
        assert evaluate(expr, (0, 0.0, "", False)) == "small"
        no_else = "CASE WHEN a > 9 THEN 1 END"
        assert evaluate(no_else, ROW) is None


class TestFunctions:
    def test_substring_spark_semantics(self):
        # Spark: positions are 1-based; 0 behaves like 1.
        assert sql_substring("2015-01-02 10:00", 0, 7) == "2015-01"
        assert sql_substring("2015-01-02 10:00", 1, 7) == "2015-01"
        assert sql_substring("abcdef", 3, 2) == "cd"
        assert sql_substring("abcdef", -2, 2) == "ef"
        assert sql_substring(None, 1, 2) is None

    def test_substring_via_sql(self):
        assert evaluate("SUBSTRING(s, 0, 4)", ROW) == "hell"
        assert evaluate("SUBSTR(s, 2, 3)", ROW) == "ell"

    def test_string_functions(self):
        assert evaluate("UPPER(s)", ROW) == "HELLO"
        assert evaluate("LOWER('ABC')", ROW) == "abc"
        assert evaluate("LENGTH(s)", ROW) == 5
        assert evaluate("TRIM('  x ')", ROW) == "x"
        assert evaluate("CONCAT(s, '-', a)", ROW) == "hello-5"

    def test_numeric_functions(self):
        assert evaluate("ABS(-3)", ROW) == 3
        assert evaluate("ROUND(2.567, 1)", ROW) == 2.6
        assert evaluate("FLOOR(b)", ROW) == 2
        assert evaluate("CEIL(b)", ROW) == 3

    @pytest.mark.parametrize(
        "call, expected",
        [
            ("ROUND(2.5)", 3.0),
            ("ROUND(0.5)", 1.0),
            ("ROUND(-2.5)", -3.0),
            ("ROUND(-0.5)", -1.0),
            ("ROUND(1.5)", 2.0),
            ("ROUND(2.4999)", 2.0),
            ("ROUND(2.675, 2)", 2.68),
            ("ROUND(1.005, 2)", 1.01),
            ("ROUND(-1.005, 2)", -1.01),
            ("ROUND(0.125, 2)", 0.13),
            ("ROUND(2.567, 1)", 2.6),
            ("ROUND(1234.5, -2)", 1200.0),
            ("ROUND(a)", 5.0),
            ("ROUND(b)", 3.0),
            ("ROUND(7, 2)", 7.0),
            ("ROUND(NULL, 1)", None),
        ],
    )
    def test_round_is_half_up(self, call, expected):
        """Spark's ``BigDecimal(d).setScale(n, HALF_UP)`` and sqlite's
        ``round``, not Python's banker's rounding."""
        assert evaluate(call, ROW) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        value=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-10**6, 10**6).map(lambda n: n / 1000),
        ),
        digits=st.integers(-3, 6),
    )
    def test_round_is_half_up_on_the_shortest_decimal(self, value, digits):
        quantum = decimal.Decimal(1).scaleb(-digits)
        with decimal.localcontext() as context:
            context.prec = 400
            expected = float(
                decimal.Decimal(repr(value)).quantize(quantum, rounding=decimal.ROUND_HALF_UP)
            )
        assert sql_round(value, digits) == expected
        assert sql_round(math.inf, digits) == math.inf
        assert sql_round(-math.inf, digits) == -math.inf
        assert math.isnan(sql_round(math.nan, digits))

    def test_date_part_functions(self):
        row = (1, 1.0, "2015-03-09 14:20:00", True)
        assert evaluate("YEAR(s)", row) == 2015
        assert evaluate("MONTH(s)", row) == 3
        assert evaluate("DAY(s)", row) == 9
        assert evaluate("HOUR(s)", row) == 14

    def test_coalesce(self):
        assert evaluate("COALESCE(NULL, NULL, 7)", ROW) == 7
        assert evaluate("COALESCE(a, 9)", ROW) == 5

    def test_unknown_function_raises(self):
        with pytest.raises(SqlAnalysisError):
            row_evaluator("NOPE(a)", SCHEMA)

    def test_wrong_arity_raises(self):
        with pytest.raises(SqlAnalysisError):
            row_evaluator("UPPER(a, b)", SCHEMA)

    def test_unknown_column_raises(self):
        with pytest.raises(SqlAnalysisError):
            row_evaluator("missing + 1", SCHEMA)


class TestAccumulators:
    def test_sum(self):
        acc = make_accumulator("sum")
        for value in (1, 2, None, 3):
            acc.add(value)
        assert acc.result() == 6

    def test_sum_of_nothing_is_null(self):
        assert make_accumulator("sum").result() is None

    def test_count_skips_nulls(self):
        acc = make_accumulator("count")
        for value in (1, None, 2):
            acc.add(value)
        assert acc.result() == 2

    def test_min_max(self):
        low, high = make_accumulator("min"), make_accumulator("max")
        for value in (5, None, 2, 9):
            low.add(value)
            high.add(value)
        assert low.result() == 2
        assert high.result() == 9

    def test_avg(self):
        acc = make_accumulator("avg")
        for value in (2, 4, None):
            acc.add(value)
        assert acc.result() == 3.0
        assert make_accumulator("avg").result() is None

    def test_first_and_last_value(self):
        first, last = (
            make_accumulator("first_value"),
            make_accumulator("last_value"),
        )
        for value in ("a", "b", "c"):
            first.add(value)
            last.add(value)
        assert first.result() == "a"
        assert last.result() == "c"

    def test_first_value_keeps_none_if_first(self):
        acc = make_accumulator("first_value")
        acc.add(None)
        acc.add("later")
        assert acc.result() is None

    def test_distinct_sum(self):
        acc = make_accumulator("sum", distinct=True)
        for value in (3, 3, 4):
            acc.add(value)
        assert acc.result() == 7


class TestLikeProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        value=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=20,
        ),
        prefix=st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            max_size=5,
        ),
    )
    def test_prefix_like_matches_startswith(self, value, prefix):
        regex = like_pattern_to_regex(
            "".join(
                ch if ch not in "%_" else "" for ch in prefix
            )
            + "%"
        )
        cleaned = "".join(ch for ch in prefix if ch not in "%_")
        assert bool(regex.match(value)) == value.startswith(cleaned)

    @settings(max_examples=80, deadline=None)
    @given(
        value=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=20,
        )
    )
    def test_percent_matches_everything(self, value):
        assert like_pattern_to_regex("%").match(value)

    @settings(max_examples=80, deadline=None)
    @given(
        value=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            min_size=0,
            max_size=20,
        )
    )
    def test_underscore_matches_single_char(self, value):
        assert bool(like_pattern_to_regex("_").match(value)) == (
            len(value) == 1
        )
