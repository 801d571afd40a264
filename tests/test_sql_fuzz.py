"""Fuzzing the SQL engine with randomly generated, well-formed queries.

Two invariants:

1. ``parse(sql).to_sql()`` is a fixpoint (pretty-printing re-parses to
   the same canonical text);
2. executing any generated query over random rows either succeeds or
   raises a *defined* engine error -- never an arbitrary crash.
"""

from hypothesis import given, settings, strategies as st

from repro.sql import Schema, execute_query, parse_query
from repro.sql.catalyst import extract_pushdown
from repro.sql.errors import SqlError

from tests.row_at_a_time import filter_judge, row_evaluator, shipped_mask

SCHEMA = Schema.of("vid", "date", "index:float", "code:int", "city")

COLUMNS = ["vid", "date", "index", "code", "city"]
STRING_COLUMNS = ["vid", "date", "city"]
NUMERIC_COLUMNS = ["index", "code"]

string_literal = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=10,
).map(lambda s: "'" + s.replace("'", "''") + "'")
number_literal = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(
        min_value=-1000, max_value=1000, allow_nan=False
    ).map(lambda f: repr(f)),
)

comparison = st.one_of(
    st.tuples(
        st.sampled_from(NUMERIC_COLUMNS),
        st.sampled_from(["=", "<", ">", "<=", ">=", "<>"]),
        number_literal,
    ).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.tuples(
        st.sampled_from(STRING_COLUMNS),
        st.sampled_from(["=", "<>"]),
        string_literal,
    ).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.tuples(st.sampled_from(STRING_COLUMNS), string_literal).map(
        lambda t: f"{t[0]} LIKE {t[1]}"
    ),
    st.sampled_from(COLUMNS).map(lambda c: f"{c} IS NOT NULL"),
    st.tuples(
        st.sampled_from(NUMERIC_COLUMNS), number_literal, number_literal
    ).map(lambda t: f"{t[0]} BETWEEN {t[1]} AND {t[2]}"),
)

predicate = st.recursive(
    comparison,
    lambda children: st.one_of(
        st.tuples(children, children).map(
            lambda t: f"({t[0]} AND {t[1]})"
        ),
        st.tuples(children, children).map(lambda t: f"({t[0]} OR {t[1]})"),
        children.map(lambda c: f"NOT ({c})"),
    ),
    max_leaves=5,
)

scalar_item = st.one_of(
    st.sampled_from(COLUMNS),
    st.sampled_from(STRING_COLUMNS).map(
        lambda c: f"SUBSTRING({c}, 0, 4)"
    ),
    st.sampled_from(NUMERIC_COLUMNS).map(lambda c: f"{c} * 2"),
)
aggregate_item = st.tuples(
    st.sampled_from(["sum", "min", "max", "avg", "count"]),
    st.sampled_from(NUMERIC_COLUMNS),
).map(lambda t: f"{t[0]}({t[1]})")


@st.composite
def queries(draw):
    grouped = draw(st.booleans())
    where = draw(st.one_of(st.none(), predicate))
    limit = draw(st.one_of(st.none(), st.integers(0, 20)))
    if grouped:
        keys = draw(
            st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=2,
                     unique=True)
        )
        aggs = draw(st.lists(aggregate_item, min_size=1, max_size=2))
        select = ", ".join(keys + aggs)
        sql = f"SELECT {select} FROM t"
        if where:
            sql += f" WHERE {where}"
        sql += " GROUP BY " + ", ".join(keys)
        sql += " ORDER BY " + ", ".join(keys)
    else:
        items = draw(
            st.lists(scalar_item, min_size=1, max_size=3, unique=True)
        )
        sql = f"SELECT {', '.join(items)} FROM t"
        if where:
            sql += f" WHERE {where}"
        order = draw(st.one_of(st.none(), st.sampled_from(items)))
        if order:
            sql += f" ORDER BY {order}"
    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql


rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(["m1", "m2", "m3"])),
        st.sampled_from(["2015-01-01", "2015-02-02", "2016-12-31"]),
        st.one_of(
            st.none(), st.floats(min_value=-100, max_value=100)
        ),
        st.one_of(st.none(), st.integers(0, 9999)),
        st.sampled_from(["Paris", "Rotterdam", "Berlin"]),
    ),
    max_size=25,
)


class TestQueryFuzz:
    @settings(max_examples=120, deadline=None)
    @given(sql=queries())
    def test_pretty_print_is_a_fixpoint(self, sql):
        query = parse_query(sql)
        canonical = query.to_sql()
        assert parse_query(canonical).to_sql() == canonical

    @settings(max_examples=120, deadline=None)
    @given(sql=queries(), rows=rows_strategy)
    def test_execution_never_crashes_unexpectedly(self, sql, rows):
        try:
            schema, result = execute_query(sql, SCHEMA, rows)
        except SqlError:
            return  # a defined engine error is acceptable
        assert len(schema) > 0
        for row in result:
            assert len(row) == len(schema)

    @settings(max_examples=120, deadline=None)
    @given(sql=queries())
    def test_pushdown_extraction_total(self, sql):
        """extract_pushdown must succeed on every parseable query, and
        its required columns must be real schema columns."""
        spec = extract_pushdown(parse_query(sql), SCHEMA)
        for name in spec.required_columns:
            assert name in SCHEMA

    @settings(max_examples=60, deadline=None)
    @given(sql=queries(), rows=rows_strategy)
    def test_limit_respected(self, sql, rows):
        query = parse_query(sql)
        if query.limit is None:
            return
        try:
            _schema, result = execute_query(sql, SCHEMA, rows)
        except SqlError:
            return
        assert len(result) <= query.limit

    @settings(max_examples=60, deadline=None)
    @given(sql=queries(), rows=rows_strategy)
    def test_pushdown_filters_sound(self, sql, rows):
        """Rows the pushdown filters keep are a superset of rows the
        full WHERE clause keeps (the Spark conservativeness contract),
        judged on what the scans run: ``FilterMask``, itself held to the
        per-row reference."""
        query = parse_query(sql)
        if query.where is None:
            return
        spec = extract_pushdown(query, SCHEMA)
        mask = shipped_mask(spec.filters, SCHEMA, rows)
        assert mask == bytes(map(filter_judge(spec.filters, SCHEMA), rows)), sql
        where = row_evaluator(query.where, SCHEMA)
        for row, passes in zip(rows, mask):
            try:
                full = where(row) is True
            except SqlError:
                return
            if full:
                assert passes, (
                    "pushdown dropped a row the query needs: "
                    f"{row} under {sql}"
                )
