"""``repro.sql`` against stdlib ``sqlite3``, query by generated query.

The differential ROADMAP item 2(a) asked for: an oracle that shares no
operator and no author with us, so a bug the interpreter, the kernels
and our own row-at-a-time judges all agree on still shows.  The
generators are ``tests/test_sql_fuzz.py``'s, extended with what they
lacked -- IN / NOT IN with NULL members, BETWEEN / NOT BETWEEN with a
NULL bound, ``NOT (...)`` over each, CASE, DISTINCT, HAVING,
``count(DISTINCT ...)``, global aggregates (over empty input too),
int-vs-float literals, DESC.  The translation and every tolerated
difference are the dialect table in ``tests/sqlite_oracle.py``.
"""

import itertools
import json
import random
from collections import Counter

from hypothesis import assume, example, given, settings, strategies as st

from repro.columnar.batch import ColumnBatch
from repro.core.agg_pushdown import plan_aggregation_pushdown
from repro.sql import execute_query, extract_pushdown, parse_query
from repro.sql.errors import SqlError
from repro.sql.executor import execute_plan
from repro.storlets.aggregation import AggregationSpec, partial_aggregate

from tests.agg_partials import gate, planned
from tests.row_at_a_time import filter_judge, row_evaluator, shipped_mask
from tests.sqlite_oracle import check_against_sqlite
from tests.test_sql_fuzz import (
    NUMERIC_COLUMNS,
    SCHEMA,
    STRING_COLUMNS,
    comparison,
    number_literal,
    rows_strategy,
    scalar_item,
)

#: Few distinct values: IN lists hit, groups repeat, ORDER BY ties.
SMALL_NUMBERS = ["0", "1", "2", "5", "7", "2.0", "0.5", "7.5", "-1"]
small_rows = st.lists(
    st.tuples(
        st.sampled_from([None, "m1", "m2"]),
        st.sampled_from(["2015-01-01", "2015-01-02", "2016-12-31"]),
        st.sampled_from([None, 0.0, 0.5, 2.0, 7.5, -1.0]),
        st.sampled_from([None, 0, 1, 2, 5, 7]),
        st.sampled_from(["Paris", "Rotterdam"]),
    ),
    max_size=12,
)
rows = st.one_of(small_rows, rows_strategy)

number = st.one_of(st.sampled_from(SMALL_NUMBERS), number_literal)
number_or_null = st.one_of(st.just("NULL"), number)
string_or_null = st.sampled_from(["'m1'", "'Paris'", "'2015-01-01'", "NULL"])
negation = st.sampled_from(["", "NOT "])

null_aware = st.one_of(
    st.tuples(
        st.sampled_from(NUMERIC_COLUMNS), negation,
        st.lists(number_or_null, min_size=1, max_size=4),
    ).map(lambda t: f"{t[0]} {t[1]}IN ({', '.join(t[2])})"),
    st.tuples(
        st.sampled_from(STRING_COLUMNS), negation,
        st.lists(string_or_null, min_size=1, max_size=3),
    ).map(lambda t: f"{t[0]} {t[1]}IN ({', '.join(t[2])})"),
    st.tuples(
        st.sampled_from(NUMERIC_COLUMNS), negation, number_or_null, number_or_null
    ).map(lambda t: f"{t[0]} {t[1]}BETWEEN {t[2]} AND {t[3]}"),
    st.tuples(st.sampled_from(NUMERIC_COLUMNS), number, number).map(
        lambda t: f"CASE WHEN {t[0]} < {t[1]} THEN code ELSE index END >= {t[2]}"
    ),
    st.sampled_from(NUMERIC_COLUMNS).map(lambda c: f"{c} IS NULL"),
    # Negations over the values the rows hold (NULL among them).
    st.tuples(st.sampled_from(NUMERIC_COLUMNS), number_or_null).map(
        lambda t: f"{t[0]} <> {t[1]}"
    ),
    st.tuples(st.sampled_from(STRING_COLUMNS), string_or_null).map(
        lambda t: f"{t[0]} <> {t[1]}"
    ),
    st.tuples(
        st.sampled_from(STRING_COLUMNS), negation,
        st.sampled_from(["'m%'", "'%1'", "'%ari%'", "'P_ris'", "'Paris'", "'2015-01-%'"]),
    ).map(lambda t: f"{t[0]} {t[1]}LIKE {t[2]}"),
)

predicate = st.recursive(
    st.one_of(comparison, null_aware),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda t: f"({t[0]} AND {t[1]})"),
        st.tuples(children, children).map(lambda t: f"({t[0]} OR {t[1]})"),
        children.map(lambda c: f"NOT ({c})"),
    ),
    max_leaves=4,
)

#: ROUND where sqlite rounds the same (dialect row T10): integers over
#: small divisors, so every tie is exact and no value sits an ulp off one.
rounded = st.tuples(
    st.sampled_from(["code / 4", "(1 - code) / 8", "code / 3", "code"]),
    st.sampled_from(["", ", 0", ", 1", ", 2"]),
).map(lambda t: f"ROUND({t[0]}{t[1]})")

scalar = st.one_of(
    scalar_item,
    rounded,
    st.sampled_from(
        [
            "code / 4",
            "index / code",
            "code % 3",
            "(1 - code) % 3",
            "index + code",
            "code > 2",
            "UPPER(city)",
            "LENGTH(vid)",
            "CASE WHEN code < 3 THEN 'low' WHEN code < 6 THEN 'mid' ELSE 'high' END",
            "CASE WHEN index IS NULL THEN 0 ELSE code END",
            "code IN (1, 2, NULL)",
            "index BETWEEN NULL AND 2",
        ]
    ),
)
aggregate = st.one_of(
    st.tuples(
        st.sampled_from(["sum", "min", "max", "avg", "count"]),
        st.sampled_from(NUMERIC_COLUMNS + ["code * 2", "index / 2", "ROUND(code / 8, 2)"]),
    ).map(lambda t: f"{t[0]}({t[1]})"),
    st.sampled_from(
        [
            "count(*)",
            "count(vid)",
            "count(DISTINCT code)",
            "count(DISTINCT city)",
            "sum(DISTINCT code)",
            "min(city)",
            "max(vid)",
            "max(code) - min(code)",
        ]
    ),
)
group_key = st.sampled_from(
    ["vid", "date", "city", "code", "index", "SUBSTRING(date, 0, 7)", "code % 2", "ROUND(code / 4)"]
)
having = st.one_of(
    st.sampled_from(
        ["count(*) > 1", "min(code) IS NOT NULL", "count(DISTINCT city) = 1"]
    ),
    number.map(lambda n: f"sum(code) >= {n}"),
    number.map(lambda n: f"NOT (max(code) IN (NULL, {n}))"),
)
direction = st.sampled_from(["", " DESC"])


@st.composite
def oracle_queries(draw, shapes=("plain", "distinct", "grouped", "global")):
    shape = draw(st.sampled_from(shapes))
    where = draw(st.one_of(st.none(), predicate))
    tail = f" WHERE {where}" if where else ""
    if shape in ("plain", "distinct"):
        items = draw(st.lists(scalar, min_size=1, max_size=3, unique=True))
        # Aliased: ORDER BY resolves output names, not expressions.
        names = [f"c{position}" for position in range(len(items))]
        head = "SELECT DISTINCT " if shape == "distinct" else "SELECT "
        select = ", ".join(f"{item} AS {name}" for item, name in zip(items, names))
        sql = head + select + " FROM t" + tail
        keys = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    elif shape == "grouped":
        keys = draw(st.lists(group_key, min_size=1, max_size=2, unique=True))
        aggregates = draw(st.lists(aggregate, min_size=1, max_size=3, unique=True))
        sql = "SELECT " + ", ".join(keys + aggregates) + " FROM t" + tail
        sql += " GROUP BY " + ", ".join(keys)
        if draw(st.booleans()):
            sql += " HAVING " + draw(having)
        keys = draw(st.sampled_from([[], keys, keys[:1]]))
    else:
        aggregates = draw(st.lists(aggregate, min_size=1, max_size=4, unique=True))
        sql = "SELECT " + ", ".join(aggregates) + " FROM t" + tail
        keys = []
    if keys:
        sql += " ORDER BY " + ", ".join(key + draw(direction) for key in keys)
    limit = draw(st.one_of(st.none(), st.integers(0, 8)))
    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql


#: A query we refuse (``SqlError``) is skipped and counted; past this
#: share of the examples the oracle has gone vacuous and the test fails.
MAX_SKIPPED_SHARE = 0.05
MIN_EXAMPLES = 300

PINNED_ROWS = [
    ("m1", "2015-01-01", 1.0, 5, "Paris"),
    ("m2", "2015-01-01", 2.0, 7, "Paris"),
    ("m3", "2015-01-02", 3.0, 10, "Rotterdam"),
    ("m4", "2015-01-02", 4.0, 3, "Rotterdam"),
    ("m5", "2015-01-02", None, None, "Berlin"),
    ("m6", "2016-12-31", 6.0, 9999, "Berlin"),
]
#: The two bugs the oracle found at PR 21, each shape it shows in: a
#: NULL member made a miss False (NOT IN: True) instead of NULL, and a
#: NULL bound made BETWEEN NULL whatever the other bound said.
PINNED_QUERIES = [
    "SELECT vid FROM t WHERE code NOT IN (5, 7, NULL)",
    "SELECT vid FROM t WHERE NOT (code IN (5, 7, NULL))",
    "SELECT vid, code IN (5, NULL) FROM t",
    "SELECT vid FROM t WHERE code NOT BETWEEN NULL AND 5",
    "SELECT vid FROM t WHERE NOT (index BETWEEN 2.5 AND NULL)",
    "SELECT vid, code BETWEEN NULL AND 5 FROM t",
    "SELECT city, count(*) FROM t GROUP BY city HAVING NOT (max(code) IN (NULL, 7))",
]


def test_generated_queries_agree_with_sqlite():
    tally = Counter()

    @settings(max_examples=400, deadline=None)
    @given(sql=oracle_queries(), data=rows)
    @example(sql=PINNED_QUERIES[0], data=PINNED_ROWS)
    @example(sql=PINNED_QUERIES[3], data=PINNED_ROWS)
    def differential(sql, data):
        tally["examples"] += 1
        try:
            _schema, ours = execute_query(sql, SCHEMA, data)
        except SqlError:
            tally["skipped"] += 1
            return
        check_against_sqlite(sql, SCHEMA, data, ours)

    differential()
    assert tally["examples"] >= MIN_EXAMPLES
    assert tally["skipped"] <= MAX_SKIPPED_SHARE * tally["examples"], tally


MIN_PARTIALS_EXAMPLES = 200


def test_the_partials_path_agrees_with_sqlite_and_the_executor():
    """GROUP BY answered from store-side partial states, as a pushdown
    scan delivers them: each random partition aggregated by
    ``partial_aggregate`` at a random spill bound, the records
    through JSON, then the plan's own Aggregate -- HAVING, DISTINCT,
    ORDER BY and LIMIT above it -- equals ``execute_query`` over the
    partitions' rows, and sqlite."""
    tally = Counter()

    @settings(max_examples=MIN_PARTIALS_EXAMPLES, deadline=None)
    @given(
        sql=oracle_queries(shapes=("grouped", "global")),
        data=rows,
        cut_seed=st.integers(0, 2**30),
        partitions=st.integers(1, 4),
        max_groups=st.integers(1, 6),
    )
    def differential(sql, data, cut_seed, partitions, max_groups):
        plan, pushdown = planned(sql, SCHEMA)
        spec = plan_aggregation_pushdown(plan, pushdown)
        assume(isinstance(spec, AggregationSpec))
        tally["examples"] += 1
        rng = random.Random(cut_seed)
        parts = [[] for _ in range(partitions)]
        for row in data:
            parts[rng.randrange(partitions)].append(row)
        try:
            _schema, expected = execute_query(sql, SCHEMA, [row for part in parts for row in part])
        except SqlError:
            tally["skipped"] += 1
            return
        # The store applies the pushed filters (all handled) first.
        records = []
        for split, part in enumerate(parts):
            mask = shipped_mask(pushdown.filters, SCHEMA, part)
            kept = ColumnBatch.from_rows(SCHEMA, list(itertools.compress(part, mask)))
            for record in partial_aggregate([kept], spec, SCHEMA, max_groups):
                records.append((split, *json.loads(json.dumps(record))))
        _schema, ours = execute_plan(plan, lambda: records, SCHEMA, partials=True)
        assert ours == expected, sql
        check_against_sqlite(sql, SCHEMA, data, ours)

    differential()
    assert tally["examples"] >= MIN_PARTIALS_EXAMPLES
    assert tally["skipped"] <= MAX_SKIPPED_SHARE * tally["examples"], tally


def test_pinned_null_semantics():
    for sql in PINNED_QUERIES:
        _schema, ours = execute_query(sql, SCHEMA, PINNED_ROWS)
        check_against_sqlite(sql, SCHEMA, PINNED_ROWS, ours)


def test_three_valued_in_and_between_by_hand():
    """The same two rules with the answers written out, so the pin does
    not rest on sqlite alone."""
    def vids(where):
        return [row[0] for row in execute_query(
            f"SELECT vid FROM t WHERE {where}", SCHEMA, PINNED_ROWS
        )[1]]

    assert vids("code NOT IN (5, 7, NULL)") == []
    assert vids("code IN (5, 7, NULL)") == ["m1", "m2"]
    assert vids("code NOT IN (5, 7)") == ["m3", "m4", "m6"]
    assert vids("code NOT BETWEEN NULL AND 5") == ["m2", "m3", "m6"]
    assert vids("code NOT BETWEEN 6 AND NULL") == ["m1", "m4"]
    assert vids("code BETWEEN NULL AND 5") == []
    assert vids("code NOT BETWEEN NULL AND NULL") == []


@settings(max_examples=200, deadline=None)
@given(where=predicate, data=rows)
def test_pushed_filters_stay_supersets_and_handled_ones_exact(where, data):
    """The pushdown handshake, judged on what the scans run
    (``FilterMask``, itself held to the per-row reference): the pushed
    filters never drop a row WHERE keeps, and the handled ones plus the
    plan's remaining filter keep exactly WHERE's rows -- negations
    included, which are handled wherever the conjunct cannot raise."""
    query = parse_query(f"SELECT vid FROM t WHERE {where}")
    spec = extract_pushdown(query, SCHEMA)
    pushed = shipped_mask(spec.filters, SCHEMA, data)
    handled = shipped_mask(spec.handled, SCHEMA, data)
    assert pushed == bytes(map(filter_judge(spec.filters, SCHEMA), data)), where
    assert handled == bytes(map(filter_judge(spec.handled, SCHEMA), data)), where
    accepts = row_evaluator(query.where, SCHEMA)
    remaining = row_evaluator(spec.compute_filter, SCHEMA) if spec.compute_filter else None
    for row, passes, answered in zip(data, pushed, handled):
        try:
            kept = accepts(row) is True
            rest = remaining is None or remaining(row) is True
        except SqlError:
            return
        assert passes or not kept, (where, row)
        assert kept == (bool(answered) and rest), (where, row)


def test_a_negated_null_list_or_bound_is_pushed_as_exact():
    """A pushed ``Not`` is SQL's NOT, so a negated NULL list or bound is
    handled and GROUP BY pushes down over it (nothing above the merged
    partials re-applies WHERE); the partials property above holds the
    answers to sqlite."""
    def plan(where):
        return gate(f"SELECT city, count(*) FROM t WHERE {where} GROUP BY city", SCHEMA)

    for where in (
        "code IN (5, NULL)",
        "code BETWEEN NULL AND 5",
        "code NOT IN (5, NULL)",
        "code NOT BETWEEN NULL AND 5",
        "NOT (code IN (5, NULL))",
        "code <> 5",
        "city NOT LIKE 'P%'",
    ):
        assert isinstance(plan(where), AggregationSpec), where
