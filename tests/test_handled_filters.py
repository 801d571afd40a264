"""A pushed filter is a handled filter -- on every path a scan can take.

The planner drops a WHERE conjunct from the plan (and a column only it
reads from the projection) when the relation answers for it, so nothing
upstream re-decides it.  That is only sound if the scan returns exactly
the passing rows whichever way it reads them: through the storlet, with
``pushdown=False``, after a placement veto, placed compute-side, or
degraded mid-stream behind rows already emitted.  This module holds the
differential that says so, against the row-at-a-time WHERE reference in
``tests/rowwise_reference.py``, plus the byte counts of ``count(*)`` and
the fault-plan matrix the CI ``chaos`` job runs under every seed
(``REPRO_CHAOS_SEED``).
"""

import csv
import io
import os
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.columnar import encode_columnar
from repro.connector.stocator import PushdownError
from repro.core import ScoopContext
from repro.faults import named_plan
from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset
from repro.placement import TenantClass, TenantPolicy
from repro.sql.catalyst import (
    UNHANDLED_REASONS,
    FilterNode,
    extract_pushdown,
    split_conjuncts,
)
from repro.sql.errors import SqlTypeError
from repro.sql.parser import parse_query
from repro.sql.types import Schema
from repro.spark.datasources import PrunedFilteredScan
from repro.spark.session import _logical_plan
from repro.swift.http import close_body
from repro.swift.retry import RetryPolicy

from tests.row_at_a_time import row_evaluator
from tests.rowwise_reference import Incomparable, where_keeps, where_sql
from tests.sqlite_oracle import check_against_sqlite

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20170417"))

#: ``k`` numbers the rows (what the queries return: a NaN in ``f`` would
#: make result lists unequal to themselves).
SCHEMA = Schema.of("k:int", "s", "i:int", "f:float", "t")
COLUMNS = ("s", "i", "f", "t")
MODES = ("pushdown", "plain", "veto", "compute", "degrade")

_TEXTS = ["", "a", "ab", "b", "A", "5", "10", "a%", "it's", "x,y", 'q"q', "a\n"]
_INTS = [0, 1, -1, 5, 10, 255, 256, 70000, 2**53, 2**53 + 1, -(2**53) - 1, 2**62]
_FLOATS = [0.0, -0.0, 1.5, -2.5, 5.0, 10.0, float("nan"), float("inf"), 2.0**53]

_text = st.one_of(st.none(), st.sampled_from(_TEXTS))
_int = st.one_of(st.none(), st.sampled_from(_INTS))
_float = st.one_of(st.none(), st.sampled_from(_FLOATS))
_rows = st.lists(st.tuples(_text, _int, _float, _text), max_size=24)

_finite = [value for value in _FLOATS if value == value and abs(value) != float("inf")]
_literal = st.one_of(
    st.none(), st.sampled_from(_TEXTS), st.sampled_from(_INTS), st.sampled_from(_finite)
)
_pattern = st.sampled_from(["a", "a%", "%b", "%a%", "_", "a_", "%", "5", "1%", "a\\%"])
_column = st.sampled_from(COLUMNS)
_leaf = st.one_of(
    st.tuples(
        st.just("cmp"), _column, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), _literal
    ),
    st.tuples(st.just("like"), _column, _pattern, st.booleans()),
    st.tuples(st.just("in"), _column, st.lists(_literal, min_size=1, max_size=3), st.booleans()),
    st.tuples(st.just("between"), _column, _literal, _literal, st.booleans()),
    st.tuples(st.just("null"), _column, st.booleans()),
    # Never pushable: the residual the compute side always evaluates.
    st.tuples(
        st.just("arith"), _column, st.sampled_from([1, 0.5, "x"]),
        st.sampled_from(["=", "<", ">"]), _literal,
    ),
)
_node = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(st.just("not"), inner),
        st.tuples(st.sampled_from(["and", "or"]), inner, inner),
    ),
    max_leaves=4,
)
_where = st.lists(_node, min_size=1, max_size=3)


def _csv_bytes(rows):
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    for row in rows:
        writer.writerow(SCHEMA.render_row(row))
    return sink.getvalue().encode("utf-8")


def _vetoing_context(**options):
    """A context whose engine reads a saturated store and sheds the
    bronze tenant ``shed``."""
    ctx = ScoopContext(placement="object", **options)
    ctx.placement.storage_cpu = lambda: 0.99
    ctx.placement.set_policy(TenantPolicy("shed", TenantClass.BRONZE))
    return ctx


class _CutEveryResponse:
    """``open_split_stream`` whose every pushdown response fails, with a
    degradable error, after ``fraction`` of its chunks' bytes."""

    def __init__(self, connector, fraction):
        self.real = connector.open_split_stream
        self.fraction = fraction

    def __call__(self, split, task=None):
        headers, chunks = self.real(split, task)
        if task is None:
            return headers, chunks
        return headers, self._cut(chunks)

    def _cut(self, chunks):
        try:
            body = b"".join(chunks)
        finally:
            close_body(chunks)
        keep = int(len(body) * self.fraction)
        if keep:
            yield body[:keep]
        raise PushdownError("cut", reason="crash", degradable=True)


class _Stack:
    """The same rows as two CSV and two RCF1 objects, one table per
    format and path.  ``compute`` and ``veto`` live in contexts of their
    own because the placement engine is a constructor argument."""

    def __init__(self, rows, parallelism=None):
        rows = [(k, *row) for k, row in enumerate(rows)]
        half = len(rows) // 2
        self.rows = rows
        self.ctx = ScoopContext(chunk_size=48 * 1024, parallelism=parallelism)
        self.vetoed = _vetoing_context(chunk_size=48 * 1024, parallelism=parallelism)
        self.placed = ScoopContext(chunk_size=48 * 1024, placement="compute")
        for ctx in (self.ctx, self.vetoed, self.placed):
            ctx.client.put_container("csv")
            ctx.client.put_container("rcf")
            for name, part in (("a", rows[:half]), ("b", rows[half:])):
                ctx.client.put_object("csv", f"{name}.csv", _csv_bytes(part))
                ctx.client.put_object("rcf", f"{name}.rcf", encode_columnar(SCHEMA, part))
        for mode, ctx, options in (
            ("pushdown", self.ctx, {}),
            ("plain", self.ctx, {"pushdown": False}),
            ("veto", self.vetoed, {"tenant": "shed"}),
            ("compute", self.placed, {}),
        ):
            ctx.register_csv_table(
                f"csv_{mode}", "csv", schema=SCHEMA, format="csv", **options
            )
            ctx.register_columnar_table(
                f"columnar_{mode}", "rcf", schema=SCHEMA, **options
            )

    def reference_rows(self, fmt):
        """What the format stores: CSV has no empty string, only NULL."""
        if fmt == "columnar":
            return self.rows
        return [tuple(None if cell == "" else cell for cell in row) for row in self.rows]

    def run(self, fmt, mode, select, where, fraction=0.5):
        """The query's rows under one path, or the error class it raised."""
        if mode == "compute":
            ctx, table = self.placed, f"{fmt}_compute"
        elif mode == "veto":
            ctx, table = self.vetoed, f"{fmt}_veto"
        elif mode == "degrade":
            ctx, table = self.ctx, f"{fmt}_pushdown"
        else:
            ctx, table = self.ctx, f"{fmt}_{mode}"
        sql = f"SELECT {select} FROM {table} WHERE {where}"
        try:
            if mode != "degrade":
                return ctx.sql(sql).collect()
            cutter = _CutEveryResponse(ctx.connector, fraction)
            with mock.patch.object(ctx.connector, "open_split_stream", cutter):
                return ctx.sql(sql).collect()
        except SqlTypeError:
            return SqlTypeError


def _reference(rows, conjuncts):
    """The kept ``k`` values, or ``Incomparable`` when some row makes
    some conjunct an error (the stack may then raise, or -- having
    dropped that row at the source -- not)."""
    names = SCHEMA.names
    try:
        return [
            (row[0],) for row in rows if where_keeps(conjuncts, dict(zip(names, row)))
        ]
    except Incomparable:
        return Incomparable


class TestEveryPathAnswersForTheFiltersItWasGiven:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(rows=_rows, conjuncts=_where, fraction=st.sampled_from([0.0, 0.4, 0.9]))
    def test_rows_equal_the_row_at_a_time_reference(self, rows, conjuncts, fraction):
        stack = _Stack(rows)
        where = " AND ".join(f"({where_sql(node)})" for node in conjuncts)
        for fmt in ("csv", "columnar"):
            expected = _reference(stack.reference_rows(fmt), conjuncts)
            answers = {
                mode: stack.run(fmt, mode, "k", where, fraction) for mode in MODES
            }
            # One stream, five ways to read it.
            for mode in MODES:
                assert answers[mode] == answers["pushdown"], (fmt, mode, where)
            if expected is Incomparable:
                continue
            assert answers["pushdown"] == expected, (fmt, where)
            # count(*) reads no column at all and still counts them.
            for mode in ("pushdown", "plain", "degrade"):
                counted = stack.run(fmt, mode, "count(*)", where, fraction)
                assert counted == [(len(expected),)], (fmt, mode, where)

    @settings(max_examples=200, deadline=None)
    @given(conjuncts=_where)
    def test_a_handled_conjunct_never_reaches_the_filter_node(self, conjuncts):
        where = " AND ".join(f"({where_sql(node)})" for node in conjuncts)
        query = parse_query(f"SELECT k FROM t WHERE {where}")
        spec = extract_pushdown(query, SCHEMA)
        plan = _logical_plan(query, spec, SCHEMA.select(spec.required_columns))
        node = plan
        while node is not None and not isinstance(node, FilterNode):
            node = node.child
        kept = [] if node is None else split_conjuncts(node.condition)
        # Nothing upstream re-decides a handled conjunct ...
        assert kept == [
            item.conjunct for item in spec.conjuncts if item.reason is not None
        ]
        for item in spec.conjuncts:
            assert (item.reason is None) == (item.filter in spec.handled)
            assert item.reason is None or item.reason in UNHANDLED_REASONS
        # ... or reads a column on its account.
        referenced = {"k"}.union(*(conjunct.columns() for conjunct in kept))
        assert spec.required_columns == [
            name for name in SCHEMA.names if name in referenced
        ]
        # The reason a translated conjunct can carry here is the one
        # inexactness code; the source declined nothing.
        assert {reason for _filter, reason in spec.unhandled} <= {"not_total"}


class TestTheClassification:
    @pytest.mark.parametrize(
        "where, reason",
        [
            ("i < 5", None),
            ("5 > i", None),
            ("s = 'a' OR i IN (1, NULL, 'x')", None),
            ("f BETWEEN 1 AND 2.5", None),
            ("t LIKE 'a%' AND s IS NOT NULL", None),
            ("i = 'a'", None),  # = never raises: plainly false
            ("i + 1 > 3", "untranslatable"),
            ("s < 5", "not_total"),
            ("i BETWEEN 1 AND 'x'", "not_total"),
            # A pushed Not is SQL's NOT: a negation is as exact as what
            # it negates.
            ("i <> 3", None),
            ("NOT (i < 3)", None),
            ("s NOT LIKE 'a%'", None),
            ("i NOT IN (1, NULL)", None),
            ("i NOT BETWEEN 1 AND 5", None),
            ("NOT (s < 5)", "not_total"),
            # LIKE matches the typed cell's text on both sides.
            ("i LIKE '5'", None),
            ("f LIKE '1%' OR s = 'a'", None),
        ],
    )
    def test_reason_codes(self, where, reason):
        spec = extract_pushdown(parse_query(f"SELECT k FROM t WHERE {where}"), SCHEMA)
        assert [item.reason for item in spec.conjuncts][-1] == reason
        described = spec.describe()
        assert "handled=[" in described and "unhandled=[" in described
        if reason is not None:
            assert f"({reason})" in described

    def test_a_relation_vouches_for_nothing_unless_it_says_so(self):
        class Opaque(PrunedFilteredScan):
            def schema(self):
                return SCHEMA

        query = parse_query("SELECT k FROM t WHERE i < 5 AND s < 5")
        spec = extract_pushdown(query, SCHEMA, Opaque())
        assert [item.reason for item in spec.conjuncts] == ["source_declined", "not_total"]
        assert spec.required_columns == ["k", "s", "i"]
        assert len(spec.filters) == 2  # still pushed, best effort
        assert spec.compute_filter.to_sql() == "((i < 5) AND (s < 5))"

    def test_the_registry_counts_dispositions_per_query(self):
        stack = _Stack([("a", 1, 1.0, "b")])
        stack.ctx.sql(
            "SELECT k FROM csv_pushdown WHERE i < 5 AND i <> 3 AND s <> 'q' AND i + 1 > 0"
        ).collect()
        counted = {
            labels["disposition"]: count
            for labels, count in stack.ctx.registry.counter_series("sql.filters")
        }
        assert counted == {"handled": 3, "residual": 1}
        text = stack.ctx.session.explain_query_object(
            parse_query("SELECT k FROM csv_pushdown WHERE i < 5 AND i <> 3 AND s < 5")
        )
        plan = text.split("== Pushdown")[0]
        assert "Scan(csv_pushdown: k, s)" in plan
        assert "Filter((s < 5))" in plan and "(i <> 3)" not in plan


class TestANegationIsHandled:
    """``i <> 3`` on a table with NULLs in ``i``: the storlet answers for
    it (NULL passes neither ``=`` nor ``<>``), so the plan keeps no
    filter and the scan ships ``k`` alone."""

    ROWS = [
        ("a", 1, 1.0, "x"), ("b", None, 2.0, "y"), ("c", 3, None, "z"),
        (None, 4, 0.5, None), ("e", None, 1.5, "w"), ("f", 3, 2.5, "v"),
        ("g", 7, 0.0, "u"), ("h", None, None, "t"),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "columnar"])
    def test_i_ne_3_equals_sqlite_and_ships_less(self, fmt):
        stack = _Stack(self.ROWS)
        stored = stack.reference_rows(fmt)
        for mode in ("pushdown", "plain"):
            ours = stack.run(fmt, mode, "k", "i <> 3")
            check_against_sqlite("SELECT k FROM t WHERE i <> 3", SCHEMA, stored, ours)
            assert ours == [(0,), (3,), (6,)]
        ctx, table = stack.ctx, f"{fmt}_pushdown"

        def moved(sql):
            frame, report = ctx.run_query(sql)
            frame.collect()
            return report.bytes_transferred

        def dispositions():
            series = ctx.registry.counter_series("sql.filters")
            return Counter({labels["disposition"]: count for labels, count in series})

        before = dispositions()
        handled = moved(f"SELECT k FROM {table} WHERE i <> 3")
        assert ctx.session.last_pushdown.compute_filter is None
        assert dispositions() - before == Counter(handled=1)
        # What an inexact ``<>`` would cost: the NULL rows kept and ``i``
        # shipped for the plan to filter again.
        superset = moved(f"SELECT k, i FROM {table} WHERE i <> 3 OR i IS NULL")
        assert handled < superset


class TestALikeOnANonStringColumnIsHandled:
    """``i LIKE '5%'`` and ``f LIKE '1%'`` match the text of the *typed*
    cell on the source's side as on the executor's: stored ``05`` is the
    int 5 and matches, ``+3`` is 3, ``1.50`` is 1.5, ``1e0`` is 1.0.  So
    the source answers for such a LIKE on every path: the plan keeps no
    filter and the scan ships ``k`` alone."""

    TEXT = (
        b"0,a,05,1.50,x\n1,b,+3,10,y\n2,c,5,+1.5,z\n3,d,50,0.1,w\n"
        b"4,e,,1e0,v\n5,f,15,,u\n6,g,-5,01.0,t\n"
    )
    #: The same rows typed, as the reference judges them.
    ROWS = [
        (0, "a", 5, 1.5, "x"), (1, "b", 3, 10.0, "y"), (2, "c", 5, 1.5, "z"),
        (3, "d", 50, 0.1, "w"), (4, "e", None, 1.0, "v"), (5, "f", 15, None, "u"),
        (6, "g", -5, 1.0, "t"),
    ]

    @pytest.fixture(scope="class")
    def ctx(self):
        ctx = ScoopContext(chunk_size=48 * 1024)
        ctx.client.put_container("csv")
        ctx.client.put_object("csv", "a.csv", self.TEXT)
        options = {"schema": SCHEMA, "agg_pushdown": False}
        ctx.register_csv_table("csv_pushdown", "csv", format="csv", **options)
        ctx.register_csv_table("csv_plain", "csv", format="csv", pushdown=False, **options)
        # RCF1 converted in the store from the same text.
        ctx.register_csv_table("columnar_pushdown", "csv", format="columnar", **options)
        ctx.register_columnar_table(
            "columnar_plain", "csv--columnar", schema=SCHEMA, pushdown=False
        )
        return ctx

    @pytest.mark.parametrize("fmt", ["csv", "columnar"])
    @pytest.mark.parametrize(
        "column, where, keeps",
        [("i", "i LIKE '5%'", [0, 2, 3]), ("f", "f LIKE '1%'", [0, 1, 2, 4, 6])],
    )
    def test_like_on_the_typed_text(self, ctx, fmt, column, where, keeps):
        judge = row_evaluator(where, SCHEMA)
        expected = [(row[0],) for row in self.ROWS if judge(row) is True]
        assert expected == [(k,) for k in keeps]
        for mode in ("pushdown", "plain"):
            table = f"{fmt}_{mode}"
            frame, report = ctx.run_query(f"SELECT k FROM {table} WHERE {where}")
            ours = frame.collect()
            assert ours == expected, (table, where)
            assert ctx.session.last_pushdown.compute_filter is None
            if column == "i":
                # sqlite renders bools and floats differently: INT only.
                check_against_sqlite(f"SELECT k FROM t WHERE {where}", SCHEMA, self.ROWS, ours)
            if mode == "pushdown":
                wider, with_column = ctx.run_query(
                    f"SELECT k, {column} FROM {table} WHERE {where}"
                )
                assert [row[:1] for row in wider.collect()] == expected
                assert report.bytes_transferred < with_column.bytes_transferred


class TestWhereAnUnhandledConjunctRaises:
    """``s < 5`` cannot be answered for: it is pushed best-effort (the
    source filter is plainly false where the comparison is an error) and
    re-applied upstream, so it raises at the first row that *reaches*
    the executor -- the same row on every path."""

    ROWS = [("a", 50, 1.0, "x"), (None, 3, 1.0, "x"), ("b", 4, 1.0, "x"), ("c", 60, 1.0, "x")]

    @pytest.mark.parametrize("fmt", ["csv", "columnar"])
    @pytest.mark.parametrize("mode", MODES)
    def test_same_error_same_place(self, fmt, mode):
        stack = _Stack(self.ROWS)
        # Alone, the best-effort filter keeps no row: nothing to raise on.
        assert stack.run(fmt, mode, "k", "s < 5") == []
        # Under OR, rows 1 and 2 reach the executor; row 1's s is NULL
        # (no error), row 2's is the first comparison that can fail.
        assert stack.run(fmt, mode, "k", "s < 5 OR i < 10") is SqlTypeError
        assert stack.run(fmt, mode, "k", "(s < 5 OR i < 10) AND i = 3") == [(1,)]


class TestLimitStillAbandonsTheRemainingSplits:
    @pytest.mark.parametrize("fmt", ["csv", "columnar"])
    @pytest.mark.parametrize("mode", ["pushdown", "plain"])
    def test_a_satisfied_limit_reads_one_object(self, fmt, mode):
        # Serial: a pool would have the second object in flight already.
        stack = _Stack([("a", n, 1.0, "x") for n in range(40)], parallelism=1)
        table = f"{fmt}_{mode}"
        _frame, full = stack.ctx.run_query(f"SELECT k FROM {table} WHERE i >= 0")
        frame, limited = stack.ctx.run_query(
            f"SELECT k FROM {table} WHERE i >= 0 LIMIT 3"
        )
        assert frame.collect() == [(0,), (1,), (2,)]
        assert stack.ctx.session.last_pushdown.compute_filter is None
        assert 0 < limited.requests < full.requests
        assert limited.bytes_transferred < full.bytes_transferred


COUNT_SPEC = DatasetSpec(meters=40, intervals=100, objects=4)


@pytest.fixture(scope="module")
def meters():
    ctx = ScoopContext(chunk_size=64 * 1024)
    upload_dataset(ctx.client, "meters", COUNT_SPEC)
    # Filter pushdown is what is being counted: GROUP-BY pushdown (armed
    # with REPRO_PLACEMENT) would answer count(*) in a few bytes.
    ctx.register_csv_table(
        "csv_t", "meters", schema=METER_SCHEMA, format="csv", agg_pushdown=False
    )
    ctx.register_csv_table(
        "rcf_t", "meters", schema=METER_SCHEMA, format="columnar", agg_pushdown=False
    )
    return ctx


class TestCountStarShipsOneColumn:
    """``[]`` used to read as "every column": ``count(*)`` shipped the
    whole table through the pushdown path."""

    @pytest.mark.parametrize("table", ["csv_t", "rcf_t"])
    def test_count_star_moves_no_more_than_the_cheapest_column(self, meters, table):
        def moved(sql):
            frame, report = meters.run_query(sql)
            return frame.collect(), report.bytes_transferred

        per_column = {
            name: moved(f"SELECT count({name}) FROM {table}")[1]
            for name in METER_SCHEMA.names
        }
        rows, everything = moved(f"SELECT * FROM {table}")
        counted, star = moved(f"SELECT count(*) FROM {table}")
        assert counted == [(len(rows),)] == [(COUNT_SPEC.meters * COUNT_SPEC.intervals,)]
        if table == "rcf_t":
            # The footers say which column is smallest.
            assert star == min(per_column.values())
        else:
            # CSV has no footer to ask: the first column.
            assert star == per_column["vid"]
        assert star * 5 < everything

        kept, filtered = moved(f"SELECT count(*) FROM {table} WHERE code < 5000")
        assert 0 < kept[0][0] < len(rows)
        assert meters.session.last_pushdown.compute_filter is None
        _rows, code_only = moved(f"SELECT code FROM {table} WHERE code < 5000")
        cheapest = min(
            moved(f"SELECT {name} FROM {table} WHERE code < 5000")[1]
            for name in METER_SCHEMA.names
        )
        assert filtered <= code_only
        assert filtered == (cheapest if table == "rcf_t" else code_only)

    def test_no_required_column_is_one_column_at_every_entry(self, meters):
        for table in ("csv_t", "rcf_t"):
            relation = meters.session.relation(table)
            assert len(relation.build_scan_filtered([], []).output_schema) == 1
        spec = extract_pushdown(parse_query("SELECT count(*) FROM t"), METER_SCHEMA)
        assert spec.required_columns == ["vid"]


FAULT_PLANS = ("device-loss", "flaky-object", "storlet-crash", "overload")
FAULT_QUERIES = (
    # handled only: no filter node, the filter columns never ship
    "SELECT vid, index FROM {t} WHERE code < 5000 AND city LIKE 'P%'",
    "SELECT count(*) FROM {t} WHERE code < 5000",
    # handled beside unhandled and residual
    "SELECT vid FROM {t} WHERE code < 5000 AND city <> 'Paris' AND LENGTH(vid) > 2",
    "SELECT city, count(*) FROM {t} WHERE index >= 0 GROUP BY city ORDER BY city",
    "SELECT vid, date FROM {t} WHERE code BETWEEN 1000 AND 9000 ORDER BY vid, date LIMIT 50",
)


def _fault_run(plan_name):
    ctx = ScoopContext(
        chunk_size=48 * 1024,
        retry_policy=RetryPolicy(seed=CHAOS_SEED),
        fault_plan=named_plan(plan_name, seed=CHAOS_SEED) if plan_name else None,
    )
    upload_dataset(ctx.client, "meters", DatasetSpec(meters=12, intervals=64, objects=3))
    ctx.register_csv_table("csv_t", "meters", schema=METER_SCHEMA, format="csv")
    ctx.register_csv_table("rcf_t", "meters", schema=METER_SCHEMA, format="columnar")
    results = {}
    for table in ("csv_t", "rcf_t"):
        for sql in FAULT_QUERIES:
            results[table, sql] = ctx.sql(sql.format(t=table)).collect()
    return ctx, results


class TestUnderEverySeededFaultPlan:
    """No upstream re-filter stands behind a handled filter: the
    degradation path is all there is between a fault and a wrong row."""

    @pytest.fixture(scope="class")
    def baseline(self):
        _ctx, results = _fault_run(None)
        assert all(results.values())
        for sql in FAULT_QUERIES:
            assert results["csv_t", sql] == results["rcf_t", sql]
        return results

    @pytest.mark.parametrize("plan_name", FAULT_PLANS)
    def test_rows_identical_to_the_fault_free_run(self, plan_name, baseline):
        ctx, results = _fault_run(plan_name)
        assert results == baseline
        assert ctx.fault_plan.fired() > 0
        if plan_name == "storlet-crash":
            assert ctx.connector.metrics.pushdown_fallbacks > 0
