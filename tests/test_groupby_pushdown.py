"""GROUP-BY pushdown through the scheduler: edges and differentials.

Every test here is differential against the compute-side oracle (the
executor's ordinary hash aggregation over scan rows): NULL group keys,
empty inputs, single-group and bounded-cardinality spill, forced
runtime degradation, named fault plans across execution modes, and a
Hypothesis property that merging partials over *random* row/partition
splits reproduces the oracle exactly.  The scheduler-path classes run
on CSV and, through their ``Columnar`` subclasses, on RCF1: one stage
over each format's own scan batches, the same answers.  SUM and AVG are
exact sums rounded once, so "identical" holds for the FLOAT measure
(``power``) as it does for the INT one, with ``==``.
"""

import json
import math
import os
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.columnar.batch import ColumnBatch
from repro.connector.stocator import PushdownError
from repro.core import ScoopContext
from repro.faults import NAMED_PLANS, named_plan
from repro.sql.executor import execute_query
from repro.sql.types import Schema
from repro.storlets.aggregation import partial_aggregate
from tests.agg_partials import execute_partials, gate
from tests.sqlite_oracle import check_against_sqlite

SCHEMA = Schema.of("vid", "date", "index:int", "city", "power:float")

#: ``city`` is empty every 11th row -- a NULL STRING group key --
#: and ``index`` is empty every 13th row -- NULL aggregate input.
#: ``power`` (empty every 17th row) spans nine decades in both signs
#: with full mantissas, so adding it up in any two orders differs.
CSV = "\n".join(
    "v{},2017-04-{:02d},{},{},{}".format(
        i % 7,
        (i % 28) + 1,
        "" if i % 13 == 0 else i % 5,
        "" if i % 11 == 0 else f"city{i % 3}",
        "" if i % 17 == 0 else repr((i % 19 - 9) * 10.0 ** (i % 9 - 4) / 3),
    )
    for i in range(400)
) + "\n"


def build_context(agg_pushdown, data=CSV, parts=3, format=None, **context_kwargs):
    ctx = ScoopContext(chunk_size=4096, **context_kwargs)
    step = max(1, len(data) // parts)
    cuts = [data[i : i + step] for i in range(0, len(data), step)]
    for number, body in enumerate(part for part in cuts if part):
        ctx.upload_csv("meters", f"part-{number:02d}.csv", body)
    ctx.upload_csv("meters", "empty.csv", "")
    ctx.register_csv_table(
        "m", "meters", schema=SCHEMA, format=format, agg_pushdown=agg_pushdown
    )
    return ctx


def assert_identical(left, right):
    """Same rows, same order, same Python types (int stays int)."""
    assert left == right
    for row_left, row_right in zip(left, right):
        for a, b in zip(row_left, row_right):
            assert type(a) is type(b), (a, b)


QUERIES = [
    "SELECT vid, COUNT(*), SUM(index), AVG(index) FROM m "
    "GROUP BY vid ORDER BY vid",
    "SELECT city, SUM(power), AVG(power), MIN(power) FROM m GROUP BY city",
    "SELECT SUM(power), AVG(power), SUM(index * power) FROM m",
    "SELECT city, COUNT(*), MIN(index), MAX(index) FROM m GROUP BY city",
    "SELECT city, COUNT(index) FROM m GROUP BY city ORDER BY city DESC",
    "SELECT COUNT(*), SUM(index), AVG(index) FROM m",
    "SELECT vid, SUM(index) FROM m WHERE index > 2 GROUP BY vid ORDER BY vid",
    "SELECT vid, COUNT(*) FROM m GROUP BY vid ORDER BY vid DESC LIMIT 3",
]

#: What sits above the Aggregate is the executor's on the partials path
#: too: HAVING (with an aggregate only it names), SELECT DISTINCT and
#: expressions over aggregates.
POST_AGGREGATE_QUERIES = [
    "SELECT vid, COUNT(*) FROM m GROUP BY vid "
    "HAVING SUM(power) > 0 AND COUNT(*) > 50 ORDER BY vid",
    "SELECT DISTINCT city, MAX(index) FROM m GROUP BY city, vid ORDER BY city",
    "SELECT vid, MAX(power) - MIN(power) AS spread, SUM(index) * 2 FROM m "
    "GROUP BY vid ORDER BY vid",
]

def assert_post_aggregate_queries(ctx, oracle):
    """Every POST_AGGREGATE_QUERIES answer of ``ctx`` took the partials
    path -- its aggregation task left for the store, answered there or
    degraded under a fault plan -- and is the compute side's, and
    sqlite's."""
    table_rows, answers = oracle
    for sql, expected in zip(POST_AGGREGATE_QUERIES, answers):
        frame, report = ctx.run_query(sql)
        rows = frame.collect()
        assert_identical(rows, expected)
        check_against_sqlite(sql, SCHEMA, table_rows, rows)
        assert report.pushdown_requests + report.pushdown_fallbacks > 0
    assert ctx.explain_profile()["sql"]["queries"] == {
        "agg_pushdown": len(POST_AGGREGATE_QUERIES)
    }


@pytest.fixture(scope="module")
def post_aggregate_oracle():
    """The table's rows (the parts cut records in two at their seams)
    and the compute side's answers."""
    oracle = build_context(False)
    scan = oracle.session.relation("m").build_scan()
    table_rows = [row for batch in oracle.spark_context.iter_batches(scan) for row in batch]
    return table_rows, [oracle.run_query(sql)[0].collect() for sql in POST_AGGREGATE_QUERIES]


class TestGroupByPushdownDifferential:
    FORMAT = "csv"

    def setup_method(self):
        self.oracle = build_context(False, format=self.FORMAT)
        self.push = build_context(True, format=self.FORMAT)

    def test_queries_byte_identical_and_cheaper(self):
        for sql in QUERIES:
            frame_oracle, _ = self.oracle.run_query(sql)
            frame_push, report = self.push.run_query(sql)
            assert_identical(frame_push.collect(), frame_oracle.collect())
            assert frame_push.schema == frame_oracle.schema
            assert report.pushdown_requests > 0

    def test_null_group_keys_survive_the_wire(self):
        sql = "SELECT city, COUNT(*) FROM m GROUP BY city"
        rows = self.push.run_query(sql)[0].collect()
        assert_identical(rows, self.oracle.run_query(sql)[0].collect())
        # The NULL city group really exists and is a Python None, not
        # the empty string the CSV codec would have collapsed it into.
        keys = [row[0] for row in rows]
        assert None in keys
        assert "" not in keys

    def test_empty_match_group_by_returns_no_rows(self):
        sql = "SELECT vid, COUNT(*) FROM m WHERE index > 999 GROUP BY vid"
        assert self.push.run_query(sql)[0].collect() == []

    def test_empty_match_global_aggregate_default_row(self):
        sql = "SELECT COUNT(*), SUM(index) FROM m WHERE index > 999"
        rows = self.push.run_query(sql)[0].collect()
        assert_identical(rows, self.oracle.run_query(sql)[0].collect())
        assert rows == [(0, None)]

    def test_single_group(self):
        sql = (
            "SELECT vid, COUNT(*) FROM m WHERE vid = 'v3' GROUP BY vid"
        )
        rows = self.push.run_query(sql)[0].collect()
        assert_identical(rows, self.oracle.run_query(sql)[0].collect())
        assert len(rows) == 1

    def test_float_sum_plans_and_is_exact(self):
        # SUM / AVG are the exact sum rounded once, so per-partition
        # partial sums merge to the very float the compute side gets
        # from the rows: FLOAT inputs plan like any other.
        sql = "SELECT vid, SUM(power), AVG(power) FROM m GROUP BY vid ORDER BY vid"
        assert gate(sql, SCHEMA).aggregates == [("sum", "power"), ("avg", "power")]
        frame_oracle, report_oracle = self.oracle.run_query(sql)
        frame_push, report_push = self.push.run_query(sql)
        assert_identical(frame_push.collect(), frame_oracle.collect())
        assert isinstance(frame_push.collect()[0][1], float)
        assert report_push.pushdown_requests > 0
        assert report_push.bytes_transferred < report_oracle.bytes_transferred

    def test_having_stays_compute_side_but_correct(self):
        """HAVING is pushed and identical: its aggregates ship as states,
        the executor filters the merged groups."""
        sql = (
            "SELECT vid, COUNT(*) FROM m GROUP BY vid "
            "HAVING SUM(power) > 0 AND COUNT(*) > 50 ORDER BY vid"
        )
        assert gate(sql, SCHEMA).aggregates == [("count", "*"), ("sum", "power")]
        frame, report = self.push.run_query(sql)
        rows = frame.collect()
        assert_identical(rows, self.oracle.run_query(sql)[0].collect())
        assert report.pushdown_requests > 0
        assert 0 < len(rows) < 7
        assert self.push.explain_profile()["sql"]["queries"]["agg_pushdown"] == 1


class TestGroupByPushdownDifferentialColumnar(TestGroupByPushdownDifferential):
    FORMAT = "columnar"


class TestCardinalityOverflow:
    FORMAT = "csv"

    def _spilling_context(self, max_groups):
        ctx = build_context(True, format=self.FORMAT)
        relation = ctx.session.relation("m")
        builder = relation.build_aggregation_scan
        relation.build_aggregation_scan = (
            lambda *scan, _b=builder: _b(*scan, max_groups=max_groups)
        )
        return ctx

    @pytest.mark.parametrize("max_groups", [1, 2, 4])
    def test_spill_to_compute_is_identical(self, max_groups):
        oracle = build_context(False)
        ctx = self._spilling_context(max_groups)
        sql = (
            "SELECT vid, COUNT(*), SUM(index), AVG(index), SUM(power), "
            "AVG(power) FROM m GROUP BY vid ORDER BY vid"
        )
        frame, report = ctx.run_query(sql)
        assert_identical(frame.collect(), oracle.run_query(sql)[0].collect())
        assert report.pushdown_requests > 0

    @pytest.mark.parametrize("max_groups", [1, 2, 4])
    def test_post_aggregate_operators_under_spill(self, max_groups, post_aggregate_oracle):
        assert_post_aggregate_queries(self._spilling_context(max_groups), post_aggregate_oracle)

    def test_unsorted_group_order_matches_oracle_under_spill(self):
        # No ORDER BY: output order is the oracle's global first-seen
        # order, which spilled rows must not disturb.
        oracle = build_context(False)
        ctx = self._spilling_context(1)
        sql = "SELECT city, COUNT(*) FROM m GROUP BY city"
        assert_identical(
            ctx.run_query(sql)[0].collect(),
            oracle.run_query(sql)[0].collect(),
        )


class TestCardinalityOverflowColumnar(TestCardinalityOverflow):
    FORMAT = "columnar"


class TestDegradation:
    FORMAT = "csv"
    SQL = (
        "SELECT vid, COUNT(*), SUM(index), SUM(power) FROM m "
        "GROUP BY vid ORDER BY vid"
    )

    def test_failure_at_open_degrades_identically(self):
        oracle = build_context(False).run_query(self.SQL)[0].collect()
        ctx = build_context(True, format=self.FORMAT)
        original = ctx.connector.open_split_stream

        def failing(split, task=None):
            if task is not None:
                raise PushdownError(
                    "boom", degradable=True, reason="test-open"
                )
            return original(split, task)

        ctx.connector.open_split_stream = failing
        frame, report = ctx.run_query(self.SQL)
        assert_identical(frame.collect(), oracle)
        assert report.pushdown_fallbacks > 0

    def test_mid_stream_failure_resumes_identically(self):
        oracle = build_context(False).run_query(self.SQL)[0].collect()
        ctx = build_context(True, format=self.FORMAT)
        original = ctx.connector.open_split_stream

        def midstream(split, task=None):
            headers, chunks = original(split, task)
            if task is None or split.index != 0:
                return headers, chunks

            def broken():
                # The storlet's records arrive coalesced: cut the first
                # chunk mid-record so some are emitted and some are not.
                first = next(iter(chunks))
                yield first[: len(first) // 2]
                raise PushdownError(
                    "mid", degradable=True, reason="test-mid"
                )

            return headers, broken()

        ctx.connector.open_split_stream = midstream
        frame, report = ctx.run_query(self.SQL)
        assert_identical(frame.collect(), oracle)
        assert report.pushdown_fallbacks == 1

    def test_failure_after_k_records_resumes_behind_them(self):
        """The storlet fails after ``k`` tagged records of a split whose
        plain stream starts with the same ``k``: they are skipped, so
        nothing arrives twice and nothing is lost."""
        k = 3
        ctx = build_context(True, format=self.FORMAT, trace=True)
        relation = ctx.session.relation("m")
        spec = gate(self.SQL, SCHEMA, relation)

        def drained(rdd):
            # The storlet's records crossed JSON (lists), the fallback's
            # did not (tuples): compare them in JSON's shape.
            parts = [
                [record for batch in rdd.compute_batches(i) for record in batch]
                for i in range(rdd.num_partitions())
            ]
            return json.loads(json.dumps(parts))

        want = drained(relation.build_aggregation_scan(spec, []))
        assert len(want[0]) > k
        scan = relation.build_aggregation_scan(spec, [])
        plain = list(scan._fallback_records(*scan.scan._reader_args(scan.splits[0])))
        assert json.loads(json.dumps(plain)) == want[0]
        records = scan._pushdown_records

        def failing(split, *rest):
            for number, record in enumerate(records(split, *rest)):
                if split.index == 0 and number == k:
                    raise PushdownError("mid", degradable=True, reason="test-k")
                yield record

        scan._pushdown_records = failing
        assert drained(scan) == want
        assert ctx.connector.metrics.pushdown_fallbacks == 1
        events = [
            span.attributes
            for span in ctx.tracer.snapshot()
            if span.operation == "agg_pushdown_degraded"
        ]
        assert events == [
            {"split_index": 0, "reason": "test-k", "records_before_failure": k}
        ]

    def test_non_degradable_error_propagates(self):
        ctx = build_context(True, format=self.FORMAT)

        def fatal(split, task=None):
            raise PushdownError("gone", degradable=False, reason="fatal")

        ctx.connector.open_split_stream = fatal
        with pytest.raises(PushdownError):
            ctx.sql(self.SQL).collect()


class TestDegradationColumnar(TestDegradation):
    FORMAT = "columnar"


class TestFaultPlans:
    FORMAT = "csv"
    SQL = (
        "SELECT vid, COUNT(*), SUM(index), AVG(index), SUM(power), "
        "AVG(power) FROM m GROUP BY vid ORDER BY vid"
    )

    @pytest.fixture(scope="class")
    def oracle_rows(self):
        return build_context(False).run_query(self.SQL)[0].collect()

    @pytest.mark.parametrize("plan_name", NAMED_PLANS)
    def test_identical_under_plan_threads(self, plan_name, oracle_rows):
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "7"))
        plan = (
            named_plan(plan_name, seed=seed) if plan_name != "none" else None
        )
        ctx = build_context(True, format=self.FORMAT, fault_plan=plan, parallelism=16)
        assert_identical(
            ctx.run_query(self.SQL)[0].collect(), oracle_rows
        )

    @pytest.mark.parametrize("parallelism", [1, 8])
    @pytest.mark.parametrize("plan_name", NAMED_PLANS)
    def test_identical_under_plan_at_parallelism(self, plan_name, parallelism, oracle_rows):
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "7"))
        plan = named_plan(plan_name, seed=seed) if plan_name != "none" else None
        ctx = build_context(
            True, format=self.FORMAT, fault_plan=plan, parallelism=parallelism
        )
        frame, report = ctx.run_query(self.SQL)
        assert_identical(frame.collect(), oracle_rows)
        assert report.pushdown_requests + report.pushdown_fallbacks > 0

    @pytest.mark.parametrize("plan_name", NAMED_PLANS)
    def test_post_aggregate_operators_under_plan_threads(
        self, plan_name, post_aggregate_oracle
    ):
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "7"))
        plan = named_plan(plan_name, seed=seed) if plan_name != "none" else None
        ctx = build_context(True, format=self.FORMAT, fault_plan=plan, parallelism=16)
        assert_post_aggregate_queries(ctx, post_aggregate_oracle)


class TestFaultPlansColumnar(TestFaultPlans):
    FORMAT = "columnar"


# --------------------------------------------------------------------------
# Merge associativity: random rows, random partitioning, random spill
# --------------------------------------------------------------------------

MERGE_SCHEMA = Schema.of("k:int", "v:int", "f:float")
MERGE_SQL = (
    "SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v), SUM(f), AVG(f) "
    "FROM t GROUP BY k"
)
MERGE_SPEC = gate(MERGE_SQL, MERGE_SCHEMA)

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        st.one_of(
            st.none(),
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
        ),
        st.one_of(
            st.none(),
            st.sampled_from([0.0, -0.0]),
            # Magnitudes 1e-8 .. 1e8, either sign, full mantissas.
            st.builds(
                lambda mantissa, exponent: mantissa * 10.0**exponent,
                st.floats(min_value=-10.0, max_value=10.0),
                st.integers(min_value=-8, max_value=7),
            ),
        ),
    ),
    max_size=80,
)


def reference_aggregate(rows):
    """Independent oracle, first-seen order: SUM / AVG from
    ``fractions.Fraction`` (INT) and ``math.fsum`` (FLOAT)."""
    groups = {}
    for key, value, number in rows:
        state = groups.setdefault(key, {"count": 0, "ints": [], "floats": []})
        state["count"] += 1
        if value is not None:
            state["ints"].append(value)
        if number is not None:
            state["floats"].append(number)
    result = []
    for key, state in groups.items():
        ints, floats = state["ints"], state["floats"]
        result.append(
            (
                key,
                state["count"],
                sum(ints) if ints else None,
                float(Fraction(sum(ints), len(ints))) if ints else None,
                min(ints, default=None),
                max(ints, default=None),
                math.fsum(floats) if floats else None,
                math.fsum(floats) / len(floats) if floats else None,
            )
        )
    return result


@given(
    rows=rows_strategy,
    cut_seed=st.integers(min_value=0, max_value=2**30),
    partitions=st.integers(min_value=1, max_value=5),
    max_groups=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=120, deadline=None)
def test_merge_equals_oracle_under_random_splits(
    rows, cut_seed, partitions, max_groups
):
    """Partial aggregation per partition + merge == the oracle, for
    every row multiset, partitioning, and spill threshold -- compared
    with ``==``, float sums included."""
    import random

    rng = random.Random(cut_seed)
    assignment = [rng.randrange(partitions) for _ in rows]
    parts = [
        [row for row, where in zip(rows, assignment) if where == split]
        for split in range(partitions)
    ]
    records = []
    for split, part in enumerate(parts):
        batches = [ColumnBatch.from_rows(MERGE_SCHEMA, part)]
        for record in partial_aggregate(batches, MERGE_SPEC, MERGE_SCHEMA, max_groups):
            # Over the wire, as the storlet sends it.
            records.append((split, *json.loads(json.dumps(record))))
    _schema, merged = execute_partials(MERGE_SQL, MERGE_SCHEMA, records)
    # The oracle sees partitions in partition order (the scheduler's
    # determinism contract), so first-seen order is over the
    # partition-concatenated stream.
    expected = reference_aggregate(
        [row for part in parts for row in part]
    )
    assert merged == expected
    for row_merged, row_expected in zip(merged, expected):
        for a, b in zip(row_merged, row_expected):
            assert type(a) is type(b), (a, b)


# --------------------------------------------------------------------------
# One value per multiset: every path answers the pinned results
# --------------------------------------------------------------------------

EXACT_SCHEMA = Schema.of("vid", "n:int", "x:float")

#: ``vid`` -> its ``(n, x)`` rows, and the pinned ``SUM(n), AVG(n),
#: SUM(x), AVG(x), MIN(x), MAX(x)`` (as ``repr``: NaN is not ``==``
#: itself).  ``big`` is the AVG(INT) case a float accumulator answers
#: 4503599627370496.0 for in row order, and whose 1 024 x 0.1 drifts
#: when added one by one.  MIN / MAX follow Spark's total order (NaN
#: above every number, NULL ignored): ``nan`` and ``order`` are the
#: cases ``<`` against NaN answers by where the NaN sits.
EXACT_GROUPS = {
    "big": (
        [(2**62, 0.1)] + [(255, 0.1)] * 1023,
        "(4611686018427648769, 4503599627370751.0, 102.4, 0.1, 0.1, 0.1)",
    ),
    "nan": ([(1, math.nan), (2, 1.0)], "(3, 1.5, nan, nan, 1.0, nan)"),
    "inf": ([(1, math.inf), (2, 1.0)], "(3, 1.5, inf, inf, 1.0, inf)"),
    "both": ([(1, math.inf), (2, -math.inf)], "(3, 1.5, nan, nan, -inf, inf)"),
    "over": ([(1, 1e308), (2, 1e308)], "(3, 1.5, inf, inf, 1e+308, 1e+308)"),
    "back": (
        [(1, 1e308), (2, 1e308), (3, -1e308)],
        "(6, 2.0, 1e+308, 3.333333333333333e+307, -1e+308, 1e+308)",
    ),
    "zero": ([(None, -0.0), (None, -0.0)], "(None, None, 0.0, 0.0, -0.0, -0.0)"),
    "null": ([(None, None)], "(None, None, None, None, None, None)"),
    "order": (
        [(5, 5.0), (None, math.nan), (1, 1.0)],
        "(6, 3.0, nan, nan, 1.0, nan)",
    ),
}
EXACT_SQL = (
    "SELECT vid, SUM(n), AVG(n), SUM(x), AVG(x), MIN(x), MAX(x) "
    "FROM e GROUP BY vid"
)


@pytest.mark.parametrize("parallelism", [1, 8])
@pytest.mark.parametrize(
    "table_format, agg_pushdown",
    [("csv", False), ("csv", True), ("columnar", False), ("columnar", True)],
)
def test_pinned_sums_on_every_path(table_format, agg_pushdown, parallelism):
    ctx = ScoopContext(chunk_size=2048, parallelism=parallelism)
    lines = [
        "{},{},{}".format(
            vid, "" if n is None else n, "" if x is None else repr(x)
        )
        for vid, (rows, _pinned) in EXACT_GROUPS.items()
        for n, x in rows
    ]
    # The first object is the one 2**62 row: a float accumulator that
    # meets it first loses every 255 after it.
    for number, part in enumerate([lines[:1], lines[1:700], lines[700:]]):
        ctx.upload_csv("exact", f"part-{number}.csv", "\n".join(part) + "\n")
    ctx.register_csv_table(
        "e", "exact", schema=EXACT_SCHEMA, format=table_format,
        agg_pushdown=agg_pushdown,
    )
    frame, report = ctx.run_query(EXACT_SQL)
    pinned = {vid: answer for vid, (_rows, answer) in EXACT_GROUPS.items()}
    assert {row[0]: repr(row[1:]) for row in frame.collect()} == pinned
    assert (report.pushdown_requests > 0) == agg_pushdown
    # And the executor alone, over the rows of the same table.
    scan = ctx.session.relation("e").build_scan()
    table_rows = [row for batch in ctx.spark_context.iter_batches(scan) for row in batch]
    _schema, rows = execute_query(EXACT_SQL, EXACT_SCHEMA, table_rows)
    assert {row[0]: repr(row[1:]) for row in rows} == pinned


# --------------------------------------------------------------------------
# RCF1 honours the flag: the same option, the same stage, fewer bytes
# --------------------------------------------------------------------------


def test_rcf1_registered_through_register_csv_table_pushes_group_by_down():
    """``register_csv_table(format="columnar", agg_pushdown=True)``
    registers a relation that aggregates at the store: on one
    40 000-row GridPocket object it moves a fraction of what RCF1
    without aggregation pushdown moves, says so in ``explain()`` and in
    ``sql.queries``, and answers exactly as CSV with the flag on and off
    and RCF1 with it off."""
    from repro.gridpocket import METER_SCHEMA, DatasetSpec, upload_dataset

    ctx = ScoopContext(chunk_size=256 * 1024)
    upload_dataset(ctx.client, "meters", DatasetSpec(meters=200, intervals=200))
    for table, table_format, agg_pushdown in (
        ("csv_off", "csv", False),
        ("csv_on", "csv", True),
        ("rcf_off", "columnar", False),
        ("rcf_on", "columnar", True),
    ):
        ctx.register_csv_table(
            table, "meters", schema=METER_SCHEMA, format=table_format,
            agg_pushdown=agg_pushdown,
        )
    sql = "SELECT city, COUNT(*), SUM(index), MAX(code) FROM {} GROUP BY city"
    answers, moved = {}, {}
    for table in ("csv_off", "csv_on", "rcf_off", "rcf_on"):
        frame, report = ctx.run_query(sql.format(table))
        answers[table], moved[table] = frame.collect(), report.bytes_transferred
    for table in ("csv_on", "rcf_off", "rcf_on"):
        assert_identical(answers[table], answers["csv_off"])
    assert moved["rcf_on"] < moved["rcf_off"] / 10
    assert ctx.explain_profile()["sql"]["queries"] == {"agg_pushdown": 2, "batch": 2}
    explained = ctx.sql(sql.format("rcf_on")).explain()
    assert explained.endswith(
        "eligible keys=[city] aggregates=[count(*), sum(index), max(code)]"
    )
