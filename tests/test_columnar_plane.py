"""End-to-end tests for the columnar data plane (docs/columnar.md).

The governing contract: a query over the columnar fast path returns
*byte-identical* rows to the same query over the row-oriented CSV path
-- at any parallelism and under every named fault plan.  On top of
identity, the columnar plane must earn its keep: segment-granular reads
below object size without pushdown, stripe stats pruning, and trace
totals that still reconcile exactly.
"""

import pytest

from repro.core.scoop import ScoopContext
from repro.faults import NAMED_PLANS, named_plan
from repro.sql.types import Schema
from repro.swift.retry import RetryPolicy

SCHEMA = Schema.of("vid", "date", "index:float", "code:int", "city")

#: One query per plan shape the fast path accelerates: full scan,
#: filtered projection, early-stopping limit, grouped aggregation.
QUERIES = (
    "SELECT * FROM t",
    "SELECT vid, code FROM t WHERE code > 120 AND city <> 'city1'",
    "SELECT vid FROM t WHERE city = 'city3' LIMIT 7",
    "SELECT city, COUNT(*), SUM(code), AVG(index) FROM t "
    "GROUP BY city ORDER BY city",
)


def _csv_body(tag="city"):
    return "\n".join(
        f"v{i},2024-01-{(i % 28) + 1:02d},{i / 10.0},{i},{tag}{i % 5}"
        for i in range(400)
    ) + "\n"


def _context(fmt, plan=None, parallelism=1, **kwargs):
    ctx = ScoopContext(
        chunk_size=16 * 1024,
        parallelism=parallelism,
        retry_policy=RetryPolicy(seed=7),
        fault_plan=named_plan(plan, seed=7) if plan else None,
        **kwargs,
    )
    ctx.upload_csv("data", "part-000.csv", _csv_body())
    ctx.upload_csv("data", "part-001.csv", _csv_body("town"))
    ctx.register_csv_table("t", "data", schema=SCHEMA, format=fmt)
    return ctx


@pytest.fixture(scope="module")
def row_baseline():
    ctx = _context("csv")
    return {sql: ctx.sql(sql).collect() for sql in QUERIES}


class TestByteIdentity:
    @pytest.mark.parametrize("plan", NAMED_PLANS)
    @pytest.mark.parametrize(
        "parallelism", [1, 16], ids=["serial", "threads-16"]
    )
    def test_columnar_matches_row_path(self, row_baseline, plan, parallelism):
        ctx = _context("columnar", plan=plan, parallelism=parallelism)
        for sql, expected in row_baseline.items():
            assert ctx.sql(sql).collect() == expected, (sql, plan)

    def test_plain_columnar_matches_row_path(self, row_baseline):
        ctx = ScoopContext(chunk_size=16 * 1024)
        ctx.upload_csv("data", "part-000.csv", _csv_body())
        ctx.upload_csv("data", "part-001.csv", _csv_body("town"))
        ctx.register_csv_table(
            "t", "data", schema=SCHEMA, pushdown=False, format="columnar"
        )
        for sql, expected in row_baseline.items():
            assert ctx.sql(sql).collect() == expected


class TestDegradation:
    def test_storlet_crash_degrades_and_stays_identical(self, row_baseline):
        """Every pushdown GET crashing on every replica forces the
        degraded plain-read path for every split -- rows must still be
        byte-identical and the fallback counter must account for it."""
        from repro.faults import FaultPlan
        from repro.faults.plan import StorletCrash

        plan = FaultPlan(
            faults=(StorletCrash(storlet="columnarstorlet", times=None),)
        )
        ctx = ScoopContext(
            chunk_size=16 * 1024,
            retry_policy=RetryPolicy(seed=7),
            fault_plan=plan,
        )
        ctx.upload_csv("data", "part-000.csv", _csv_body())
        ctx.upload_csv("data", "part-001.csv", _csv_body("town"))
        ctx.register_csv_table("t", "data", schema=SCHEMA, format="columnar")
        for sql, expected in row_baseline.items():
            assert ctx.sql(sql).collect() == expected
        assert ctx.connector.metrics.pushdown_fallbacks > 0
        assert ctx.fault_plan.fired("storlet-fault") > 0


class TestColumnarEconomics:
    def test_projection_reads_fewer_bytes_than_object(self):
        """Without pushdown the reader still fetches only the referenced
        column segments -- bytes transferred < total object size."""
        ctx = ScoopContext()
        ctx.upload_csv("data", "part-000.csv", _csv_body())
        ctx.register_csv_table(
            "t", "data", schema=SCHEMA, pushdown=False, format="columnar"
        )
        _frame, report = ctx.run_query("SELECT code FROM t")
        object_bytes = ctx.connector.dataset_size("data--columnar")
        assert 0 < report.bytes_transferred < object_bytes

    def test_stripe_pruning_skips_refuted_stripes(self):
        """A predicate no stripe can satisfy reads nothing at all."""
        ctx = ScoopContext()
        ctx.upload_csv("data", "part-000.csv", _csv_body())
        ctx.register_csv_table("t", "data", schema=SCHEMA, format="columnar")
        _frame, report = ctx.run_query("SELECT vid FROM t WHERE code > 10000")
        assert report.rows == 0
        assert report.requests == 0
        assert report.bytes_transferred == 0

    def test_plain_columnar_beats_plain_csv_on_projection(self):
        """Where the format itself pays off: with pushdown disabled the
        CSV reader must move whole objects while the columnar reader
        fetches only the projected column's segments."""
        sql = "SELECT code FROM t"

        def run(fmt):
            ctx = ScoopContext(chunk_size=16 * 1024)
            ctx.upload_csv("data", "part-000.csv", _csv_body())
            ctx.register_csv_table(
                "t", "data", schema=SCHEMA, pushdown=False, format=fmt
            )
            return ctx.run_query(sql)[1]

        csv_report = run("csv")
        col_report = run("columnar")
        assert col_report.rows == csv_report.rows
        assert col_report.bytes_transferred < csv_report.bytes_transferred

    def test_limit_stops_early(self):
        ctx = _context("columnar", parallelism=8)
        _f, limited = ctx.run_query("SELECT * FROM t LIMIT 20")
        _f, full = ctx.run_query("SELECT * FROM t")
        assert limited.rows == 20
        assert limited.bytes_transferred < full.bytes_transferred


class TestTraceReconciliation:
    def test_connector_tier_balances_exactly(self):
        """Segment-granular reads keep bytes below object size, yet the
        trace's connector tier reconciles with TransferMetrics to the
        byte -- on the pushdown path and the plain path alike."""
        for pushdown in (True, False):
            ctx = ScoopContext(trace=True)
            ctx.upload_csv("data", "part-000.csv", _csv_body())
            ctx.register_csv_table(
                "t", "data", schema=SCHEMA, pushdown=pushdown,
                format="columnar",
            )
            ctx.run_query("SELECT vid, code FROM t WHERE code > 120")
            ctx.run_query("SELECT city FROM t")
            profile = ctx.explain_profile()
            tier = profile["tiers"]["connector"]
            metrics = ctx.connector.metrics
            assert tier["bytes_out"] == metrics.bytes_transferred
            assert metrics.bytes_transferred < ctx.connector.dataset_size(
                "data--columnar"
            )


class TestConversion:
    def test_shadow_container_holds_rcf_objects(self):
        ctx = ScoopContext()
        ctx.upload_csv("data", "part-000.csv", _csv_body())
        ctx.upload_csv("data", "part-001.csv", _csv_body("town"))
        ctx.register_csv_table("t", "data", schema=SCHEMA, format="columnar")
        names = ctx.client.list_objects("data--columnar")
        assert names == ["part-000.rcf", "part-001.rcf"]
        headers = ctx.client.head_object("data--columnar", "part-000.rcf")
        assert headers.get("x-object-meta-columnar-format") == "RCF1"
        assert int(headers.get("x-object-meta-columnar-rows", 0)) == 400

    def test_format_csv_pin_bypasses_conversion(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORMAT", "columnar")
        ctx = ScoopContext()
        assert ctx.default_format == "columnar"
        ctx.upload_csv("data", "part-000.csv", _csv_body())
        ctx.register_csv_table("t", "data", schema=SCHEMA, format="csv")
        assert "data--columnar" not in ctx.client.list_containers()

    def test_explicit_columnar_registration(self):
        ctx = ScoopContext()
        ctx.upload_csv("src", "a.csv", _csv_body())
        written = ctx.convert_csv_to_columnar(
            "src", "dst", SCHEMA
        )
        assert written == ["a.rcf"]
        relation = ctx.register_columnar_table("t", "dst")
        assert relation.schema().names == SCHEMA.names
        rows = ctx.sql("SELECT COUNT(*) FROM t").collect()
        assert rows == [(400,)]


class TestOneDropRule:
    """A record untypable in *any* schema column is dropped on every
    path, filter or no filter: the reader owns the rule, so CSV
    pushdown, plain CSV and columnar cannot disagree."""

    BODY = "a,1,1.5\nb,2,oops\nc,3,2.5\n"  # b's float column is untypable

    @pytest.fixture(scope="class")
    def ctx(self):
        ctx = ScoopContext()
        ctx.upload_csv("drop", "part.csv", self.BODY)
        schema = Schema.of("vid", "n:int", "x:float")
        for table, options in {
            "pushdown": dict(pushdown=True, format="csv"),
            "plain": dict(pushdown=False, format="csv"),
            "columnar": dict(format="columnar"),
        }.items():
            ctx.register_csv_table(table, "drop", schema=schema, **options)
        return ctx

    @pytest.mark.parametrize("table", ["pushdown", "plain", "columnar"])
    @pytest.mark.parametrize(
        "where", ["", " WHERE n >= 1"], ids=["no-filter", "filter"]
    )
    def test_untypable_record_dropped_everywhere(self, ctx, table, where):
        rows = ctx.sql(f"SELECT vid FROM {table}{where}").collect()
        assert rows == [("a",), ("c",)]
