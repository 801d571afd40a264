"""End-to-end tests for the object-level data-skipping catalog.

The catalog rides the discovery HEADs the connector already issues, so
arming it costs zero extra requests; at selective predicates it drops
whole objects with zero GETs.  The governing contract is the same as
stripe pruning: byte-identical results with the catalog on or off, at
any parallelism, under every named fault plan, and under stale, missing
or corrupt metadata (which must degrade to "may match", never skip).
"""

import json

import pytest

from repro.catalog import CATALOG_HEADER
from repro.core.scoop import ScoopContext
from repro.faults import NAMED_PLANS, named_plan
from repro.sql.types import Schema
from repro.swift.retry import RetryPolicy

SCHEMA = Schema.of("vid", "date", "index:float", "code:int", "city")

#: part-000 holds code 0..399 / city0..4; part-001 holds code
#: 1000..1399 / town0..4 -- disjoint ranges so single-object predicates
#: exist alongside impossible ones.
QUERIES = (
    "SELECT * FROM t",
    "SELECT vid, code FROM t WHERE code > 1100",
    "SELECT vid FROM t WHERE city = 'town3'",
    "SELECT vid, index FROM t WHERE code > 5000",
    "SELECT city, COUNT(*), SUM(code) FROM t "
    "WHERE code < 300 GROUP BY city ORDER BY city",
)


def _csv_body(tag="city", offset=0):
    return "\n".join(
        f"v{offset + i},2024-01-{(i % 28) + 1:02d},"
        f"{i / 10.0},{offset + i},{tag}{i % 5}"
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
    # The catalog is computed by the PUT-path storlets, so ingest
    # through the cleansing ETL policy (as production data would be).
    ctx.upload_csv("data", "part-000.csv", _csv_body(), etl_schema=SCHEMA)
    ctx.upload_csv(
        "data", "part-001.csv", _csv_body("town", offset=1000),
        etl_schema=SCHEMA,
    )
    ctx.register_csv_table("t", "data", schema=SCHEMA, format=fmt)
    return ctx


@pytest.fixture(scope="module")
def baseline():
    """Catalog-disabled row-path truth for every query (pinned off so
    the fixture stays a valid oracle under REPRO_SKIPPING=1 runs)."""
    ctx = _context("csv", skipping=False)
    assert ctx.connector.skipping is False
    return {sql: ctx.sql(sql).collect() for sql in QUERIES}


class TestSkipCounts:
    @pytest.mark.parametrize("fmt", ["csv", "columnar"])
    def test_impossible_predicate_skips_every_object(self, baseline, fmt):
        ctx = _context(fmt, skipping=True)
        _frame, report = ctx.run_query(
            "SELECT vid, index FROM t WHERE code > 5000"
        )
        assert report.rows == 0
        assert report.objects_skipped == 2
        assert report.requests == 0  # zero GETs: refuted from the catalog

    def test_selective_predicate_skips_the_other_object(self, baseline):
        ctx = _context("csv", skipping=True)
        _frame, report = ctx.run_query("SELECT vid FROM t WHERE city = 'town3'")
        assert report.objects_skipped == 1
        assert ("data", "part-000.csv") in ctx.connector.catalog_skipped

    def test_catalog_rides_existing_heads(self, baseline):
        """Arming the catalog must not add requests, only remove them."""
        off = _context("csv", skipping=False)
        armed = _context("csv", skipping=True)
        sql = "SELECT vid, code FROM t WHERE code > 1100"
        _f, report_off = off.run_query(sql)
        _f, report_armed = armed.run_query(sql)
        assert report_armed.rows == report_off.rows
        assert report_armed.requests < report_off.requests
        assert report_armed.objects_skipped == 1

    def test_disabled_by_default_and_counts_zero(self, monkeypatch, baseline):
        monkeypatch.delenv("REPRO_SKIPPING", raising=False)
        ctx = _context("csv")
        _frame, report = ctx.run_query(
            "SELECT vid, index FROM t WHERE code > 5000"
        )
        assert report.objects_skipped == 0
        assert ctx.connector.catalog_skipped == []

    def test_env_var_arms_the_catalog(self, monkeypatch, baseline):
        monkeypatch.setenv("REPRO_SKIPPING", "1")
        ctx = _context("csv")
        assert ctx.connector.skipping is True
        _frame, report = ctx.run_query(
            "SELECT vid, index FROM t WHERE code > 5000"
        )
        assert report.objects_skipped == 2

    def test_env_var_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SKIPPING", "0")
        ctx = ScoopContext(chunk_size=16 * 1024)
        assert ctx.connector.skipping is False

    def test_explain_profile_reports_catalog(self, baseline):
        ctx = _context("csv", skipping=True)
        ctx.sql("SELECT vid FROM t WHERE code > 5000").collect()
        profile = ctx.explain_profile()
        assert profile["catalog"]["enabled"] is True
        assert profile["catalog"]["objects_skipped"] == 2
        assert sorted(profile["catalog"]["skipped"]) == [
            ("data", "part-000.csv"),
            ("data", "part-001.csv"),
        ]


class TestByteIdentity:
    @pytest.mark.parametrize("plan", NAMED_PLANS)
    @pytest.mark.parametrize("fmt", ["csv", "columnar"])
    def test_armed_matches_disabled(self, baseline, fmt, plan):
        ctx = _context(fmt, plan=plan, skipping=True)
        for sql, expected in baseline.items():
            assert ctx.sql(sql).collect() == expected, (sql, fmt, plan)

    @pytest.mark.parametrize("parallelism", [16], ids=["threads-16"])
    def test_armed_matches_disabled_parallel(self, baseline, parallelism):
        ctx = _context("columnar", parallelism=parallelism, skipping=True)
        for sql, expected in baseline.items():
            assert ctx.sql(sql).collect() == expected, sql


class TestStaleness:
    """Absent or unparseable catalog entries refute nothing."""

    def _armed_context(self, mutate):
        ctx = ScoopContext(
            chunk_size=16 * 1024,
            retry_policy=RetryPolicy(seed=7),
            skipping=True,
        )
        ctx.upload_csv("data", "part-000.csv", _csv_body(), etl_schema=SCHEMA)
        ctx.upload_csv(
            "data", "part-001.csv", _csv_body("town", offset=1000),
            etl_schema=SCHEMA,
        )
        # Corrupt BEFORE registration: the connector snapshots catalogs
        # from the discovery HEADs, which happen at register time.
        mutate(ctx.client)
        ctx.register_csv_table("t", "data", schema=SCHEMA, format="csv")
        return ctx

    @pytest.mark.parametrize(
        "label,metadata",
        [
            ("missing", {}),
            ("corrupt", {"scoop-catalog": "}{ not json"}),
            ("wrong-version", {"scoop-catalog": json.dumps({"v": 99})}),
            ("wrong-shape", {"scoop-catalog": json.dumps([1, 2, 3])}),
            (
                "truncated",
                {"scoop-catalog": json.dumps({"v": 1, "rows": "many"})},
            ),
        ],
    )
    def test_degraded_catalog_never_skips(self, baseline, label, metadata):
        def mutate(client):
            for name in ("part-000.csv", "part-001.csv"):
                client.post_object("data", name, metadata)
                headers = client.head_object("data", name)
                present = CATALOG_HEADER in headers
                assert present == bool(metadata), label

        ctx = self._armed_context(mutate)
        _frame, report = ctx.run_query(
            "SELECT vid, index FROM t WHERE code > 5000"
        )
        assert report.objects_skipped == 0, label
        for sql, expected in baseline.items():
            assert ctx.sql(sql).collect() == expected, (sql, label)

    def test_half_stale_still_skips_the_healthy_object(self, baseline):
        """One corrupt entry disables skipping for that object only."""

        def mutate(client):
            client.post_object("data", "part-000.csv", {"scoop-catalog": "x"})

        ctx = self._armed_context(mutate)
        _frame, report = ctx.run_query(
            "SELECT vid, index FROM t WHERE code > 5000"
        )
        assert report.rows == 0
        assert report.objects_skipped == 1
        assert ctx.connector.catalog_skipped == [("data", "part-001.csv")]

    @pytest.mark.parametrize("plan", NAMED_PLANS)
    def test_degradation_is_identical_under_faults(self, baseline, plan):
        ctx = ScoopContext(
            chunk_size=16 * 1024,
            retry_policy=RetryPolicy(seed=7),
            fault_plan=named_plan(plan, seed=7) if plan != "none" else None,
            skipping=True,
        )
        # Garbage catalogs attached at PUT time (a metadata POST is not
        # replica-tolerant under device loss, a PUT is).
        ctx.client.put_container("data")
        for name, body in (
            ("part-000.csv", _csv_body()),
            ("part-001.csv", _csv_body("town", offset=1000)),
        ):
            ctx.client.put_object(
                "data", name, body, headers={CATALOG_HEADER: "garbage"}
            )
        ctx.register_csv_table("t", "data", schema=SCHEMA, format="csv")
        for sql, expected in baseline.items():
            assert ctx.sql(sql).collect() == expected, (sql, plan)


class TestStorletEmission:
    def test_cleansing_storlet_emits_catalog(self):
        ctx = ScoopContext(chunk_size=16 * 1024)
        ctx.upload_csv(
            "raw", "part-000.csv", _csv_body(), etl_schema=SCHEMA
        )
        headers = ctx.client.head_object("raw", "part-000.csv")
        payload = json.loads(headers[CATALOG_HEADER])
        assert payload["rows"] == 400
        assert payload["cols"]["code"]["min"] == 0
        assert payload["cols"]["code"]["max"] == 399

    def test_columnar_storlet_emits_catalog(self):
        ctx = _context("columnar")
        names = ctx.client.list_objects("data--columnar")
        assert names
        for name in names:
            headers = ctx.client.head_object("data--columnar", name)
            payload = json.loads(headers[CATALOG_HEADER])
            assert payload["v"] == 1
            assert payload["rows"] == 400
            assert set(payload["cols"]) == {
                "vid", "date", "index", "code", "city",
            }
