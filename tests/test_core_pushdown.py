"""Tests for PushdownTask, the delegator and the placement engine's
tenant/CPU veto ladder (the paper's Section VII adaptive pushdown)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AnalyticsDelegator, PushdownTask
from repro.placement import (
    PlacementEngine,
    TenantClass,
    TenantPolicy,
    task_signature,
)
from repro.sql import EqualTo, Schema, StringStartsWith
from repro.storlets.engine import StorletRequestHeaders

SCHEMA = Schema.of("vid", "date", "index:float", "city")


class TestPushdownTask:
    def test_noop_detection(self):
        assert PushdownTask(schema=SCHEMA).is_noop()
        assert PushdownTask(schema=SCHEMA, columns=SCHEMA.names).is_noop()
        assert not PushdownTask(schema=SCHEMA, columns=["vid"]).is_noop()
        assert not PushdownTask(
            schema=SCHEMA, filters=[EqualTo("city", "Paris")]
        ).is_noop()

    def test_pruned_schema(self):
        task = PushdownTask(schema=SCHEMA, columns=["vid", "index"])
        pruned = task.pruned_schema()
        assert pruned.names == ["vid", "index"]
        assert pruned.field("index").dtype.value == "float"

    def test_parameters_round_trip(self):
        task = PushdownTask(
            schema=SCHEMA,
            columns=["vid", "city"],
            filters=[StringStartsWith("date", "2015"), EqualTo("city", "x")],
            has_header=True,
            delimiter=";",
        )
        restored = PushdownTask.from_parameters(task.to_parameters())
        assert restored.schema == task.schema
        assert restored.columns == task.columns
        assert restored.filters == task.filters
        assert restored.has_header is True
        assert restored.delimiter == ";"

    def test_apply_to_headers_sets_invocation(self):
        task = PushdownTask(schema=SCHEMA, columns=["vid"])
        headers = {}
        task.apply_to_headers(headers)
        assert headers[StorletRequestHeaders.RUN] == "csvstorlet"
        assert headers[StorletRequestHeaders.RUN_ON] == "object"
        params = StorletRequestHeaders.parameters_from(headers)
        assert params["schema"] == SCHEMA.to_header()

    def test_describe(self):
        task = PushdownTask(schema=SCHEMA, columns=["vid"])
        assert "csvstorlet" in task.describe()

    def test_from_parameters_keeps_run_on_and_compress(self):
        task = PushdownTask(
            schema=SCHEMA,
            columns=["vid"],
            run_on="proxy",
            compress=True,
        )
        restored = PushdownTask.from_parameters(
            task.to_parameters(),
            storlet=task.storlet,
            run_on=task.run_on,
            compress=task.compress,
        )
        assert restored.run_on == "proxy"
        assert restored.compress is True

    @settings(max_examples=60, deadline=None)
    @given(
        columns=st.one_of(
            st.none(),
            st.lists(
                st.sampled_from(SCHEMA.names), min_size=1, unique=True
            ),
        ),
        filters=st.lists(
            st.one_of(
                st.builds(
                    EqualTo,
                    st.sampled_from(SCHEMA.names),
                    st.text(
                        alphabet=st.characters(
                            blacklist_characters=",\n\r",
                            blacklist_categories=("Cs",),
                        ),
                        max_size=8,
                    ),
                ),
                st.builds(
                    StringStartsWith,
                    st.sampled_from(SCHEMA.names),
                    st.text(
                        alphabet=st.characters(
                            blacklist_characters=",\n\r",
                            blacklist_categories=("Cs",),
                        ),
                        max_size=8,
                    ),
                ),
            ),
            max_size=3,
        ),
        has_header=st.booleans(),
        delimiter=st.sampled_from([",", ";", "|", "\t"]),
        run_on=st.sampled_from(["object", "proxy"]),
        compress=st.booleans(),
    )
    def test_header_round_trip_property(
        self, columns, filters, has_header, delimiter, run_on, compress
    ):
        """apply_to_headers -> from_headers is lossless, including the
        run_on/compress flags that live outside the parameter headers."""
        task = PushdownTask(
            schema=SCHEMA,
            columns=columns,
            filters=filters,
            has_header=has_header,
            delimiter=delimiter,
            run_on=run_on,
            compress=compress,
        )
        headers = {}
        task.apply_to_headers(headers)
        restored = PushdownTask.from_headers(headers)
        assert restored.schema == task.schema
        # A projection naming every column is deliberately dropped from
        # the wire format (it is a no-op at the storlet).
        expected_columns = (
            None
            if columns is not None and len(columns) == len(SCHEMA)
            else columns
        )
        assert restored.columns == expected_columns
        assert restored.filters == task.filters
        assert restored.has_header is has_header
        assert restored.delimiter == delimiter
        assert restored.storlet == task.storlet
        assert restored.run_on == run_on
        assert restored.compress is compress


def _engine(cpu, *policies, mode="object", **options):
    """An engine reading a fixed storage CPU, with ``policies`` set."""
    engine = PlacementEngine(mode=mode, storage_cpu=lambda: cpu, **options)
    for policy in policies:
        engine.set_policy(policy)
    return engine


class TestDelegator:
    QUERY = "SELECT vid FROM t WHERE city LIKE 'Rotterdam'"

    def test_builds_task_from_query(self):
        delegator = AnalyticsDelegator()
        task = delegator.make_task(self.QUERY, SCHEMA)
        assert task is not None
        assert task.columns == ["vid"]  # city is filtered on, not shipped
        assert task.filters == [EqualTo("city", "Rotterdam")]

    def test_noop_query_yields_none(self):
        delegator = AnalyticsDelegator()
        task = delegator.make_task("SELECT * FROM t", SCHEMA)
        assert task is None
        assert delegator.log[-1].reason == "noop"

    def test_controller_veto_respected(self):
        engine = _engine(0.99, TenantPolicy("t1", TenantClass.BRONZE))
        delegator = AnalyticsDelegator(engine)
        task = delegator.make_task(self.QUERY, SCHEMA, tenant="t1")
        assert task is None
        assert delegator.pushdown_rate() == 0.0
        assert delegator.log[-1].reason == "veto:cpu_ceiling"
        assert engine.decisions[-1].tier == "compute"

    def test_gold_tenant_keeps_service_under_pressure(self):
        engine = _engine(0.99, TenantPolicy("vip", TenantClass.GOLD))
        delegator = AnalyticsDelegator(engine)
        task = delegator.make_task(self.QUERY, SCHEMA, tenant="vip")
        assert task is not None
        assert delegator.pushdown_rate() == 1.0
        assert delegator.log[-1].reason == "placed:object"
        assert "gold_exempt" in engine.decisions[-1].reason

    def test_log_records_details(self):
        delegator = AnalyticsDelegator()
        delegator.make_task(self.QUERY, SCHEMA, tenant="acme")
        record = delegator.log[0]
        assert record.tenant == "acme"
        assert record.pushed_down
        assert record.filter_count == 1
        assert record.column_count == 1


class TestAdaptiveController:
    """The engine's veto ladder, rule by rule, in every tenant class."""

    def make_task(self):
        return PushdownTask(
            schema=SCHEMA,
            columns=["vid"],
            filters=[StringStartsWith("date", "2015")],
        )

    def decide(self, engine, tenant, task=None):
        task = task or self.make_task()
        return engine.decide(
            task_signature("c", "", task), 1e6, kept_hint=0.5, tenant=tenant
        )

    def test_idle_storage_everyone_pushes(self):
        engine = _engine(0.1)
        for tenant_class in TenantClass:
            engine.set_policy(TenantPolicy("t", tenant_class))
            decision = self.decide(engine, "t")
            assert decision.veto is None and decision.tier == "object"
            assert "idle" in decision.reason

    def test_soft_ceiling_sheds_bronze_first(self):
        engine = _engine(
            0.7,
            TenantPolicy("b", TenantClass.BRONZE),
            TenantPolicy("s", TenantClass.SILVER),
        )
        assert self.decide(engine, "b").veto == "bronze_shed"
        silver = self.decide(engine, "s")
        assert silver.veto is None and "below_ceiling" in silver.reason

    def test_hard_ceiling_spares_only_gold(self):
        engine = _engine(
            0.9,
            TenantPolicy("g", TenantClass.GOLD),
            TenantPolicy("s", TenantClass.SILVER),
        )
        assert self.decide(engine, "g").veto is None
        assert self.decide(engine, "s").veto == "cpu_ceiling"

    def test_disabled_tenant_never_pushes(self):
        engine = _engine(0.0, TenantPolicy("off", pushdown_enabled=False))
        decision = self.decide(engine, "off")
        assert decision.veto == "tenant_disabled"
        assert decision.tier == "compute"
        # Ahead of every CPU rule: even a gold tenant can be switched off.
        engine.set_policy(TenantPolicy("off", TenantClass.GOLD, False))
        assert self.decide(engine, "off").veto == "tenant_disabled"

    def test_low_selectivity_not_worth_pushing(self):
        engine = _engine(0.0, mode="adaptive", prior_kept_fraction=0.99)
        task = self.make_task()
        decision = engine.decide(task_signature("c", "", task), 1e6, tenant="t")
        assert decision.veto == "low_selectivity"
        assert decision.tier == "compute"
        assert "selectivity" in decision.reason
        # A fixed mode pins its tier: the rule is adaptive-only.
        fixed = _engine(0.0, prior_kept_fraction=0.99)
        assert fixed.decide("sig", 1e6, tenant="t").veto is None
        # Partials travel, not rows: a full-width GROUP BY is selective.
        grouped = engine.decide("agg", 1e6, kept_hint=1.0, aggregation=True)
        assert grouped.veto is None

    def test_selectivity_model_learns_from_observations(self):
        engine = _engine(0.0, mode="adaptive", smoothing=1.0)
        task = self.make_task()
        signature = task_signature("c", "", task)
        assert self.decide(engine, "t", task).veto is None
        # Observe a filter that discards almost nothing: 2% discarded.
        engine.observe(signature, 0.98)
        assert self.decide(engine, "t", task).veto == "low_selectivity"
        # ... then a highly selective run: 95% discarded.
        engine.observe(signature, 0.05)
        assert self.decide(engine, "t", task).veto is None

    def test_shed_rate(self):
        engine = _engine(0.9, TenantPolicy("b", TenantClass.BRONZE))
        delegator = AnalyticsDelegator(engine)
        delegator.delegate(self.make_task(), "b")
        engine.set_policy(TenantPolicy("g", TenantClass.GOLD))
        delegator.delegate(self.make_task(), "g")
        assert delegator.pushdown_rate() == pytest.approx(0.5)
        assert [record.reason for record in delegator.log] == [
            "veto:cpu_ceiling", "placed:object",
        ]

    def test_vetoed_decision_feeds_nothing_back(self):
        engine = _engine(0.99)
        decision = self.decide(engine, "t")
        assert decision.veto == "cpu_ceiling"
        assert engine.observe_report(1000, 50, decision=decision) is None
        assert not engine.kept_estimates

    def test_signature_distinguishes_tasks(self):
        task_a = self.make_task()
        task_b = PushdownTask(schema=SCHEMA, columns=["city"])
        assert task_signature("c", "", task_a) != task_signature("c", "", task_b)


class TestAdaptiveRelationIntegration:
    """Section VII end to end: the relation consults the engine and
    transparently falls back to plain ingest when vetoed."""

    def _rig(self, cpu_level):
        from repro.core import ScoopContext
        from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset

        ctx = ScoopContext(chunk_size=64 * 1024, placement="object")
        ctx.placement.storage_cpu = lambda: cpu_level
        ctx.placement.set_policy(TenantPolicy("acme", TenantClass.BRONZE))
        upload_dataset(
            ctx.client, "m", DatasetSpec(meters=10, intervals=50, objects=2)
        )
        ctx.register_csv_table("t", "m", schema=METER_SCHEMA, tenant="acme")
        return ctx

    SQL = "SELECT vid FROM t WHERE city LIKE 'Paris' ORDER BY vid"

    def test_idle_storage_pushes_down(self):
        ctx = self._rig(cpu_level=0.1)
        _frame, report = ctx.run_query(self.SQL)
        assert report.pushdown_requests == report.requests > 0

    def test_overloaded_storage_falls_back_to_plain(self):
        ctx = self._rig(cpu_level=0.95)
        _frame, report = ctx.run_query(self.SQL)
        assert report.pushdown_requests == 0
        assert report.requests > 0
        delegations = ctx.explain_profile()["delegation"]
        assert [entry["reason"] for entry in delegations] == ["veto:cpu_ceiling"]

    def test_results_identical_either_way(self):
        fast = self._rig(cpu_level=0.1)
        slow = self._rig(cpu_level=0.95)
        assert (
            fast.sql(self.SQL).collect() == slow.sql(self.SQL).collect()
        )


class TestLiveControllerProbe:
    def test_probe_reads_sandbox_activity(self):
        from repro.core import ScoopContext
        from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset

        ctx = ScoopContext(chunk_size=64 * 1024, placement="object")
        # Not wired by default: a context's engine reads an idle store.
        assert ctx.placement.storage_cpu is None
        ctx.placement.storage_cpu = ctx.storage_cpu_utilization
        assert ctx.storage_cpu_utilization() == 0.0  # nothing ran yet
        upload_dataset(
            ctx.client, "m", DatasetSpec(meters=10, intervals=40, objects=1)
        )
        ctx.register_csv_table("t", "m", schema=METER_SCHEMA)
        ctx.sql("SELECT vid FROM t WHERE city = 'Paris'").collect()
        assert ctx.storage_cpu_utilization() > 0.0
        # The engine read it: its next decision names the reading.
        ctx.sql("SELECT vid FROM t WHERE city = 'Rome'").collect()
        assert "storage cpu" in ctx.placement.decisions[-1].reason
