"""Tests for PushdownTask, the delegator and the adaptive controller."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdaptivePushdownController,
    AnalyticsDelegator,
    PushdownTask,
)
from repro.core.policies import SelectivityModel, TenantClass, TenantPolicy
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
        controller = AdaptivePushdownController(
            storage_cpu_probe=lambda: 0.99
        )
        controller.set_policy(TenantPolicy("t1", TenantClass.BRONZE))
        delegator = AnalyticsDelegator(controller)
        task = delegator.make_task(self.QUERY, SCHEMA, tenant="t1")
        assert task is None
        assert delegator.pushdown_rate() == 0.0

    def test_gold_tenant_keeps_service_under_pressure(self):
        controller = AdaptivePushdownController(
            storage_cpu_probe=lambda: 0.99
        )
        controller.set_policy(TenantPolicy("vip", TenantClass.GOLD))
        delegator = AnalyticsDelegator(controller)
        task = delegator.make_task(self.QUERY, SCHEMA, tenant="vip")
        assert task is not None
        assert delegator.pushdown_rate() == 1.0

    def test_log_records_details(self):
        delegator = AnalyticsDelegator()
        delegator.make_task(self.QUERY, SCHEMA, tenant="acme")
        record = delegator.log[0]
        assert record.tenant == "acme"
        assert record.pushed_down
        assert record.filter_count == 1
        assert record.column_count == 1


class TestAdaptiveController:
    def make_task(self):
        return PushdownTask(
            schema=SCHEMA,
            columns=["vid"],
            filters=[StringStartsWith("date", "2015")],
        )

    def test_idle_storage_everyone_pushes(self):
        controller = AdaptivePushdownController(storage_cpu_probe=lambda: 0.1)
        for tenant_class in TenantClass:
            controller.set_policy(TenantPolicy("t", tenant_class))
            assert controller.decide("t", self.make_task()).push_down

    def test_soft_ceiling_sheds_bronze_first(self):
        controller = AdaptivePushdownController(storage_cpu_probe=lambda: 0.7)
        controller.set_policy(TenantPolicy("b", TenantClass.BRONZE))
        controller.set_policy(TenantPolicy("s", TenantClass.SILVER))
        assert not controller.decide("b", self.make_task()).push_down
        assert controller.decide("s", self.make_task()).push_down

    def test_hard_ceiling_spares_only_gold(self):
        controller = AdaptivePushdownController(storage_cpu_probe=lambda: 0.9)
        controller.set_policy(TenantPolicy("g", TenantClass.GOLD))
        controller.set_policy(TenantPolicy("s", TenantClass.SILVER))
        assert controller.decide("g", self.make_task()).push_down
        assert not controller.decide("s", self.make_task()).push_down

    def test_disabled_tenant_never_pushes(self):
        controller = AdaptivePushdownController(storage_cpu_probe=lambda: 0.0)
        controller.set_policy(
            TenantPolicy("off", pushdown_enabled=False)
        )
        assert not controller.decide("off", self.make_task()).push_down

    def test_low_selectivity_not_worth_pushing(self):
        model = SelectivityModel(prior=0.01)
        controller = AdaptivePushdownController(
            storage_cpu_probe=lambda: 0.0, selectivity_model=model
        )
        decision = controller.decide("t", self.make_task())
        assert not decision.push_down
        assert "selectivity" in decision.reason

    def test_selectivity_model_learns_from_observations(self):
        model = SelectivityModel(prior=0.01, smoothing=1.0)
        controller = AdaptivePushdownController(
            storage_cpu_probe=lambda: 0.0, selectivity_model=model
        )
        task = self.make_task()
        assert not controller.decide("t", task).push_down
        # Observe a highly selective invocation: 95% discarded.
        controller.observe_invocation("t", task, bytes_in=1000, bytes_out=50)
        assert controller.decide("t", task).push_down

    def test_shed_rate(self):
        controller = AdaptivePushdownController(storage_cpu_probe=lambda: 0.9)
        controller.set_policy(TenantPolicy("b", TenantClass.BRONZE))
        controller.decide("b", self.make_task())
        controller.set_policy(TenantPolicy("g", TenantClass.GOLD))
        controller.decide("g", self.make_task())
        assert controller.shed_rate() == pytest.approx(0.5)

    def test_invalid_ceilings_raise(self):
        with pytest.raises(ValueError):
            AdaptivePushdownController(
                cpu_soft_ceiling=0.9, cpu_ceiling=0.5
            )

    def test_signature_distinguishes_tasks(self):
        task_a = self.make_task()
        task_b = PushdownTask(schema=SCHEMA, columns=["city"])
        assert SelectivityModel.signature(
            "t", task_a
        ) != SelectivityModel.signature("t", task_b)


class TestAdaptiveRelationIntegration:
    """Section VII end to end: the relation consults the controller and
    transparently falls back to plain ingest when vetoed."""

    def _rig(self, cpu_level):
        from repro.core import ScoopContext
        from repro.core.policies import TenantPolicy
        from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset

        controller = AdaptivePushdownController(
            storage_cpu_probe=lambda: cpu_level
        )
        controller.set_policy(
            TenantPolicy("acme", TenantClass.BRONZE)
        )
        ctx = ScoopContext(chunk_size=64 * 1024, controller=controller)
        upload_dataset(
            ctx.client, "m", DatasetSpec(meters=10, intervals=50, objects=2)
        )
        ctx.register_csv_table(
            "t", "m", schema=METER_SCHEMA, tenant="acme", adaptive=True
        )
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

        ctx = ScoopContext(chunk_size=64 * 1024)
        controller = ctx.make_adaptive_controller()
        assert ctx.controller is controller
        assert controller.storage_cpu_probe() == 0.0  # nothing ran yet
        upload_dataset(
            ctx.client, "m", DatasetSpec(meters=10, intervals=40, objects=1)
        )
        ctx.register_csv_table("t", "m", schema=METER_SCHEMA)
        ctx.sql("SELECT vid FROM t WHERE city = 'Paris'").collect()
        assert controller.storage_cpu_probe() > 0.0
