"""Tests for the fault-injection framework and per-layer resilience."""

import pytest

from repro.faults import (
    NAMED_PLANS,
    DeviceLoss,
    FaultPlan,
    FlakyObjectServer,
    FlakyProxy,
    SlowObjectServer,
    StorletCrash,
    install_fault_plan,
    named_plan,
)
from repro.swift import RetryPolicy, SwiftClient, SwiftCluster
from repro.swift.exceptions import SwiftError


def make_cluster(**kwargs):
    kwargs.setdefault("storage_node_count", 3)
    kwargs.setdefault("disks_per_node", 2)
    kwargs.setdefault("replica_count", 3)
    kwargs.setdefault("part_power", 5)
    return SwiftCluster(**kwargs)


class TestFaultPlanDeterminism:
    def test_same_seed_same_decisions(self):
        rules = (
            FlakyObjectServer(method="GET", times=None, probability=0.4),
            StorletCrash(times=None, probability=0.6),
        )
        outcomes = []
        for _run in range(2):
            plan = FaultPlan(seed=7, faults=rules)
            run = [
                (
                    plan.object_fault("storage0", "GET"),
                    plan.storlet_fault("csvstorlet", "storage1"),
                )
                for _ in range(50)
            ]
            outcomes.append((run, plan.fingerprint()))
        assert outcomes[0] == outcomes[1]

    def test_different_seed_different_decisions(self):
        rules = (FlakyObjectServer(times=None, probability=0.5),)
        runs = {}
        for seed in (1, 2):
            plan = FaultPlan(seed=seed, faults=rules)
            runs[seed] = [
                plan.object_fault("storage0", "GET") is not None
                for _ in range(100)
            ]
        assert runs[1] != runs[2]

    def test_reset_rewinds_rngs_and_log(self):
        plan = FaultPlan(
            seed=3, faults=(FlakyProxy(times=None, probability=0.5),)
        )
        first = [plan.proxy_fault("GET") for _ in range(30)]
        fingerprint = plan.fingerprint()
        plan.reset()
        assert plan.log == []
        second = [plan.proxy_fault("GET") for _ in range(30)]
        assert first == second
        assert plan.fingerprint() == fingerprint


class TestFaultPlanRules:
    def test_one_shot_rule_disarms(self):
        plan = FaultPlan(faults=(FlakyObjectServer(times=1),))
        assert plan.object_fault("storage0", "GET") == ("status", 503.0)
        assert plan.object_fault("storage0", "GET") is None
        assert plan.fired("object-error") == 1

    def test_persistent_rule_keeps_firing(self):
        plan = FaultPlan(faults=(FlakyObjectServer(times=None),))
        for _ in range(10):
            assert plan.object_fault("storage0", "GET") is not None

    def test_node_and_method_matching(self):
        plan = FaultPlan(
            faults=(FlakyObjectServer(node="storage1", method="GET"),)
        )
        assert plan.object_fault("storage0", "GET") is None
        assert plan.object_fault("storage1", "PUT") is None
        assert plan.object_fault("storage1", "GET") is not None

    def test_storlet_matching(self):
        plan = FaultPlan(
            faults=(StorletCrash(storlet="csvstorlet", times=None),)
        )
        assert plan.storlet_fault("other", "storage0") is None
        assert plan.storlet_fault("csvstorlet", "storage0") == "crash"

    def test_device_loss_due_at_request_count(self):
        plan = FaultPlan(faults=(DeviceLoss(device_index=1, at_request=3),))
        assert plan.on_request() == []
        assert plan.on_request() == []
        due = plan.on_request()
        assert len(due) == 1 and due[0].device_index == 1
        # Fires exactly once.
        assert plan.on_request() == []

    def test_stall_rule(self):
        plan = FaultPlan(
            faults=(SlowObjectServer(stall_seconds=99.0, times=1),)
        )
        assert plan.object_fault("storage0", "GET") == ("stall", 99.0)


class TestInjectedObjectFaults:
    def test_one_shot_503_is_absorbed_by_failover(self):
        cluster = make_cluster()
        client = SwiftClient(cluster, "AUTH_f")
        client.put_container("c")
        client.put_object("c", "o", b"payload")
        # ``times`` budgets are per scope (per replica of a logical
        # request), so pin the one-shot rule to the primary replica's
        # node to model exactly one failing replica.
        _part, devices = cluster.object_ring.get_nodes("AUTH_f", "c", "o")
        plan = FaultPlan(
            faults=(
                FlakyObjectServer(
                    node=devices[0].node, method="GET", times=1
                ),
            )
        )
        install_fault_plan(cluster, plan)

        _headers, body = client.get_object("c", "o")
        assert body == b"payload"
        assert cluster.counters["get_failovers"] >= 1
        assert plan.fired("object-error") == 1

    def test_stall_past_deadline_times_out_and_fails_over(self):
        cluster = make_cluster()
        policy = RetryPolicy(request_timeout=30.0)
        client = SwiftClient(cluster, "AUTH_f", retry_policy=policy)
        client.put_container("c")
        client.put_object("c", "o", b"payload")
        plan = FaultPlan(
            faults=(SlowObjectServer(stall_seconds=120.0, times=1),)
        )
        install_fault_plan(cluster, plan)

        _headers, body = client.get_object("c", "o")
        assert body == b"payload"
        assert cluster.counters["get_failovers"] >= 1

    def test_stall_under_deadline_is_recorded_not_fatal(self):
        cluster = make_cluster()
        policy = RetryPolicy(request_timeout=30.0)
        client = SwiftClient(cluster, "AUTH_f", retry_policy=policy)
        client.put_container("c")
        client.put_object("c", "o", b"payload")
        plan = FaultPlan(
            faults=(SlowObjectServer(stall_seconds=1.0, times=1),)
        )
        install_fault_plan(cluster, plan)

        _headers, body = client.get_object("c", "o")
        assert body == b"payload"
        assert cluster.counters["get_failovers"] == 0

    def test_all_replicas_down_surfaces_error_after_bounded_retries(self):
        cluster = make_cluster()
        policy = RetryPolicy(max_attempts=3)
        client = SwiftClient(cluster, "AUTH_f", retry_policy=policy)
        client.put_container("c")
        client.put_object("c", "o", b"payload")
        plan = FaultPlan(
            faults=(FlakyObjectServer(method="GET", times=None),)
        )
        install_fault_plan(cluster, plan)

        before = client.stats.requests
        with pytest.raises(SwiftError):
            client.get_object("c", "o")
        # Exactly max_attempts requests, no unbounded retry.
        assert client.stats.requests - before == policy.max_attempts
        assert client.stats.exhausted == 1


class TestInjectedProxyFaults:
    def test_transient_proxy_503_is_retried(self):
        cluster = make_cluster()
        client = SwiftClient(cluster, "AUTH_f")
        client.put_container("c")
        client.put_object("c", "o", b"payload")
        plan = FaultPlan(faults=(FlakyProxy(times=1),))
        install_fault_plan(cluster, plan)

        _headers, body = client.get_object("c", "o")
        assert body == b"payload"
        assert client.stats.retries == 1
        assert client.stats.backoff_seconds > 0

    def test_device_loss_fires_and_data_survives(self):
        cluster = make_cluster()
        client = SwiftClient(cluster, "AUTH_f")
        client.put_container("c")
        for index in range(10):
            client.put_object("c", f"o{index}", f"data-{index}".encode())
        plan = FaultPlan(faults=(DeviceLoss(device_index=0, at_request=1),))
        injector = install_fault_plan(cluster, plan)

        for index in range(10):
            _headers, body = client.get_object("c", f"o{index}")
            assert body == f"data-{index}".encode()
        assert injector.lost_devices
        assert cluster.failed_devices


class TestStorletFaults:
    def test_injected_crash_degrades_pushdown(self, fresh_scoop):
        from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset

        ctx = fresh_scoop
        spec = DatasetSpec(meters=10, intervals=48, objects=2)
        upload_dataset(ctx.client, "meters", spec)
        ctx.register_csv_table("m", "meters", schema=METER_SCHEMA)
        # A predicate that matches data: a no-row predicate would let
        # columnar stripe pruning skip every GET, leaving no storlet
        # invocation to crash.
        sql = "SELECT vid FROM m WHERE city LIKE 'R%'"
        baseline = ctx.sql(sql).collect()

        plan = FaultPlan(
            faults=(
                StorletCrash(storlet="csvstorlet", times=None),
                StorletCrash(storlet="columnarstorlet", times=None),
            )
        )
        install_fault_plan(ctx.cluster, plan, engine=ctx.engine)
        degraded = ctx.sql(sql).collect()
        assert degraded == baseline
        assert ctx.connector.metrics.pushdown_fallbacks > 0
        assert plan.fired("storlet-fault") > 0


class TestNamedPlans:
    def test_known_names(self):
        for name in ("none", "device-loss", "flaky-object", "storlet-crash"):
            plan = named_plan(name, seed=5)
            assert plan.seed == 5

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            named_plan("meteor-strike")

    def test_every_storlet_rule_names_a_deployed_storlet(self):
        """A crash rule for a storlet nobody deploys matches nothing and
        silently weakens its plan."""
        from repro.core import ScoopContext

        deployed = set(ScoopContext().engine.deployed())
        for name in NAMED_PLANS:
            for rule in named_plan(name, seed=5).faults:
                if isinstance(rule, StorletCrash) and rule.storlet is not None:
                    assert rule.storlet in deployed, (name, rule.storlet)

