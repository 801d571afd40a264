"""Tests for the storlet engine: deployment, interception, pipelining,
staging, policies and sandbox accounting."""

import json

import pytest

from repro.storlets import (
    IStorlet,
    StorletEngine,
    StorletException,
    StorletRequestHeaders,
)
from repro.storlets.engine import StorletPolicy
from repro.swift import SwiftClient, SwiftCluster, SwiftError


class UpperStorlet(IStorlet):
    """Test helper: uppercases the stream."""

    name = "upper"

    def process(self, in_stream, parameters, logger, metadata):
        for chunk in in_stream.iter_chunks():
            yield chunk.upper()


class ReverseLineStorlet(IStorlet):
    """Test helper: reverses the bytes of each line."""

    name = "revline"

    def process(self, in_stream, parameters, logger, metadata):
        lines = in_stream.read().split(b"\n")
        yield b"\n".join(line[::-1] for line in lines)


class BoomStorlet(IStorlet):
    name = "boom"

    def process(self, in_stream, parameters, logger, metadata):
        raise RuntimeError("storlet crashed")
        yield


@pytest.fixture
def stack():
    engine = StorletEngine()
    cluster = SwiftCluster(
        storage_node_count=3,
        disks_per_node=2,
        proxy_count=2,
        proxy_middleware=[engine.proxy_middleware()],
        object_middleware=[engine.object_middleware()],
    )
    client = SwiftClient(cluster, "AUTH_t")
    engine.deploy(UpperStorlet(), client)
    engine.deploy(ReverseLineStorlet(), client)
    engine.deploy(BoomStorlet())
    client.put_container("c")
    return engine, cluster, client


class TestByteRanges:
    """``X-Storlet-Range`` is the range the storlet reads: a request
    without ``Range`` reads exactly it, and a ``Range`` naming other
    bytes is refused."""

    RANGED = {StorletRequestHeaders.RUN: "upper", StorletRequestHeaders.RANGE: "bytes=2-4"}

    def test_the_request_range_bounds_the_read(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"hello world")
        _headers, body = client.get_object("c", "o", headers=self.RANGED, byte_range=(2, 4))
        assert body == b"LLO"

    def test_a_storlet_range_without_a_range_reads_exactly_that_range(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"hello world")
        _headers, body = client.get_object("c", "o", headers=self.RANGED)
        assert body == b"LLO"

    def test_a_range_starting_elsewhere_is_refused(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"hello world")
        with pytest.raises(SwiftError) as excinfo:
            client.get_object("c", "o", headers=self.RANGED, byte_range=(0, 6))
        assert excinfo.value.status == 400

    def test_a_range_ending_elsewhere_is_refused(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"hello world")
        with pytest.raises(SwiftError) as excinfo:
            client.get_object("c", "o", headers=self.RANGED, byte_range=(2, 6))
        assert excinfo.value.status == 400


class TestDeployment:
    def test_deploy_registers_and_stores_descriptor(self, stack):
        engine, _cluster, client = stack
        assert "upper" in engine.deployed()
        _headers, body = client.get_object(
            StorletEngine.STORLET_CONTAINER, "upper"
        )
        descriptor = json.loads(body)
        assert descriptor["name"] == "upper"

    def test_get_unknown_storlet_raises(self, stack):
        engine, _cluster, _client = stack
        with pytest.raises(StorletException):
            engine.get("ghost")

    def test_undeploy(self, stack):
        engine, _cluster, _client = stack
        engine.undeploy("upper")
        assert "upper" not in engine.deployed()


class TestGetInterception:
    def test_storlet_transforms_get(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"hello")
        _headers, body = client.get_object(
            "c", "o", headers={StorletRequestHeaders.RUN: "upper"}
        )
        assert body == b"HELLO"

    def test_get_without_header_untouched(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"hello")
        _headers, body = client.get_object("c", "o")
        assert body == b"hello"

    def test_stored_object_unaltered_by_storlet_get(self, stack):
        """Multiple jobs get their own filtered view; the object stays."""
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"hello")
        client.get_object(
            "c", "o", headers={StorletRequestHeaders.RUN: "upper"}
        )
        _headers, body = client.get_object("c", "o")
        assert body == b"hello"

    def test_pipelining_applies_in_order(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"abc\ndef")
        _headers, body = client.get_object(
            "c", "o", headers={StorletRequestHeaders.RUN: "upper,revline"}
        )
        assert body == b"CBA\nFED"
        _headers, body = client.get_object(
            "c", "o", headers={StorletRequestHeaders.RUN: "revline,upper"}
        )
        assert body == b"CBA\nFED"  # same here; order visible in header
        assert _headers[StorletRequestHeaders.INVOKED] == "revline,upper"

    def test_invoked_header_reports_pipeline(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"x")
        headers, _body = client.get_object(
            "c", "o", headers={StorletRequestHeaders.RUN: "upper"}
        )
        assert headers[StorletRequestHeaders.INVOKED] == "upper"

    def test_bypass_header_skips_execution(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"hello")
        _headers, body = client.get_object(
            "c",
            "o",
            headers={
                StorletRequestHeaders.RUN: "upper",
                StorletRequestHeaders.BYPASS: "1",
            },
        )
        assert body == b"hello"

    def test_crashing_storlet_propagates_as_error(self, stack):
        _engine, _cluster, client = stack
        client.put_object("c", "o", b"x")
        from repro.swift.exceptions import SwiftError

        with pytest.raises(SwiftError):
            client.get_object(
                "c", "o", headers={StorletRequestHeaders.RUN: "boom"}
            )


class TestStaging:
    def test_object_tier_execution_charged_to_storage_node(self, stack):
        engine, _cluster, client = stack
        client.put_object("c", "o", b"hello")
        client.get_object(
            "c", "o", headers={StorletRequestHeaders.RUN: "upper"}
        )
        nodes = [
            node
            for node, sandbox in engine.all_sandboxes().items()
            if sandbox.stats.invocations
        ]
        assert nodes and all(node.startswith("storage") for node in nodes)

    def test_proxy_tier_execution_charged_to_proxy(self, stack):
        engine, _cluster, client = stack
        client.put_object("c", "o", b"hello")
        _headers, body = client.get_object(
            "c",
            "o",
            headers={
                StorletRequestHeaders.RUN: "upper",
                StorletRequestHeaders.RUN_ON: "proxy",
            },
        )
        assert body == b"HELLO"
        nodes = [
            node
            for node, sandbox in engine.all_sandboxes().items()
            if sandbox.stats.invocations
        ]
        assert nodes and all(node.startswith("proxy") for node in nodes)


class TestPutPath:
    def test_put_storlet_transforms_before_storage(self, stack):
        _engine, _cluster, client = stack
        client.put_object(
            "c", "o", b"hello", headers={StorletRequestHeaders.RUN: "upper"}
        )
        _headers, body = client.get_object("c", "o")
        assert body == b"HELLO"

    def test_put_storlet_runs_once_despite_replication(self, stack):
        engine, cluster, client = stack
        replicas_before = cluster.total_object_count()
        client.put_object(
            "c", "o", b"hello", headers={StorletRequestHeaders.RUN: "upper"}
        )
        total_invocations = sum(
            sandbox.stats.invocations
            for sandbox in engine.all_sandboxes().values()
        )
        assert total_invocations == 1
        new_replicas = cluster.total_object_count() - replicas_before
        assert new_replicas == cluster.object_ring.replica_count


class TestPolicies:
    def test_put_policy_enforced_without_header(self, stack):
        engine, _cluster, client = stack
        engine.set_policy(
            "AUTH_t", "c", StorletPolicy(storlet="upper", method="PUT")
        )
        client.put_object("c", "auto", b"quiet")
        _headers, body = client.get_object("c", "auto")
        assert body == b"QUIET"

    def test_policy_scoped_to_container(self, stack):
        engine, _cluster, client = stack
        engine.set_policy(
            "AUTH_t", "c", StorletPolicy(storlet="upper", method="PUT")
        )
        client.put_container("other")
        client.put_object("other", "o", b"quiet")
        _headers, body = client.get_object("other", "o")
        assert body == b"quiet"

    def test_disabled_policy_ignored(self, stack):
        engine, _cluster, client = stack
        engine.set_policy(
            "AUTH_t",
            "c",
            StorletPolicy(storlet="upper", method="PUT", enabled=False),
        )
        client.put_object("c", "o", b"quiet")
        _headers, body = client.get_object("c", "o")
        assert body == b"quiet"

    def test_clear_policies(self, stack):
        engine, _cluster, client = stack
        engine.set_policy(
            "AUTH_t", "c", StorletPolicy(storlet="upper", method="PUT")
        )
        engine.clear_policies("AUTH_t", "c")
        client.put_object("c", "o", b"quiet")
        _headers, body = client.get_object("c", "o")
        assert body == b"quiet"


class TestSandboxAccounting:
    def test_bytes_in_out_recorded(self, stack):
        engine, _cluster, client = stack
        client.put_object("c", "o", b"a" * 1000)
        client.get_object(
            "c", "o", headers={StorletRequestHeaders.RUN: "upper"}
        )
        bytes_in, bytes_out = engine.total_bytes()
        assert bytes_in == 1000
        assert bytes_out == 1000

    def test_cpu_seconds_accumulate(self, stack):
        engine, _cluster, client = stack
        client.put_object("c", "o", b"a" * 10_000)
        client.get_object(
            "c", "o", headers={StorletRequestHeaders.RUN: "upper"}
        )
        total_cpu = sum(
            sandbox.stats.cpu_seconds
            for sandbox in engine.all_sandboxes().values()
        )
        assert total_cpu > 0

    def test_sandbox_warmup_charges_memory_once(self, stack):
        engine, _cluster, client = stack
        client.put_object("c", "o", b"x")
        for _ in range(3):
            client.get_object(
                "c", "o", headers={StorletRequestHeaders.RUN: "upper"}
            )
        for sandbox in engine.all_sandboxes().values():
            if sandbox.stats.invocations:
                assert sandbox.stats.memory_bytes == sandbox.memory_overhead

    def test_error_counted(self, stack):
        engine, _cluster, client = stack
        client.put_object("c", "o", b"x")
        from repro.swift.exceptions import SwiftError

        with pytest.raises(SwiftError):
            client.get_object(
                "c", "o", headers={StorletRequestHeaders.RUN: "boom"}
            )
        errors = sum(
            sandbox.stats.errors
            for sandbox in engine.all_sandboxes().values()
        )
        # A runtime storlet failure triggers replica failover, so the
        # crash is retried once per replica before surfacing.
        assert errors == 3
