"""Tests for the consistent-hashing ring."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.swift.ring import Device, RingBuilder, hash_path


def build_ring(nodes=4, disks=2, part_power=8, replicas=3, weights=None):
    builder = RingBuilder(part_power=part_power, replica_count=replicas)
    for node in range(nodes):
        for disk in range(disks):
            weight = weights[node] if weights else 1.0
            builder.add_device(
                zone=node % 2, weight=weight, node=f"node{node}", disk=disk
            )
    builder.rebalance()
    return builder


def partition_counts(ring):
    """How many (replica, partition) assignments each device holds."""
    held = Counter(
        device.id
        for part in range(ring.part_count)
        for device in ring.get_part_devices(part)
    )
    return {dev_id: held[dev_id] for dev_id in ring.devices}


class TestBuilderValidation:
    def test_part_power_bounds(self):
        with pytest.raises(ValueError):
            RingBuilder(part_power=0)
        with pytest.raises(ValueError):
            RingBuilder(part_power=33)

    def test_replica_count_bound(self):
        with pytest.raises(ValueError):
            RingBuilder(replica_count=0)

    def test_empty_rebalance_raises(self):
        with pytest.raises(ValueError):
            RingBuilder().rebalance()

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            Device(0, 0, -1.0, "n")

    def test_remove_unknown_device_raises(self):
        builder = RingBuilder()
        with pytest.raises(KeyError):
            builder.remove_device(99)


class TestAssignment:
    def test_every_partition_fully_replicated(self):
        ring = build_ring().get_ring()
        for part in range(ring.part_count):
            devices = ring.get_part_devices(part)
            assert len(devices) == 3

    def test_replicas_on_distinct_devices(self):
        ring = build_ring().get_ring()
        for part in range(ring.part_count):
            ids = [d.id for d in ring.get_part_devices(part)]
            assert len(set(ids)) == 3

    def test_replicas_spread_across_nodes(self):
        ring = build_ring(nodes=6, disks=2).get_ring()
        for part in range(ring.part_count):
            nodes = {d.node for d in ring.get_part_devices(part)}
            assert len(nodes) == 3

    def test_balance_is_tight_for_equal_weights(self):
        builder = build_ring(nodes=4, disks=2, part_power=10)
        assert builder.balance() < 2.0

    def test_weight_proportional_assignment(self):
        builder = build_ring(
            nodes=2, disks=1, replicas=1, part_power=10, weights=[1.0, 3.0]
        )
        counts = partition_counts(builder.get_ring())
        heavy = counts[1]
        light = counts[0]
        assert heavy / light == pytest.approx(3.0, rel=0.1)

    def test_zero_weight_device_gets_nothing(self):
        builder = RingBuilder(part_power=8, replica_count=2)
        builder.add_device(zone=0, weight=1.0, node="a")
        builder.add_device(zone=1, weight=1.0, node="b")
        drained = builder.add_device(zone=2, weight=0.0, node="c")
        builder.rebalance()
        counts = partition_counts(builder.get_ring())
        assert counts[drained.id] == 0


class TestLookup:
    def test_lookup_is_deterministic(self):
        ring = build_ring().get_ring()
        first = ring.get_nodes("AUTH_a", "c", "obj")
        second = ring.get_nodes("AUTH_a", "c", "obj")
        assert first == second

    def test_different_objects_hash_to_different_partitions(self):
        ring = build_ring(part_power=12).get_ring()
        parts = {
            ring.get_part("AUTH_a", "c", f"obj{i}") for i in range(200)
        }
        assert len(parts) > 150  # overwhelming majority distinct

    def test_partition_out_of_range_raises(self):
        ring = build_ring(part_power=4).get_ring()
        with pytest.raises(ValueError):
            ring.get_part_devices(16)

    def test_hash_path_distinguishes_components(self):
        assert hash_path("a", "b", "c") != hash_path("a", "bc")
        assert hash_path("a") != hash_path("b")


class TestRebalance:
    def test_adding_device_moves_few_partitions(self):
        builder = build_ring(nodes=4, disks=2, part_power=10)
        before = builder.get_ring()
        builder.add_device(zone=3, weight=1.0, node="node_new", disk=0)
        moved = builder.rebalance()
        total = builder.part_count * builder.replica_count
        # A new device owning 1/9 of the weight should attract roughly
        # total/9 assignments, not trigger wholesale reshuffling.
        assert moved < total * 0.25

    def test_rebalanced_ring_still_fully_replicated(self):
        builder = build_ring(nodes=4, disks=2)
        builder.add_device(zone=3, weight=2.0, node="node_new", disk=0)
        builder.rebalance()
        ring = builder.get_ring()
        for part in range(ring.part_count):
            ids = [d.id for d in ring.get_part_devices(part)]
            assert len(set(ids)) == len(ids) == 3

    def test_removing_device_reassigns_its_partitions(self):
        builder = build_ring(nodes=4, disks=2)
        victim = 0
        builder.remove_device(victim)
        builder.rebalance()
        ring = builder.get_ring()
        counts = partition_counts(ring)
        assert victim not in counts
        for part in range(ring.part_count):
            assert victim not in [d.id for d in ring.get_part_devices(part)]


class TestRingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        account=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=20,
        ),
        obj=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=40,
        ),
    )
    def test_any_path_resolves_to_full_replica_set(self, account, obj):
        ring = _SHARED_RING
        part, devices = ring.get_nodes(account, "container", obj)
        assert 0 <= part < ring.part_count
        assert len({d.id for d in devices}) == ring.replica_count

    @settings(max_examples=10, deadline=None)
    @given(part_power=st.integers(min_value=2, max_value=8))
    def test_partition_count_matches_power(self, part_power):
        ring = build_ring(part_power=part_power).get_ring()
        counts = partition_counts(ring)
        assert sum(counts.values()) == (2**part_power) * 3


_SHARED_RING = build_ring(nodes=5, disks=2, part_power=8).get_ring()
