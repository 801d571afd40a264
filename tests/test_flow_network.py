"""Tests for the max-min fair flow network (the timing engine)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perfmodel.flow import FlowNetwork
from repro.perfmodel.kernel import Environment


def run_flows(flow_specs, resources):
    """Run flows to completion; returns {label: finish_time}.

    ``flow_specs``: list of (label, size, {resource_name: weight}, start).
    ``resources``: {name: capacity}.
    """
    env = Environment()
    network = FlowNetwork(env)
    handles = {name: network.add_resource(name, cap) for name, cap in resources.items()}
    finish = {}

    def launch(label, size, weights, start):
        if start:
            yield env.timeout(start)
        flow = network.start_flow(
            size, {handles[name]: w for name, w in weights.items()}, label
        )
        yield flow.done
        finish[label] = env.now

    for label, size, weights, start in flow_specs:
        env.process(launch(label, size, weights, start))
    env.run()
    return finish


class TestAllocation:
    def test_single_flow_runs_at_capacity(self):
        finish = run_flows([("f", 100, {"l": 1.0}, 0)], {"l": 50})
        assert finish["f"] == pytest.approx(2.0)

    def test_two_flows_share_equally(self):
        finish = run_flows(
            [("a", 100, {"l": 1.0}, 0), ("b", 100, {"l": 1.0}, 0)], {"l": 100}
        )
        assert finish["a"] == pytest.approx(2.0)
        assert finish["b"] == pytest.approx(2.0)

    def test_freed_capacity_is_reallocated(self):
        # b is half the size: finishes at t where both ran at 50 until b
        # drains (b: 50/50 => needs 1s at 50 after... compute: both at 50;
        # b (size 50) done at t=1; a then runs at 100: remaining 50 in 0.5.
        finish = run_flows(
            [("a", 100, {"l": 1.0}, 0), ("b", 50, {"l": 1.0}, 0)], {"l": 100}
        )
        assert finish["b"] == pytest.approx(1.0)
        assert finish["a"] == pytest.approx(1.5)

    def test_late_arrival_shares_fairly(self):
        # a alone for 1s (100 done), then shares: both at 50.
        finish = run_flows(
            [("a", 200, {"l": 1.0}, 0), ("b", 100, {"l": 1.0}, 1.0)],
            {"l": 100},
        )
        # At t=1: a has 100 left. Both at 50 => a done at t=3, b at t=3.
        assert finish["a"] == pytest.approx(3.0)
        assert finish["b"] == pytest.approx(3.0)

    def test_bottleneck_is_minimum_over_path(self):
        finish = run_flows(
            [("f", 100, {"wide": 1.0, "narrow": 1.0}, 0)],
            {"wide": 1000, "narrow": 10},
        )
        assert finish["f"] == pytest.approx(10.0)

    def test_weighted_flow_consumes_scaled_capacity(self):
        # CPU capacity 2 core-sec/s; weight 0.1 core-sec per byte =>
        # max rate 20 B/s even though the link allows 100.
        finish = run_flows(
            [("f", 100, {"link": 1.0, "cpu": 0.1}, 0)],
            {"link": 100, "cpu": 2},
        )
        assert finish["f"] == pytest.approx(5.0)

    def test_max_min_unbalanced_demands(self):
        # Three flows on one link of 90: fair share 30 each.  Flow c is
        # also constrained elsewhere to 10, so residual 80 splits 40/40.
        finish = run_flows(
            [
                ("a", 80, {"l": 1.0}, 0),
                ("b", 80, {"l": 1.0}, 0),
                ("c", 10, {"l": 1.0, "tiny": 1.0}, 0),
            ],
            {"l": 90, "tiny": 10},
        )
        assert finish["c"] == pytest.approx(1.0)
        # a and b: 40 B/s while c alive (1s, 40 done), then 45 each.
        assert finish["a"] == pytest.approx(1.0 + 40 / 45)
        assert finish["b"] == pytest.approx(1.0 + 40 / 45)

    def test_zero_size_flow_completes_immediately(self):
        env = Environment()
        network = FlowNetwork(env)
        resource = network.add_resource("l", 10)
        flow = network.start_flow(0, {resource: 1.0})
        assert flow.done.triggered

    def test_negative_size_raises(self):
        env = Environment()
        network = FlowNetwork(env)
        resource = network.add_resource("l", 10)
        with pytest.raises(ValueError):
            network.start_flow(-1, {resource: 1.0})

    def test_duplicate_resource_name_raises(self):
        network = FlowNetwork(Environment())
        network.add_resource("x", 1)
        with pytest.raises(ValueError):
            network.add_resource("x", 2)


class TestIntrospection:
    def test_utilization_full_under_contention(self):
        env = Environment()
        network = FlowNetwork(env)
        link = network.add_resource("l", 100)
        network.start_flow(1000, {link: 1.0})
        network.start_flow(1000, {link: 1.0})
        assert link.utilization() == pytest.approx(1.0)
        assert link.throughput() == pytest.approx(100.0)


class TestConservationProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(
            st.floats(min_value=1, max_value=1e4), min_size=1, max_size=8
        ),
        capacity=st.floats(min_value=1, max_value=1e3),
        starts=st.lists(
            st.floats(min_value=0, max_value=10), min_size=8, max_size=8
        ),
    )
    def test_work_is_conserved(self, sizes, capacity, starts):
        """Every flow finishes no earlier than size/capacity after its
        start, and total time >= total work / capacity."""
        specs = [
            (f"f{i}", size, {"l": 1.0}, starts[i])
            for i, size in enumerate(sizes)
        ]
        finish = run_flows(specs, {"l": capacity})
        assert len(finish) == len(sizes)
        for i, size in enumerate(sizes):
            lower_bound = starts[i] + size / capacity
            assert finish[f"f{i}"] >= lower_bound - 1e-6
        makespan = max(finish.values())
        total_work_bound = min(starts) + sum(sizes) / capacity
        assert makespan >= total_work_bound - 1e-6


class TestBottleneckFairness:
    """Consumption fairness: a flow that uses little of a link per unit
    of work must not be throttled to fat flows' rates."""

    def test_thin_flow_frozen_by_its_own_bottleneck(self):
        # Fat flow: 1 B of link per byte.  Thin flow: 0.01 B of link per
        # byte but CPU-bound at 40 B/s.  The link should not cap the
        # thin flow at the fat flow's rate.
        env = Environment()
        network = FlowNetwork(env)
        link = network.add_resource("link", 100.0)
        cpu = network.add_resource("cpu", 2.0)
        fat = network.start_flow(1000, {link: 1.0}, "fat")
        thin = network.start_flow(1000, {link: 0.01, cpu: 0.05}, "thin")
        assert thin.rate == pytest.approx(40.0)  # cpu-bound: 2 / 0.05
        # Fat takes the link minus thin's trickle (40 * 0.01 = 0.4).
        assert fat.rate == pytest.approx(99.6)

    def test_backlogged_flows_share_leftover_equally(self):
        env = Environment()
        network = FlowNetwork(env)
        link = network.add_resource("link", 90.0)
        slow = network.add_resource("slow", 10.0)
        capped = network.start_flow(1000, {link: 1.0, slow: 1.0}, "capped")
        free_a = network.start_flow(1000, {link: 1.0}, "a")
        free_b = network.start_flow(1000, {link: 1.0}, "b")
        assert capped.rate == pytest.approx(10.0)
        assert free_a.rate == pytest.approx(40.0)
        assert free_b.rate == pytest.approx(40.0)

    def test_capacity_never_exceeded(self):
        env = Environment()
        network = FlowNetwork(env)
        link = network.add_resource("link", 50.0)
        cpu = network.add_resource("cpu", 3.0)
        for index in range(7):
            network.start_flow(
                1000, {link: 1.0, cpu: 0.01 * (index + 1)}, f"f{index}"
            )
        assert link.throughput() <= 50.0 * (1 + 1e-9)
        assert cpu.throughput() <= 3.0 * (1 + 1e-9)
