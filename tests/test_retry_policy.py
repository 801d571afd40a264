"""Property tests for the deterministic retry policy.

The resilience loop's correctness rests on three contracts:

* the schedule has exactly ``max_attempts - 1`` entries (one delay per
  retry, never one per attempt);
* every jittered delay stays within ``[(1 - jitter) * capped, capped]``
  where ``capped = min(cap, base * multiplier**attempt)``;
* attempt indices are 0-based, so the *first* retry waits on the order
  of ``backoff_base`` -- an off-by-one would start the schedule at
  ``base * multiplier``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.swift import SwiftClient, SwiftCluster
from repro.swift.retry import RetryPolicy

POLICIES = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=10),
    backoff_base=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    backoff_cap=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    backoff_multiplier=st.floats(
        min_value=1.0, max_value=4.0, allow_nan=False
    ),
    jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)


class TestScheduleShape:
    @settings(max_examples=100, deadline=None)
    @given(policy=POLICIES)
    def test_schedule_has_one_delay_per_retry(self, policy):
        assert len(policy.schedule()) == policy.max_attempts - 1

    @settings(max_examples=100, deadline=None)
    @given(policy=POLICIES, attempts=st.integers(min_value=0, max_value=12))
    def test_explicit_length_and_determinism(self, policy, attempts):
        schedule = policy.schedule(attempts)
        assert len(schedule) == attempts
        # A pure function of (policy, attempt): recomputing any entry in
        # isolation gives the same value.
        assert schedule == [policy.delay(i) for i in range(attempts)]
        assert schedule == policy.schedule(attempts)


class TestDelayBounds:
    @settings(max_examples=150, deadline=None)
    @given(policy=POLICIES, attempt=st.integers(min_value=0, max_value=20))
    def test_delay_within_jitter_band(self, policy, attempt):
        capped = min(
            policy.backoff_cap,
            policy.backoff_base * policy.backoff_multiplier**attempt,
        )
        delay = policy.delay(attempt)
        assert delay <= capped * (1 + 1e-12)
        assert delay >= capped * (1.0 - policy.jitter) * (1 - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(policy=POLICIES)
    def test_delays_never_exceed_cap(self, policy):
        for delay in policy.schedule(12):
            assert delay <= policy.backoff_cap * (1 + 1e-12)


class TestZeroBasedAttempts:
    def test_first_retry_waits_about_backoff_base(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_multiplier=2.0, jitter=0.5
        )
        first = policy.delay(0)
        # attempt 0 -> base * multiplier**0 = base, jittered down only:
        # a 1-based loop would compute base * multiplier instead.
        assert 0.05 <= first <= 0.1

    def test_unjittered_schedule_is_pure_exponential(self):
        policy = RetryPolicy(
            max_attempts=5,
            backoff_base=0.1,
            backoff_cap=100.0,
            backoff_multiplier=2.0,
            jitter=0.0,
        )
        assert policy.schedule() == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_client_consumes_zero_based_indices(self):
        """The resilience loop's recorded delays must equal the policy's
        own schedule from index 0 -- proving the loop passes the retry
        number, not the attempt number."""
        from repro.faults import FaultPlan, FlakyProxy, install_fault_plan

        policy = RetryPolicy(max_attempts=3, backoff_base=0.1)
        cluster = SwiftCluster(storage_node_count=2, disks_per_node=1)
        client = SwiftClient(cluster, "AUTH_retry", retry_policy=policy)
        install_fault_plan(cluster, FaultPlan(faults=(FlakyProxy(times=None),)))

        before = client.stats.requests
        response = client.request("GET", "/AUTH_retry/c/o")
        assert response.status == 503
        assert client.stats.requests - before == policy.max_attempts
        assert list(client.stats.delays) == policy.schedule()
        assert client.stats.delays[0] == policy.delay(0)
        assert client.stats.backoff_seconds == pytest.approx(
            sum(policy.schedule())
        )
