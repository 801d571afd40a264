"""QoS tier tests: admission control, deadline budgets, circuit
breakers, brownout demotion (docs/admission.md).

The hypothesis properties pin the two contracts everything else leans
on: a token bucket never admits more than ``burst + rate * T`` work in
any interval regardless of interleaving (and is a pure function of the
injected clock), and a deadline budget only ever decreases as it is
charged down a pipeline.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.qos.admission import (
    AdmissionController,
    CircuitBreaker,
    CircuitBreakerBoard,
    QosConfig,
    TenantQuota,
    TokenBucket,
    VirtualClock,
)
from repro.qos.budget import (
    STREAM_BYTES_ENV_KEY,
    STREAM_COST_ENV_KEY,
    budgeted_chunks,
)
from repro.sql.types import Schema
from repro.storlets.csv_storlet import CsvStorlet
from repro.storlets.engine import StorletEngine, StorletRequestHeaders
from repro.swift import RetryPolicy, SwiftClient, SwiftCluster
from repro.swift.exceptions import RequestTimeout, TooManyRequests
from repro.swift.http import Request

MB = 1024 * 1024


# --------------------------------------------------------------------------
# Token bucket properties
# --------------------------------------------------------------------------


class TestTokenBucketProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(
            st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=60
        ),
        rate=st.floats(min_value=0.1, max_value=20.0),
        burst=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_never_exceeds_burst_plus_rate_times_t(self, steps, rate, burst):
        """Over any interval T the bucket admits at most
        ``burst + rate * T`` unit-cost requests, no matter how the
        take() calls interleave with clock advances."""
        clock = VirtualClock()
        bucket = TokenBucket(rate, burst, clock)
        admitted = 0
        for step in steps:
            clock.advance(step)
            ok, _wait = bucket.take(1.0)
            admitted += 1 if ok else 0
        elapsed = clock.now()
        assert admitted <= burst + rate * elapsed + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(
            st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=60
        ),
        rate=st.floats(min_value=0.1, max_value=20.0),
        burst=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_deterministic_under_seeded_clock(self, steps, rate, burst):
        """The decision sequence is a pure function of (rate, burst,
        clock schedule): two replays agree take-for-take."""

        def replay():
            clock = VirtualClock()
            bucket = TokenBucket(rate, burst, clock)
            decisions = []
            for step in steps:
                clock.advance(step)
                decisions.append(bucket.take(1.0))
            return decisions

        assert replay() == replay()

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(min_value=0.1, max_value=20.0),
        burst=st.floats(min_value=1.0, max_value=10.0),
        drains=st.integers(min_value=1, max_value=30),
    )
    def test_retry_after_hint_is_sufficient(self, rate, burst, drains):
        """After a shed, waiting exactly the advertised ``retry_after``
        (plus float dust) refills enough tokens for the request."""
        clock = VirtualClock()
        bucket = TokenBucket(rate, burst, clock)
        for _ in range(drains):
            ok, wait = bucket.take(1.0)
            if not ok:
                assert wait > 0
                clock.advance(wait + 1e-9)
                admitted, _ = bucket.take(1.0)
                assert admitted
                return
        # Bucket never emptied under this draw; that is fine too.

    def test_refund_never_overfills(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        bucket.take(1.0)
        bucket.refund(5.0)
        assert bucket.peek() == pytest.approx(2.0)


# --------------------------------------------------------------------------
# Deadline budget properties
# --------------------------------------------------------------------------


class TestDeadlineBudgetProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        budget=st.floats(min_value=0.5, max_value=100.0),
        charges=st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=1,
            max_size=20,
        ),
    )
    def test_monotonic_decrease_across_tiers(self, budget, charges):
        """Charging tiers down a pipeline only ever shrinks the header
        value; exhaustion raises rather than going quietly negative."""
        request = Request(
            "GET", "/AUTH_t/c/o", headers={"x-request-timeout": str(budget)}
        )
        for index, charge in enumerate(charges):
            before = request.remaining_timeout()
            try:
                after = request.charge_timeout(charge, tier=f"tier{index}")
            except RequestTimeout:
                # The header records the exhausted (<= 0) budget.
                assert request.remaining_timeout() <= 0
                return
            assert after <= before
            assert after > 0
            # The rewritten header is what the next tier will read.
            assert request.remaining_timeout() == pytest.approx(
                after, abs=1e-5
            )

    def test_unbudgeted_request_is_never_charged(self):
        request = Request("GET", "/AUTH_t/c/o")
        assert request.charge_timeout(1e9, tier="proxy") is None
        assert "x-request-timeout" not in request.headers

    def test_negative_charge_rejected(self):
        request = Request(
            "GET", "/AUTH_t/c/o", headers={"x-request-timeout": "5"}
        )
        with pytest.raises(ValueError):
            request.charge_timeout(-0.1)


class TestStreamingBudget:
    def test_mid_stream_expiry_cancels_at_chunk_boundary(self):
        """A 3.5 s budget at 1 s/MiB delivers exactly three 1 MiB
        chunks; the fourth dies *before* it is yielded, and the
        per-tier byte tally records only delivered bytes."""
        request = Request(
            "GET",
            "/AUTH_t/c/o",
            headers={"x-request-timeout": "3.5"},
            environ={STREAM_COST_ENV_KEY: 1.0},
        )
        delivered = []
        with pytest.raises(RequestTimeout):
            for chunk in budgeted_chunks(
                iter([b"x" * MB] * 10), request, "object"
            ):
                delivered.append(chunk)
        assert len(delivered) == 3
        assert request.environ[STREAM_BYTES_ENV_KEY] == {"object": 3 * MB}

    def test_tally_is_per_tier(self):
        request = Request(
            "GET",
            "/AUTH_t/c/o",
            headers={"x-request-timeout": "100"},
            environ={STREAM_COST_ENV_KEY: 0.5},
        )
        list(budgeted_chunks(iter([b"a" * MB]), request, "object"))
        list(budgeted_chunks(iter([b"b" * MB]), request, "storlet"))
        assert request.environ[STREAM_BYTES_ENV_KEY] == {
            "object": MB,
            "storlet": MB,
        }

    def test_no_cost_streams_untouched(self):
        request = Request(
            "GET", "/AUTH_t/c/o", headers={"x-request-timeout": "0.001"}
        )
        chunks = list(budgeted_chunks(iter([b"x" * MB] * 4), request, "object"))
        assert len(chunks) == 4
        assert STREAM_BYTES_ENV_KEY not in request.environ


# --------------------------------------------------------------------------
# Circuit breaker state machine
# --------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_consults=4)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_cooldown_then_single_half_open_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_consults=3)
        breaker.record_failure()
        # Open: exactly cooldown_consults rejections...
        assert [breaker.allow() for _ in range(3)] == [False] * 3
        # ...then one half-open probe passes while concurrent requests
        # stay rejected.
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_consults=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_retrips_for_another_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_consults=2)
        breaker.record_failure()
        breaker.allow(), breaker.allow()  # burn the cooldown
        assert breaker.allow()  # the probe
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_board_tracks_nodes_independently(self):
        board = CircuitBreakerBoard(failure_threshold=1, cooldown_consults=2)
        board.record_failure("storage1")
        assert not board.allow("storage1")
        assert board.allow("storage2")
        assert board.states() == {"storage1": "open", "storage2": "closed"}
        assert board.rejections() == 1


# --------------------------------------------------------------------------
# Admission controller
# --------------------------------------------------------------------------


class TestAdmissionController:
    def quotas(self):
        return (
            TenantQuota(name="alice", request_rate=1.0, request_burst=2.0),
        )

    def test_over_quota_decision_is_429_with_retry_after(self):
        clock = VirtualClock()
        controller = AdmissionController(quotas=self.quotas(), clock=clock)
        assert controller.admit("alice").admitted
        assert controller.admit("alice").admitted
        shed = controller.admit("alice")
        assert not shed.admitted
        assert shed.status == 429
        assert shed.reason == "over-quota"
        assert shed.retry_after == pytest.approx(1.0)
        clock.advance(shed.retry_after)
        assert controller.admit("alice").admitted

    def test_unknown_tenant_without_default_flows_freely(self):
        controller = AdmissionController(
            quotas=self.quotas(), clock=VirtualClock()
        )
        for _ in range(100):
            assert controller.admit("mallory").admitted

    def test_byte_quota_shed_refunds_the_request_token(self):
        clock = VirtualClock()
        controller = AdmissionController(
            quotas=(
                TenantQuota(
                    name="bob",
                    request_rate=1.0,
                    request_burst=10.0,
                    byte_rate=1024.0,
                    byte_burst=2048.0,
                ),
            ),
            clock=clock,
        )
        assert not controller.admit("bob", bytes_estimate=4096).admitted
        # The failed byte take refunded the request token: all ten
        # burst requests are still available for small payloads.
        for _ in range(10):
            assert controller.admit("bob", bytes_estimate=64).admitted

    def test_summary_ledger_counts(self):
        controller = AdmissionController(
            quotas=self.quotas(), clock=VirtualClock()
        )
        for _ in range(5):
            controller.admit("alice", bytes_estimate=10)
        summary = controller.summary()
        assert summary["alice"]["admitted"] == 2
        assert summary["alice"]["shed"] == 3
        assert summary["alice"]["admitted_bytes"] == 20


# --------------------------------------------------------------------------
# Proxy integration: typed sheds, Retry-After honoring, brownout
# --------------------------------------------------------------------------


def policed_cluster(clock, **qos_kwargs):
    qos = QosConfig(
        tenants=(
            TenantQuota(name="alice", request_rate=1.0, request_burst=2.0),
        ),
        **qos_kwargs,
    )
    return SwiftCluster(
        storage_node_count=3,
        disks_per_node=1,
        part_power=5,
        qos=qos,
        qos_clock=clock,
    )


class TestProxyShedding:
    def test_over_quota_get_sheds_typed_429(self):
        clock = VirtualClock()
        cluster = policed_cluster(clock)

        def attempt():
            return cluster.handle_request(
                Request(
                    "GET",
                    "/AUTH_a/c",
                    headers={"x-scoop-tenant": "alice"},
                )
            )

        assert attempt().status != 429
        assert attempt().status != 429
        shed = attempt()
        assert shed.status == 429
        assert shed.headers["x-shed-reason"] == "over-quota"
        assert float(shed.headers["retry-after"]) > 0
        summary = cluster.qos_summary()
        assert summary["shed_quota"] == 1
        assert summary["tenants"]["alice"]["shed"] == 1
        # Refill clears the shed condition deterministically.
        clock.advance(10.0)
        assert attempt().status != 429

    def test_anonymous_traffic_is_not_policed(self):
        cluster = policed_cluster(VirtualClock())
        for _ in range(10):
            response = cluster.handle_request(Request("GET", "/AUTH_a/c"))
            assert response.status != 429

    def test_client_surfaces_shed_as_too_many_requests(self):
        clock = VirtualClock()
        cluster = policed_cluster(clock)
        setup = SwiftClient(cluster, "AUTH_a")  # anonymous: unpoliced
        setup.put_container("c")
        policed = SwiftClient(
            cluster,
            "AUTH_a",
            retry_policy=RetryPolicy(max_attempts=3, seed=7),
            tenant="alice",
        )
        # The constructor's put_account consumed one token; refill to
        # the full burst before draining it.
        clock.advance(10.0)
        policed.head_container("c")
        policed.head_container("c")
        with pytest.raises(TooManyRequests):
            policed.head_container("c")


class TestClientHonorsRetryAfter:
    def test_server_pacing_wins_over_computed_backoff(self):
        """Every retry of a shed request sleeps the server's exact
        Retry-After (1.0 s for a drained rate-1 bucket), not the
        jittered exponential schedule."""
        clock = VirtualClock()
        cluster = policed_cluster(clock)
        SwiftClient(cluster, "AUTH_a").put_container("c")
        policed = SwiftClient(
            cluster,
            "AUTH_a",
            retry_policy=RetryPolicy(max_attempts=3, seed=7),
            tenant="alice",
        )
        # The constructor's put_account consumed one token; refill to
        # the full burst before draining it.
        clock.advance(10.0)
        policed.head_container("c")
        policed.head_container("c")  # bucket now empty, clock frozen
        with pytest.raises(TooManyRequests):
            policed.head_container("c")
        stats = policed.stats
        assert stats.retry_after_honored == 2
        assert list(stats.delays)[-2:] == [1.0, 1.0]
        assert stats.exhausted == 1

    def test_malformed_retry_after_falls_back_to_backoff(self):
        policy = RetryPolicy(seed=11)
        assert policy.server_pacing("not-a-number") is None
        assert policy.server_pacing(None) is None
        assert policy.server_pacing("-2") is None
        assert policy.server_pacing("0.25") == 0.25
        # Hostile/huge values are clamped to the backoff cap.
        assert policy.server_pacing("1e9") == policy.backoff_cap


SCHEMA = Schema.of("vid", "date", "index:float", "city")
CSV_BODY = b"".join(
    f"v{row % 5},2015-01-{(row % 27) + 1:02d},{row * 1.5:.1f},Paris\n".encode()
    for row in range(50)
)


class TestBrownoutDemotion:
    def build(self, watermark=0.5):
        engine = StorletEngine()
        cluster = SwiftCluster(
            storage_node_count=3,
            disks_per_node=1,
            part_power=5,
            proxy_middleware=[engine.proxy_middleware()],
            object_middleware=[engine.object_middleware()],
            qos=QosConfig(brownout_cpu_watermark=watermark),
        )
        client = SwiftClient(cluster, "AUTH_b")
        engine.deploy(CsvStorlet())
        client.put_container("c")
        client.put_object("c", "data.csv", CSV_BODY)
        return cluster, client

    def storlet_headers(self):
        return {
            StorletRequestHeaders.RUN: "csvstorlet",
            "x-storlet-parameter-schema": SCHEMA.to_header(),
            "x-storlet-parameter-columns": json.dumps(["vid"]),
        }

    def test_gauge_over_watermark_demotes_pushdown_get(self):
        cluster, client = self.build(watermark=0.5)
        for node in cluster.object_servers:
            cluster.install_brownout_gauge(node, lambda: 0.9)
        response = client.request(
            "GET", "/AUTH_b/c/data.csv", headers=self.storlet_headers()
        )
        # The degradable-failure shape the connector already handles:
        # the client falls back to a plain GET + compute-side filter.
        assert response.status == 500
        assert response.headers["x-storlet-failure"] == "brownout"
        assert cluster.qos_summary()["brownout_demotions"] == 1

    def test_gauge_under_watermark_runs_the_storlet(self):
        cluster, client = self.build(watermark=0.5)
        for node in cluster.object_servers:
            cluster.install_brownout_gauge(node, lambda: 0.1)
        response = client.request(
            "GET", "/AUTH_b/c/data.csv", headers=self.storlet_headers()
        )
        assert response.status == 200
        assert cluster.qos_summary()["brownout_demotions"] == 0

    def test_plain_get_is_never_demoted(self):
        cluster, client = self.build(watermark=0.5)
        for node in cluster.object_servers:
            cluster.install_brownout_gauge(node, lambda: 0.9)
        _headers, body = client.get_object("c", "data.csv")
        assert body == CSV_BODY
        assert cluster.qos_summary()["brownout_demotions"] == 0
