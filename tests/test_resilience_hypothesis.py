"""Property-based tests for the resilience machinery.

Two invariants the retry/failover design leans on:

* **replica equivalence** -- a storlet byte-range GET served by any
  replica returns the same bytes, so a mid-read failover (or a client
  retry that lands on a different replica) cannot change query results;
* **backoff determinism** -- a retry policy's schedule is a pure
  function of its parameters, so chaos runs with a fixed seed replay
  the exact same backoff sequence.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.storlets.csv_storlet import CsvStorlet
from repro.storlets.engine import StorletEngine, StorletRequestHeaders
from repro.sql.types import Schema
from repro.swift import RetryPolicy, SwiftClient, SwiftCluster

SCHEMA = Schema.of("vid", "date", "index:float", "city")

CSV_BODY = b"".join(
    (
        f"v{row % 7},2015-01-{(row % 27) + 1:02d},"
        f"{row * 1.5:.1f},{'Paris' if row % 3 else 'Rotterdam'}\n"
    ).encode()
    for row in range(200)
)


def build_stack():
    engine = StorletEngine()
    cluster = SwiftCluster(
        storage_node_count=3,
        disks_per_node=2,
        replica_count=3,
        part_power=5,
        proxy_middleware=[engine.proxy_middleware()],
        object_middleware=[engine.object_middleware()],
    )
    client = SwiftClient(cluster, "AUTH_prop")
    engine.deploy(CsvStorlet())
    client.put_container("c")
    client.put_object("c", "data.csv", CSV_BODY)
    return client


class TestReplicaEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        start_fraction=st.floats(min_value=0.0, max_value=0.95),
        length=st.integers(min_value=1, max_value=4096),
        replica_index=st.integers(min_value=0, max_value=2),
    )
    def test_range_pushdown_identical_on_every_replica(
        self, start_fraction, length, replica_index
    ):
        """A storlet range GET pinned to replica ``i`` returns the same
        bytes as the primary -- the storlet frames exactly the range it
        is handed, whichever replica serves it."""
        client = build_stack()
        start = int(start_fraction * len(CSV_BODY))
        end = min(start + length - 1, len(CSV_BODY) - 1)
        headers = {
            StorletRequestHeaders.RUN: "csvstorlet",
            StorletRequestHeaders.RANGE: f"bytes={start}-{end}",
            "x-storlet-parameter-schema": SCHEMA.to_header(),
            "x-storlet-parameter-columns": json.dumps(["vid", "city"]),
        }
        _headers, primary = client.get_object("c", "data.csv", headers=headers)
        pinned = dict(headers)
        pinned["x-backend-replica-index"] = str(replica_index)
        _headers, other = client.get_object("c", "data.csv", headers=pinned)
        assert other == primary


class TestBackoffDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        max_attempts=st.integers(min_value=1, max_value=8),
        base=st.floats(min_value=0.001, max_value=1.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_schedule_is_a_pure_function_of_the_policy(
        self, seed, max_attempts, base, jitter
    ):
        first = RetryPolicy(
            max_attempts=max_attempts,
            backoff_base=base,
            jitter=jitter,
            seed=seed,
        )
        second = RetryPolicy(
            max_attempts=max_attempts,
            backoff_base=base,
            jitter=jitter,
            seed=seed,
        )
        assert first.schedule() == second.schedule()
        # Delays are independent of evaluation order and capped.
        reversed_delays = [
            first.delay(index)
            for index in reversed(range(max_attempts))
        ]
        assert list(reversed(reversed_delays)) == first.schedule(max_attempts)
        assert all(
            0.0 <= delay <= first.backoff_cap for delay in first.schedule()
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        attempts=st.integers(min_value=2, max_value=6),
    )
    def test_jittered_schedule_stays_under_unjittered_envelope(
        self, seed, attempts
    ):
        policy = RetryPolicy(seed=seed)
        envelope = RetryPolicy(jitter=0.0)
        for index in range(attempts):
            assert policy.delay(index) <= envelope.delay(index)
