"""Front-end concurrency sweep: threaded vs event-loop serving capacity.

The workday benchmark's multi-tenant leg exercises admission control
over a *performance model*; this module measures the *functional* front
end instead: thousands of concurrent queries -- each one simulated
client round-trip latency plus one real GET against the in-process
Swift stack -- multiplexed either over a bounded thread pool
(:class:`~repro.swift.client.SwiftClient`, one thread per in-flight
query) or over one event loop
(:class:`~repro.swift.aclient.AsyncSwiftClient`, one coroutine per
in-flight query gated by :class:`~repro.aio.gate.AsyncGate`).

A thread-per-request front end caps in-flight capacity at its pool
size; coroutines waiting out a round-trip cost nothing, so the event
loop sustains an order of magnitude more concurrent queries on the
same machine.  :func:`replay_workday_frontend` replays one closed
burst of queries and reports peak in-flight, nearest-rank latency
percentiles over dispatch-to-completion, and byte-verification
failures (every response is compared against the seeded payload, so
the capacity claim never trades away correctness).

Per-request client/proxy spans are suppressed during the burst (a
disabled collector is swapped in and restored afterwards): tens of
thousands of GETs would otherwise dominate the experiment's committed
Chrome trace.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List

from repro.aio.gate import AsyncGate
from repro.obs.trace import TraceCollector, get_collector, set_collector
from repro.swift.aclient import AsyncSwiftClient
from repro.swift.client import SwiftClient
from repro.swift.proxy import SwiftCluster

#: Container / object the burst reads (seeded once per replay).
FRONTEND_CONTAINER = "frontend"
FRONTEND_OBJECT = "payload.bin"


@dataclass
class FrontendSweepResult:
    """One front-end replay point of the concurrency sweep."""

    #: ``"threads"`` or ``"async"`` -- which serving core ran the burst.
    mode: str
    #: Configured in-flight bound (thread-pool size or AsyncGate limit).
    inflight_limit: int
    #: Queries dispatched (the whole burst, no admission shedding here).
    dispatched: int
    #: Queries that completed with a successful GET.
    completed: int
    #: Responses whose body did not byte-match the seeded payload.
    byte_errors: int
    #: Highest number of queries concurrently holding a serving slot.
    peak_inflight: int
    #: Nearest-rank p50 of dispatch-to-completion latency (seconds).
    p50_seconds: float
    #: Nearest-rank p99 of dispatch-to-completion latency (seconds).
    p99_seconds: float
    #: Wall-clock seconds to drain the whole burst.
    wall_seconds: float


def _percentile(sorted_values: List[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(len(sorted_values) * quantile + 0.999999))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _seed_payload(cluster: SwiftCluster, seed: int, payload_bytes: int,
                  account: str) -> bytes:
    """PUT the deterministic payload the burst will read back."""
    payload = random.Random(seed).randbytes(payload_bytes)
    client = SwiftClient(cluster, account)
    client.put_container(FRONTEND_CONTAINER)
    client.put_object(FRONTEND_CONTAINER, FRONTEND_OBJECT, payload)
    return payload


def replay_workday_frontend(
    mode: str,
    queries: int = 2000,
    inflight_limit: int = 100,
    rtt_seconds: float = 0.02,
    payload_bytes: int = 2048,
    seed: int = 20170417,
) -> FrontendSweepResult:
    """Drain one closed burst of ``queries`` front-end reads.

    Each query simulates a client round trip (``rtt_seconds`` of real
    sleeping -- ``time.sleep`` on a worker thread vs
    ``asyncio.sleep`` in a coroutine) and then performs one real GET,
    byte-verified against the seeded payload.  All queries are
    dispatched at once; ``inflight_limit`` bounds how many hold a
    serving slot concurrently, so the result shows what capacity the
    serving core sustains and what latency the rest of the burst pays
    waiting behind it.
    """
    if mode not in ("threads", "async"):
        raise ValueError(f"unknown frontend mode {mode!r}")
    if queries < 1:
        raise ValueError(f"queries must be >= 1: {queries}")
    account = "AUTH_frontend"
    cluster = SwiftCluster(
        storage_node_count=2, disks_per_node=2, proxy_count=2,
        # The sweep measures the *front-end* bound; an uncapped proxy
        # keeps server-side admission out of the measurement.
        proxy_concurrency=None,
    )
    payload = _seed_payload(cluster, seed, payload_bytes, account)

    # Suppress per-GET spans for the burst; restore the bench collector
    # afterwards so experiment-level points keep tracing.
    previous_collector = get_collector()
    set_collector(TraceCollector(enabled=False))
    try:
        if mode == "threads":
            return _drain_threads(
                cluster, account, payload, queries, inflight_limit,
                rtt_seconds,
            )
        return asyncio.run(
            _adrain(
                cluster, account, payload, queries, inflight_limit,
                rtt_seconds,
            )
        )
    finally:
        set_collector(previous_collector)


def _drain_threads(
    cluster: SwiftCluster,
    account: str,
    payload: bytes,
    queries: int,
    inflight_limit: int,
    rtt_seconds: float,
) -> FrontendSweepResult:
    """Thread-per-in-flight-query baseline."""
    client = SwiftClient(cluster, account, max_connections=inflight_limit)
    lock = threading.Lock()
    inflight = 0
    peak = 0
    completed = 0
    byte_errors = 0
    latencies: List[float] = []

    def serve(dispatched_at: float) -> None:
        nonlocal inflight, peak, completed, byte_errors
        with lock:
            inflight += 1
            peak = max(peak, inflight)
        try:
            time.sleep(rtt_seconds)
            _headers, body = client.get_object(
                FRONTEND_CONTAINER, FRONTEND_OBJECT
            )
            finished_at = time.perf_counter()
            with lock:
                completed += 1
                if body != payload:
                    byte_errors += 1
                latencies.append(finished_at - dispatched_at)
        finally:
            with lock:
                inflight -= 1

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=inflight_limit) as executor:
        futures = [
            executor.submit(serve, time.perf_counter())
            for _ in range(queries)
        ]
        for future in futures:
            future.result()
    wall_seconds = time.perf_counter() - wall_start
    latencies.sort()
    return FrontendSweepResult(
        mode="threads",
        inflight_limit=inflight_limit,
        dispatched=queries,
        completed=completed,
        byte_errors=byte_errors,
        peak_inflight=peak,
        p50_seconds=_percentile(latencies, 0.50),
        p99_seconds=_percentile(latencies, 0.99),
        wall_seconds=wall_seconds,
    )


async def _adrain(
    cluster: SwiftCluster,
    account: str,
    payload: bytes,
    queries: int,
    inflight_limit: int,
    rtt_seconds: float,
) -> FrontendSweepResult:
    """Event-loop serving core: coroutine-per-query on one loop."""
    client = AsyncSwiftClient(
        SwiftClient(cluster, account), max_connections=inflight_limit
    )
    gate = AsyncGate(inflight_limit)
    inflight = 0
    peak = 0
    completed = 0
    byte_errors = 0
    latencies: List[float] = []

    async def serve(dispatched_at: float) -> None:
        nonlocal inflight, peak, completed, byte_errors
        await gate.acquire()
        try:
            inflight += 1
            peak = max(peak, inflight)
            await asyncio.sleep(rtt_seconds)
            _headers, body = await client.get_object(
                FRONTEND_CONTAINER, FRONTEND_OBJECT
            )
            completed += 1
            if body != payload:
                byte_errors += 1
            latencies.append(time.perf_counter() - dispatched_at)
        finally:
            inflight -= 1
            gate.release()

    wall_start = time.perf_counter()
    tasks = [
        asyncio.ensure_future(serve(time.perf_counter()))
        for _ in range(queries)
    ]
    await asyncio.gather(*tasks)
    wall_seconds = time.perf_counter() - wall_start
    latencies.sort()
    return FrontendSweepResult(
        mode="async",
        inflight_limit=inflight_limit,
        dispatched=queries,
        completed=completed,
        byte_errors=byte_errors,
        peak_inflight=peak,
        p50_seconds=_percentile(latencies, 0.50),
        p99_seconds=_percentile(latencies, 0.99),
        wall_seconds=wall_seconds,
    )
