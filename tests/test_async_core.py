"""The event-loop front door: ``AsyncGate``, pooled-body slot
lifetimes, and the ``AsyncSwiftClient`` shim (docs/async.md).

* ``AsyncGate`` reproduces the threading.Semaphore contention protocol
  (non-blocking try first, FIFO handoff, cancellation-safe grants);
* a streamed GET holds exactly one pool slot until the body is
  exhausted, closed, or its consumer is *cancelled* -- never until GC;
* the shim returns what ``SwiftClient`` returns and counts contention
  into the same ``pool_waits``;
* ``ScoopContext(async_mode=...)`` is accepted and inert: the query
  path is the sync generator stack either way.
"""

import asyncio

import pytest

from repro.aio.gate import AsyncGate
from repro.core import ScoopContext
from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset
from repro.swift import SwiftClient, SwiftCluster
from repro.swift.aclient import AsyncSwiftClient
from repro.swift.http import close_body


# --------------------------------------------------------------------------
# AsyncGate
# --------------------------------------------------------------------------


class TestAsyncGate:
    def test_try_acquire_until_saturated(self):
        gate = AsyncGate(2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()

    def test_acquire_reports_whether_it_waited(self):
        async def scenario():
            gate = AsyncGate(1)
            assert (await gate.acquire()) is False  # free slot: no wait
            waited = []

            async def contender():
                waited.append(await gate.acquire())
                gate.release()

            task = asyncio.ensure_future(contender())
            await asyncio.sleep(0)
            gate.release()
            await task
            return waited

        assert asyncio.run(scenario()) == [True]

    def test_fifo_handoff_under_contention(self):
        async def scenario():
            gate = AsyncGate(1)
            await gate.acquire()
            order = []

            async def contender(tag):
                await gate.acquire()
                order.append(tag)
                await asyncio.sleep(0)
                gate.release()

            tasks = [
                asyncio.ensure_future(contender(i)) for i in range(4)
            ]
            await asyncio.sleep(0)
            gate.release()
            await asyncio.gather(*tasks)
            return order

        assert asyncio.run(scenario()) == [0, 1, 2, 3]

    def test_cancelled_waiter_does_not_leak_its_slot(self):
        async def scenario():
            gate = AsyncGate(1)
            await gate.acquire()
            waiter = asyncio.ensure_future(gate.acquire())
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            gate.release()
            return gate.available

        assert asyncio.run(scenario()) == 1

    def test_over_release_raises(self):
        gate = AsyncGate(1)
        with pytest.raises(RuntimeError):
            gate.release()

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AsyncGate(0)


# --------------------------------------------------------------------------
# Pool slot lifetime (sync client)
# --------------------------------------------------------------------------


def _slot_free(client):
    """Probe the sync client's semaphore without blocking."""
    if client._pool.acquire(blocking=False):
        client._pool.release()
        return True
    return False


@pytest.fixture
def small_store():
    cluster = SwiftCluster(storage_node_count=2, disks_per_node=1)
    seeder = SwiftClient(cluster, "AUTH_pool")
    seeder.put_container("c")
    seeder.put_object("c", "o", b"x" * (256 * 1024))
    return cluster


class TestSyncPooledBody:
    def test_streamed_get_holds_slot_until_exhausted(self, small_store):
        client = SwiftClient(cluster=small_store, account="AUTH_pool",
                             max_connections=1)
        response = client.get_object_stream("c", "o")
        assert not _slot_free(client)
        consumed = b"".join(response.body)
        assert consumed == b"x" * (256 * 1024)
        assert _slot_free(client)

    def test_closing_a_partial_stream_frees_the_slot(self, small_store):
        client = SwiftClient(cluster=small_store, account="AUTH_pool",
                             max_connections=1)
        response = client.get_object_stream("c", "o")
        stream = iter(response.body)
        first = next(stream)
        assert first and not _slot_free(client)
        close_body(response.body)
        assert _slot_free(client)
        del stream

    def test_materialized_get_releases_on_return(self, small_store):
        client = SwiftClient(cluster=small_store, account="AUTH_pool",
                             max_connections=1)
        _headers, body = client.get_object("c", "o")
        assert len(body) == 256 * 1024
        assert _slot_free(client)


# --------------------------------------------------------------------------
# Async client
# --------------------------------------------------------------------------


class TestAsyncClient:
    def test_get_object_matches_sync(self, small_store):
        sync_client = SwiftClient(small_store, "AUTH_pool")
        _h, expected = sync_client.get_object("c", "o")

        async def fetch():
            client = AsyncSwiftClient(sync_client, max_connections=4)
            _headers, body = await client.get_object("c", "o")
            return body

        assert asyncio.run(fetch()) == expected

    def test_contended_pool_counts_waits(self, small_store):
        async def scenario():
            client = AsyncSwiftClient(
                SwiftClient(small_store, "AUTH_pool"), max_connections=1
            )
            streamed = await client.get_object_stream("c", "o")
            task = asyncio.ensure_future(client.get_object("c", "o"))
            # Let the second request hit the saturated pool and suspend.
            for _ in range(5):
                await asyncio.sleep(0)
            assert not task.done()
            waits = client.stats.pool_waits
            # Exhausting the body frees the slot.
            assert [c async for c in streamed.body]
            await task
            return waits

        assert asyncio.run(scenario()) == 1

    def test_cancelled_stream_consumer_frees_the_slot(self, small_store):
        """Satellite regression: a task cancelled mid-stream must not
        strand its pool slot until GC."""

        async def scenario():
            client = AsyncSwiftClient(
                SwiftClient(small_store, "AUTH_pool"), max_connections=1
            )
            response = await client.get_object_stream("c", "o")
            seen = []

            async def consume():
                async for chunk in response.body:
                    seen.append(len(chunk))

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            # The slot must be free again: a fresh bounded GET succeeds
            # without waiting.
            before = client.stats.pool_waits
            _headers, body = await client.get_object("c", "o")
            assert client.stats.pool_waits == before
            return len(body)

        assert asyncio.run(scenario()) == 256 * 1024


# --------------------------------------------------------------------------
# The inert ``async_mode`` keyword
# --------------------------------------------------------------------------


class TestAsyncModeKeyword:
    def test_async_mode_is_inert(self):
        """``benchmarks/hotpath`` still passes ``async_mode``; it must
        select nothing -- same rows, same REST operations."""

        def run(async_mode):
            ctx = ScoopContext(chunk_size=32 * 1024, parallelism=4,
                               async_mode=async_mode)
            upload_dataset(ctx.client, "meters",
                           DatasetSpec(meters=8, intervals=48, objects=3))
            ctx.register_csv_table("largeMeter", "meters",
                                   schema=METER_SCHEMA)
            frame, _report = ctx.run_query(
                "SELECT vid, sum(index) as total FROM largeMeter "
                "WHERE date LIKE '2015-01%' GROUP BY vid ORDER BY vid"
            )
            return frame.collect(), ctx.client.stats.requests

        rows_on, requests_on = run(True)
        rows_off, requests_off = run(False)
        assert rows_on and rows_on == rows_off
        assert requests_on == requests_off
