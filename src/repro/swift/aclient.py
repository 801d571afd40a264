"""Front-door shim: many in-flight GETs multiplexed on one event loop.

The query path is synchronous (docs/concurrency.md); the event loop keeps
the one job it measurably wins, holding thousands of front-end requests
in flight while each waits out a round trip (docs/async.md).  This shim
owns only what is genuinely asynchronous -- the pool slot, the backoff
sleep, a streamed body's slot lifetime -- and takes the rest from the
wrapped :class:`SwiftClient`; the in-process tiers never block, so
``cluster.handle_request`` runs inline.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Tuple

from repro.aio.gate import AsyncGate
from repro.swift.client import SwiftClient, _PooledBody
from repro.swift.http import HeaderDict, Request, Response


class _AsyncPooledBody(_PooledBody):
    """A streamed body pinning one gate slot until it is exhausted,
    fails or is closed (the sync :class:`_PooledBody` contract).
    ``async for`` yields to the loop *before* each pull from the store's
    non-blocking sync iterator, so a cancelled consumer stops at a chunk
    boundary -- no chunk already read is lost -- and frees its slot."""

    def __init__(self, chunks, release: Callable[[], None]):
        super().__init__(chunks, release)
        self._iterator = iter(chunks)

    def __aiter__(self) -> "_AsyncPooledBody":
        return self

    async def __anext__(self) -> bytes:
        try:
            await asyncio.sleep(0)
            for chunk in self._iterator:
                if chunk:
                    return chunk
        except BaseException:
            self.close()
            raise
        self.close()
        raise StopAsyncIteration


class AsyncSwiftClient:
    """Coroutine GETs with ``client``'s account, retry policy and stats,
    at most ``max_connections`` in flight, for use from one event loop;
    ``sleeper`` (``asyncio.sleep``) makes retry backoff real."""

    def __init__(self, client: SwiftClient, max_connections: int, sleeper=None):
        self._sync = client
        self.stats = client.stats
        self._gate = AsyncGate(max_connections)
        self._sleeper = sleeper

    async def request(
        self, method: str, path: str, headers=None, body=None, params=None
    ) -> Response:
        """:meth:`SwiftClient.request` with its two waits awaited."""
        sync = self._sync
        merged, body = sync._prepare(headers, body)
        span = sync._start_span(method, path, merged)
        attempts, response = 0, None
        try:
            for attempt in range(sync.retry_policy.max_attempts):
                request = Request(method, path, merged.copy(), body, params)
                response = await self._dispatch(request)
                attempts = attempt + 1
                delay = sync._after_attempt(method, attempt, response)
                if delay is None:
                    break
                if self._sleeper is not None:
                    await self._sleeper(delay)
            return response
        finally:
            sync._finish_span(span, attempts, response)

    async def _dispatch(self, request: Request) -> Response:
        """One attempt through the pool: a saturated gate suspends this
        coroutine (one ``pool_wait``) instead of blocking a thread."""
        gate = self._gate
        if not gate.try_acquire():
            self._sync._count_pool_wait()
            await gate.acquire()
        try:
            response = self._sync.cluster.handle_request(request)
        except BaseException:
            gate.release()
            raise
        if response.body is None or isinstance(response.body, (bytes, str)):
            gate.release()
        else:
            response.body = _AsyncPooledBody(response.body, gate.release)
        return response

    async def get_object_stream(
        self, container: str, obj: str, headers=None, byte_range=None
    ) -> Response:
        """:meth:`SwiftClient.get_object_stream`; ``async for`` streams
        ``response.body`` (plain ``bytes`` when the store sent it whole)."""
        sync = self._sync
        path = sync._path(container, obj)
        merged = sync._range_headers(headers, byte_range)
        return sync._checked(await self.request("GET", path, merged))

    async def get_object(
        self, container: str, obj: str, headers=None, byte_range=None
    ) -> Tuple[HeaderDict, bytes]:
        """:meth:`SwiftClient.get_object`: headers + materialized body."""
        response = await self.get_object_stream(
            container, obj, headers, byte_range
        )
        body = response.body
        if isinstance(body, _AsyncPooledBody):
            body = b"".join([chunk async for chunk in body])
        return response.headers, body
