"""The concurrency gate of the event-loop front door.

``asyncio.Semaphore`` offers no non-blocking acquire, which the
threaded tiers rely on to count contention (``pool_waits``,
``proxy_queue_waits``): a slot is first tried without waiting, and only
a failed try counts as a wait.  :class:`AsyncGate` reproduces exactly
that protocol for coroutines.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque


class AsyncGate:
    """A counting gate bounding coroutine concurrency on one loop.

    Single-loop by construction: methods must only be called from one
    loop's thread, so no locking is needed.  ``release`` hands the freed
    slot directly to the oldest live waiter, giving the same FIFO
    fairness as ``threading.Semaphore`` under contention.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"gate limit must be >= 1: {limit!r}")
        self._limit = limit
        self._value = limit
        self._waiters: Deque[asyncio.Future] = deque()

    @property
    def limit(self) -> int:
        """The configured slot count."""
        return self._limit

    @property
    def available(self) -> int:
        """Slots currently free (waiters pending means 0)."""
        return self._value

    def try_acquire(self) -> bool:
        """Take a slot without waiting; ``False`` when saturated."""
        if self._value > 0:
            self._value -= 1
            return True
        return False

    async def acquire(self) -> bool:
        """Take a slot, suspending until one frees up.

        Returns ``True`` when the caller had to wait (the contention
        signal the wait counters record) and ``False`` for an immediate
        grant.  Cancellation-safe: a waiter cancelled after being handed
        a slot passes it on instead of leaking it.
        """
        if self.try_acquire():
            return False
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._waiters.append(future)
        try:
            await future
        except asyncio.CancelledError:
            if future.done() and not future.cancelled():
                # The slot was granted concurrently with cancellation:
                # pass it to the next waiter rather than losing it.
                self.release()
            else:
                try:
                    self._waiters.remove(future)
                except ValueError:
                    pass
            raise
        return True

    def release(self) -> None:
        """Free a slot, waking the oldest live waiter if any."""
        while self._waiters:
            future = self._waiters.popleft()
            if not future.done():
                future.set_result(None)
                return
        if self._value >= self._limit:
            raise RuntimeError("AsyncGate released more times than acquired")
        self._value += 1
