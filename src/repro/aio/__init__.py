"""Asyncio substrate of the event-loop front door (docs/async.md).

One primitive: :class:`~repro.aio.gate.AsyncGate`, a counting gate with
a non-blocking ``try_acquire`` (needed for wait-count parity with the
threaded ``threading.Semaphore`` paths).
"""

from repro.aio.gate import AsyncGate

__all__ = ["AsyncGate"]
