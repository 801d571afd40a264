"""End-to-end deadline budgets (docs/admission.md).

The client attaches a deadline via the ``X-Request-Timeout`` header.
Historically each tier only *compared* its simulated stall time against
that value; nothing ever decremented it, so a request could burn the
same deadline at every tier.  This module turns the header into a
*budget*: every tier charges its simulated elapsed time against the
remaining value before forwarding, and the request dies with a 504 the
moment the budget is exhausted -- including mid-stream, where the charge
happens per chunk and cancellation lands on the next chunk boundary.

Charging is header-mutating and monotonic (the remaining budget only
ever decreases along a pipeline), which is what the hypothesis property
in ``tests/test_qos.py`` pins down.

The per-chunk cost is configured through the request environ
(:data:`STREAM_COST_ENV_KEY`, seconds per MiB) so that the default
configuration -- no QoS installed -- streams byte-identically to the
pre-QoS code.  Delivered bytes are tallied per tier in the environ
(:data:`STREAM_BYTES_ENV_KEY`) so tests can assert exactly where a
doomed stream was cut.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: Header carrying the remaining deadline budget, in (simulated) seconds.
TIMEOUT_HEADER = "x-request-timeout"

#: Request-environ key holding the streaming cost in seconds per MiB.
#: Installed by the proxy from ``QosConfig.stream_seconds_per_mb``;
#: absent (or zero) means streaming is free and budgets are only
#: charged by the per-tier overhead middleware and injected stalls.
STREAM_COST_ENV_KEY = "qos.stream_seconds_per_mb"

#: Request-environ key holding a ``{tier: delivered_bytes}`` tally.
STREAM_BYTES_ENV_KEY = "qos.stream_bytes"

_MB = 1024 * 1024


def budgeted_chunks(
    chunks: Iterable[bytes], request, tier: str
) -> Iterator[bytes]:
    """Stream ``chunks`` while charging the request's deadline budget.

    Each chunk costs ``len(chunk) * stream_seconds_per_mb / MiB``; the
    charge is taken *before* the chunk is yielded, so a stream whose
    budget runs out is cancelled at the chunk boundary and the doomed
    chunk is never delivered.  The exhaustion surfaces as a
    :class:`~repro.swift.exceptions.RequestTimeout` raised out of the
    iterator, which unwinds any storlet generator pipeline stacked on
    top of it.

    When the request carries no deadline header, or no stream cost is
    configured, the chunks pass through untouched (and untallied).
    """
    cost = float(request.environ.get(STREAM_COST_ENV_KEY) or 0.0)
    if cost <= 0.0 or request.remaining_timeout() is None:
        yield from chunks
        return
    totals = request.environ.setdefault(STREAM_BYTES_ENV_KEY, {})
    for chunk in chunks:
        request.charge_timeout(len(chunk) * cost / _MB, tier)
        totals[tier] = totals.get(tier, 0) + len(chunk)
        yield chunk
