"""Retry policy: per-request timeouts and deterministic backoff.

Real pushdown systems treat store-side execution as best-effort: a
request that hits a flaky object server, a stalled disk or a crashed
sandbox is retried with capped exponential backoff, and a GET fails
over to the next replica in the ring.  The policy here is *fully
deterministic* -- the jitter for attempt ``i`` is drawn from a RNG
seeded with ``(seed, i)`` -- so a chaos run with a fixed fault seed
produces the same retry schedule every time, which the chaos suite
asserts.

The functional layer never sleeps for real by default: the client
*counts* the backoff it would have waited (``ClientStats``) so tests
run at full speed while the simulated timing stays observable.  Pass a
``sleeper`` (e.g. ``time.sleep``) to the client for wall-clock pacing.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, FrozenSet, List, Optional

from repro.obs.metrics import LOG_LENGTH, Counted, CounterView, MetricsRegistry

#: Statuses worth retrying from the client: the tenant was shed by
#: admission control (429), the store said "not now" (503) or a replica
#: stalled past its deadline (504).  Other 4xx and plain 500s are not
#: retried -- they are deterministic failures (bad request, missing
#: object, crashed storlet) that a retry cannot fix.
DEFAULT_RETRY_STATUSES: FrozenSet[int] = frozenset({429, 503, 504})


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the client-side resilience loop.

    ``max_attempts`` bounds the *total* number of tries (first attempt
    included), so every retry loop is provably capped.  Backoff for
    attempt ``i`` is ``base * multiplier**i`` capped at ``cap``, then
    jittered deterministically: the random fraction comes from a RNG
    seeded with ``(seed, i)``, so the full schedule is a pure function
    of the policy.
    """

    max_attempts: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_multiplier: float = 2.0
    #: Fraction of each delay that is randomized (0 = no jitter).
    jitter: float = 0.5
    seed: int = 20170417
    #: Deadline attached to every request as ``X-Request-Timeout``
    #: (seconds); ``None`` disables deadline propagation.
    request_timeout: Optional[float] = 30.0
    retry_statuses: FrozenSet[int] = DEFAULT_RETRY_STATUSES

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), seconds.

        Deterministic: the same ``(seed, attempt)`` always yields the
        same delay, independent of how many delays were computed before.
        """
        raw = self.backoff_base * (self.backoff_multiplier ** attempt)
        capped = min(self.backoff_cap, raw)
        if self.jitter == 0.0:
            return capped
        fraction = random.Random(self.seed * 1_000_003 + attempt).random()
        return capped * ((1.0 - self.jitter) + self.jitter * fraction)

    def schedule(self, attempts: Optional[int] = None) -> List[float]:
        """The full deterministic backoff schedule (one delay per retry)."""
        count = (self.max_attempts - 1) if attempts is None else attempts
        return [self.delay(index) for index in range(max(0, count))]

    def retryable(self, status: int) -> bool:
        return status in self.retry_statuses

    def server_pacing(self, raw: Optional[str]) -> Optional[float]:
        """Parse a server-supplied ``Retry-After`` header value.

        The server knows exactly when a token bucket refills or a queue
        drains, so its pacing beats the client's guessed backoff -- but
        it is still clamped to ``backoff_cap`` so a hostile or buggy
        server cannot park the client.  Returns ``None`` (fall back to
        computed backoff) for missing or malformed values.
        """
        if raw is None:
            return None
        try:
            seconds = float(raw)
        except (TypeError, ValueError):
            return None
        if seconds < 0:
            return None
        return min(self.backoff_cap, seconds)


class ClientStats(CounterView):
    """The resilience loop's counters, a view of the ``client.*``
    counters of the client's registry (clients sharing a cluster share
    them), plus the log of backoff delays taken."""

    prefix = "client"
    requests = Counted()
    retries = Counted()
    #: Backoff the client would have slept (virtual unless a sleeper is
    #: installed); lets tests assert the schedule without waiting it out.
    backoff_seconds = Counted(cast=float)
    #: Final responses still a retryable error after the last attempt.
    exhausted = Counted()
    #: Attempts that found the connection pool empty and waited for a
    #: slot (timing-dependent; excluded from determinism assertions).
    pool_waits = Counted()
    #: Retries paced by a server ``Retry-After`` header.
    retry_after_honored = Counted()

    def __init__(self, registry: MetricsRegistry):
        super().__init__(registry)
        #: The latest :data:`LOG_LENGTH` backoff delays consumed, in
        #: order -- the retry schedule as taken, for
        #: ``explain_profile()``.  Deliberately not part of
        #: ``resilience_summary`` (fingerprints stay unchanged).
        self.delays: Deque[float] = deque(maxlen=LOG_LENGTH)
