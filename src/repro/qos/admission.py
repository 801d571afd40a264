"""Per-tenant admission control and per-node circuit breakers.

Pushdown moves query CPU *onto* the storage nodes (paper Figs. 9/10),
so an overloaded store must be able to refuse or degrade work instead of
stalling every tenant.  This module supplies the decision machinery; the
proxy tier (:mod:`repro.swift.proxy`) wires it into the request path.

Determinism contract (shared with :mod:`repro.faults.plan`): nothing in
here reads a wall clock on its own.  Token buckets refill from an
injected ``clock`` callable -- a :class:`VirtualClock` in tests and
simulations (the multi-tenant workday bench advances it to each arrival
time), ``time.monotonic`` only when a live deployment opts in.  Given
the same sequence of ``(clock reading, tenant, cost)`` consultations,
every decision replays bit for bit.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


class VirtualClock:
    """A deterministic clock advanced only by explicit calls.

    Drives the token buckets in tests and in the workday arrival-trace
    simulation, where "now" is the arrival timestamp of the event being
    processed rather than wall time.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards: {seconds}")
        with self._lock:
            self._now += seconds
            return self._now

    def set(self, timestamp: float) -> float:
        """Jump to ``timestamp`` (never backwards -- buckets must only
        ever refill)."""
        with self._lock:
            if timestamp < self._now:
                raise ValueError(
                    f"clock cannot move backwards: {timestamp} < {self._now}"
                )
            self._now = float(timestamp)
            return self._now

    def __call__(self) -> float:
        return self.now()


class TokenBucket:
    """The classic token bucket, refilled from an injected clock.

    Holds at most ``burst`` tokens, gains ``rate`` tokens per clock
    second, starts full.  ``take(cost)`` either consumes ``cost`` tokens
    or answers with the exact time until the deficit refills -- the
    ``Retry-After`` hint the shed response carries.

    The guarantee the hypothesis suite pins: over *any* interval of
    length ``T`` the bucket admits at most ``burst + rate * T`` tokens
    worth of work, no matter how concurrent callers interleave.
    """

    def __init__(self, rate: float, burst: float, clock: Callable[[], float]):
        if rate <= 0:
            raise ValueError(f"rate must be > 0: {rate}")
        if burst <= 0:
            raise ValueError(f"burst must be > 0: {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill_locked(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._stamp = now

    def peek(self) -> float:
        """Current token balance (after refilling to now)."""
        with self._lock:
            self._refill_locked(self._clock())
            return self._tokens

    def take(self, cost: float = 1.0) -> Tuple[bool, float]:
        """Try to consume ``cost`` tokens.

        Returns ``(True, 0.0)`` on success or ``(False, retry_after)``
        where ``retry_after`` is the seconds until the bucket will hold
        ``cost`` tokens again.
        """
        if cost < 0:
            raise ValueError(f"cost must be >= 0: {cost}")
        with self._lock:
            self._refill_locked(self._clock())
            if self._tokens >= cost:
                self._tokens -= cost
                return True, 0.0
            deficit = cost - self._tokens
            return False, deficit / self.rate

    def refund(self, amount: float) -> None:
        """Return tokens taken for a request that was ultimately shed."""
        with self._lock:
            self._tokens = min(self.burst, self._tokens + amount)


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission quota.

    ``request_rate`` is sustained requests per second with bursts up to
    ``request_burst``; ``byte_rate``/``byte_burst`` (optional) bound the
    request *payload* bytes the tenant may push per second the same way.
    """

    name: str
    request_rate: float = 10.0
    request_burst: float = 20.0
    byte_rate: Optional[float] = None
    byte_burst: Optional[float] = None


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission consultation."""

    admitted: bool
    tenant: str
    #: HTTP status a shed should answer with (429 over-quota).
    status: int = 200
    #: Seconds until a retry is worth attempting (the ``Retry-After``
    #: header value); 0 when admitted.
    retry_after: float = 0.0
    reason: str = ""


@dataclass
class TenantLedger:
    """Per-tenant observability the admission controller maintains."""

    admitted: int = 0
    shed: int = 0
    admitted_bytes: int = 0


class AdmissionController:
    """Token-bucket admission for every tenant hitting the proxy tier.

    Tenants with a configured :class:`TenantQuota` are policed against
    it; unknown tenants fall back to ``default_quota`` (or are admitted
    freely when it is ``None``, preserving single-tenant behaviour).
    """

    def __init__(
        self,
        quotas: Tuple[TenantQuota, ...] = (),
        default_quota: Optional[TenantQuota] = None,
        clock: Optional[Callable[[], float]] = None,
        retry_after_cap: float = 60.0,
    ):
        self.clock = clock if clock is not None else time.monotonic
        self.retry_after_cap = retry_after_cap
        self._quotas: Dict[str, TenantQuota] = {q.name: q for q in quotas}
        self._default_quota = default_quota
        self._buckets: Dict[str, Tuple[TokenBucket, Optional[TokenBucket]]] = {}
        self.ledgers: Dict[str, TenantLedger] = {}
        self._lock = threading.Lock()

    def _buckets_for(
        self, tenant: str
    ) -> Optional[Tuple[TokenBucket, Optional[TokenBucket]]]:
        with self._lock:
            pair = self._buckets.get(tenant)
            if pair is not None:
                return pair
            quota = self._quotas.get(tenant, self._default_quota)
            if quota is None:
                return None
            requests = TokenBucket(
                quota.request_rate, quota.request_burst, self.clock
            )
            payload = None
            if quota.byte_rate is not None:
                payload = TokenBucket(
                    quota.byte_rate,
                    quota.byte_burst or quota.byte_rate,
                    self.clock,
                )
            pair = (requests, payload)
            self._buckets[tenant] = pair
            return pair

    def _ledger(self, tenant: str) -> TenantLedger:
        with self._lock:
            return self.ledgers.setdefault(tenant, TenantLedger())

    def admit(self, tenant: str, bytes_estimate: int = 0) -> AdmissionDecision:
        """Admit or shed one request from ``tenant``.

        A shed consumes nothing: tokens taken from one bucket are
        refunded if the other bucket cannot cover its share, so a
        payload-starved tenant does not silently burn its request quota.
        """
        ledger = self._ledger(tenant)
        pair = self._buckets_for(tenant)
        if pair is None:
            ledger.admitted += 1
            ledger.admitted_bytes += bytes_estimate
            return AdmissionDecision(admitted=True, tenant=tenant)
        requests, payload = pair
        taken, wait = requests.take(1.0)
        if not taken:
            ledger.shed += 1
            return self._shed(tenant, wait)
        if payload is not None and bytes_estimate > 0:
            covered, byte_wait = payload.take(float(bytes_estimate))
            if not covered:
                requests.refund(1.0)
                ledger.shed += 1
                return self._shed(tenant, byte_wait)
        ledger.admitted += 1
        ledger.admitted_bytes += bytes_estimate
        return AdmissionDecision(admitted=True, tenant=tenant)

    def _shed(self, tenant: str, wait: float) -> AdmissionDecision:
        retry_after = min(self.retry_after_cap, wait)
        return AdmissionDecision(
            admitted=False,
            tenant=tenant,
            status=429,
            retry_after=math.ceil(retry_after * 1000) / 1000,
            reason="over-quota",
        )

    def summary(self) -> Dict[str, Dict[str, int]]:
        with self._lock:
            return {
                tenant: {
                    "admitted": ledger.admitted,
                    "shed": ledger.shed,
                    "admitted_bytes": ledger.admitted_bytes,
                }
                for tenant, ledger in sorted(self.ledgers.items())
            }


class CircuitBreaker:
    """One backend node's closed/open/half-open breaker.

    Clock-free on purpose: state advances per *consultation*, not per
    second, so a serial request sequence replays identically.

    * **closed** -- requests pass; ``failure_threshold`` cumulative
      failures (without an intervening success resetting the count)
      trip it open.
    * **open** -- requests are rejected without touching the backend;
      after ``cooldown_consults`` rejections the next request becomes
      the half-open probe.
    * **half-open** -- exactly one probe passes; its success closes the
      breaker, its failure re-opens it for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 5, cooldown_consults: int = 8):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_consults < 1:
            raise ValueError("cooldown_consults must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_consults = cooldown_consults
        self.state = self.CLOSED
        self.failures = 0
        self.rejections = 0
        self._cooldown_left = 0
        self._probe_inflight = False
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """Consult the breaker for one request."""
        with self._lock:
            if self.state == self.CLOSED:
                return True
            if self.state == self.OPEN:
                if self._cooldown_left > 0:
                    self._cooldown_left -= 1
                    self.rejections += 1
                    return False
                self.state = self.HALF_OPEN
                self._probe_inflight = True
                return True
            # Half-open: one probe at a time.
            if self._probe_inflight:
                self.rejections += 1
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.failures = 0
            self._probe_inflight = False
            self.state = self.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._probe_inflight = False
            if self.state == self.HALF_OPEN:
                self._trip_locked()
                return
            self.failures += 1
            if self.state == self.CLOSED and (
                self.failures >= self.failure_threshold
            ):
                self._trip_locked()

    def _trip_locked(self) -> None:
        self.state = self.OPEN
        self.failures = 0
        self._cooldown_left = self.cooldown_consults


class CircuitBreakerBoard:
    """One breaker per backend node, created lazily."""

    def __init__(self, failure_threshold: int = 5, cooldown_consults: int = 8):
        self.failure_threshold = failure_threshold
        self.cooldown_consults = cooldown_consults
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, node: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(node)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.failure_threshold, self.cooldown_consults
                )
                self._breakers[node] = breaker
            return breaker

    def allow(self, node: str) -> bool:
        return self.breaker(node).allow()

    def record_success(self, node: str) -> None:
        self.breaker(node).record_success()

    def record_failure(self, node: str) -> None:
        self.breaker(node).record_failure()

    def states(self) -> Dict[str, str]:
        with self._lock:
            return {
                node: breaker.state
                for node, breaker in sorted(self._breakers.items())
            }

    def rejections(self) -> int:
        with self._lock:
            return sum(b.rejections for b in self._breakers.values())


@dataclass(frozen=True)
class QosConfig:
    """Everything the serving stack's QoS tier is configured with.

    ``None``/zero fields disable the corresponding mechanism, so the
    default config is inert and existing single-tenant behaviour is
    byte-for-byte unchanged.
    """

    #: Per-tenant quotas; tenants not listed fall back to
    #: ``default_quota`` (``None`` = admit freely).
    tenants: Tuple[TenantQuota, ...] = ()
    default_quota: Optional[TenantQuota] = None
    #: Bounded admission queue: a request that finds its proxy saturated
    #: *and* this many earlier requests already queued is shed with a
    #: 503 + ``Retry-After`` instead of waiting unboundedly.
    max_queue_depth: Optional[int] = None
    #: ``Retry-After`` hint on queue-full sheds, seconds.
    queue_retry_after: float = 1.0
    #: Per-node circuit breakers (``None`` disables them).
    breaker_failure_threshold: Optional[int] = None
    breaker_cooldown_consults: int = 8
    #: Brownout: demote new pushdown GETs to plain reads once the target
    #: node's storlet CPU gauge reaches this value (``None`` disables).
    brownout_cpu_watermark: Optional[float] = None
    #: Deadline budgets: simulated seconds each tier charges against the
    #: request's remaining ``X-Request-Timeout`` before forwarding.
    proxy_overhead_seconds: float = 0.0
    object_overhead_seconds: float = 0.0
    #: Simulated per-MB streaming cost charged at chunk boundaries while
    #: a response body drains; an exhausted budget cancels the stream
    #: (storlet pipelines included) at the next boundary.
    stream_seconds_per_mb: float = 0.0
    #: Cap for ``Retry-After`` hints on quota sheds.
    retry_after_cap: float = 60.0

    def __post_init__(self):
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.stream_seconds_per_mb < 0:
            raise ValueError("stream_seconds_per_mb must be >= 0")

    @property
    def admission_enabled(self) -> bool:
        return bool(self.tenants) or self.default_quota is not None
