"""Multi-tenant QoS: admission control, deadline budgets, breakers.

The serving stack's overload-robustness tier (docs/admission.md):

* :class:`TenantQuota` / :class:`TokenBucket` / :class:`AdmissionController`
  -- deterministic per-tenant rate/byte quotas consulted at the proxy's
  load balancer; over-quota requests are shed with a typed 429 carrying
  ``Retry-After``.
* :class:`CircuitBreakerBoard` -- per-backend-node closed/open/half-open
  breakers layered under replica failover.
* :mod:`repro.qos.budget` -- end-to-end deadline budgets: every tier
  charges its simulated elapsed time against the request's remaining
  ``X-Request-Timeout`` and cancels streams at the next chunk boundary
  once the budget is exhausted.
* :class:`QosConfig` -- the single knob bundle a cluster is configured
  with (``SwiftCluster(qos=...)`` / ``ScoopContext(qos=...)``).
"""

from repro.qos.admission import (
    AdmissionController,
    AdmissionDecision,
    CircuitBreaker,
    CircuitBreakerBoard,
    QosConfig,
    TenantQuota,
    TokenBucket,
    VirtualClock,
)
from repro.qos.budget import (
    STREAM_COST_ENV_KEY,
    budgeted_chunks,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "CircuitBreakerBoard",
    "QosConfig",
    "TenantQuota",
    "TokenBucket",
    "VirtualClock",
    "STREAM_COST_ENV_KEY",
    "budgeted_chunks",
]
