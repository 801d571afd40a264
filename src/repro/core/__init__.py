"""Scoop core: pushdown tasks, the analytics delegator and policies.

This package is the paper's primary contribution (Section IV): the three
abstractions that let an analytics framework and an object store
cooperate on data ingestion.

* :class:`~repro.core.pushdown.PushdownTask` -- "a piece of metadata
  attached to an object request" describing the work delegated to the
  store (projection columns + selection filters + CSV framing).
* :class:`~repro.core.delegator.AnalyticsDelegator` -- the compute-side
  component that decides, per scan, which task each partition's GET
  request is tagged with (or none), and records why.
* :mod:`~repro.core.policies` -- per-tenant/container enforcement and
  the Crystal-style adaptive controller sketched in Section VII.
* :class:`~repro.core.scoop.ScoopContext` -- the facade wiring a Spark
  session, the Swift cluster and the storlet engine together.
"""

from repro.core.delegator import AnalyticsDelegator
from repro.core.policies import (
    AdaptivePushdownController,
    PushdownDecision,
    TenantClass,
    TenantPolicy,
)
from repro.core.pushdown import PushdownTask
from repro.core.scoop import ScoopContext

__all__ = [
    "AdaptivePushdownController",
    "AnalyticsDelegator",
    "PushdownDecision",
    "PushdownTask",
    "ScoopContext",
    "TenantClass",
    "TenantPolicy",
]
