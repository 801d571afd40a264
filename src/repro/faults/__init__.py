"""Deterministic fault injection for chaos-testing the Scoop data path.

The paper's premise is that analytics over object stores must survive
the store's failure modes: disks die, object servers flake and stall,
sandboxes crash, proxies shed load.  This package provides a *seeded*
fault-injection framework so those failure modes can be reproduced
exactly:

* :mod:`repro.faults.plan` -- fault rules + the seeded
  :class:`~repro.faults.plan.FaultPlan` deciding which requests fail;
* :mod:`repro.faults.inject` -- installing a plan into a live
  :class:`~repro.swift.proxy.SwiftCluster` as proxy/object middleware
  and a storlet sandbox hook;
* :mod:`repro.faults.plans` -- the named plans the chaos suite and the
  CLI share.

Faults act on the functional stack only; the perf model
(:mod:`repro.perfmodel`, a fair-share fluid model over aggregated
cluster resources) replays fault-free runs.

Same seed + same plan => same fault sequence, same retry counters, same
query results.  That invariant is what the chaos tests assert.
"""

from repro.faults.inject import FaultInjector, install_fault_plan
from repro.faults.plan import (
    DeviceLoss,
    FaultPlan,
    FlakyObjectServer,
    FlakyProxy,
    InjectedFault,
    SlowObjectServer,
    StorletCrash,
)
from repro.faults.plans import NAMED_PLANS, all_plans, named_plan

__all__ = [
    "DeviceLoss",
    "FaultInjector",
    "FaultPlan",
    "FlakyObjectServer",
    "FlakyProxy",
    "InjectedFault",
    "NAMED_PLANS",
    "SlowObjectServer",
    "StorletCrash",
    "all_plans",
    "install_fault_plan",
    "named_plan",
]
