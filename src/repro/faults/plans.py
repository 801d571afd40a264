"""Named fault plans used by the chaos suite and the CLI.

Each named plan stresses one leg of the resilience machinery:

* ``none`` -- the fault-free control run;
* ``device-loss`` -- permanent disk failures mid-workload, absorbed by
  replica failover (a PUT lands on the surviving replicas);
* ``flaky-object`` -- transient replica errors and stalls past the
  request deadline, absorbed by proxy failover plus client retry;
* ``storlet-crash`` -- persistent sandbox failures of the pushdown
  filters (CSV, columnar and aggregating), absorbed by graceful
  degradation to plain GETs with compute-side filtering
  (``pushdown_fallbacks`` must rise);
* ``overload`` -- the QoS stress mix (docs/admission.md): sub-deadline
  stalls that eat the request's deadline budget, one persistently
  failing storage node that trips its circuit breaker, injected 429
  sheds the client paces itself through, and occasional sandbox CPU
  exhaustion.  Survivable by design: breakers sit under replica
  failover, 429 is retryable, and storlet failures degrade.
"""

from __future__ import annotations

from typing import List

from repro.faults.plan import (
    DeviceLoss,
    FaultPlan,
    FlakyObjectServer,
    FlakyProxy,
    SlowObjectServer,
    StorletCrash,
)

NAMED_PLANS = (
    "none",
    "device-loss",
    "flaky-object",
    "storlet-crash",
    "overload",
)


def named_plan(name: str, seed: int = 20170417) -> FaultPlan:
    """Build one of the :data:`NAMED_PLANS` with the given seed."""
    if name == "none":
        return FaultPlan(seed=seed, faults=())
    if name == "device-loss":
        return FaultPlan(
            seed=seed,
            faults=(
                DeviceLoss(device_index=0, at_request=5),
                DeviceLoss(device_index=3, at_request=12),
                DeviceLoss(device_index=5, at_request=20),
            ),
        )
    if name == "flaky-object":
        # Budgets are per scope (per replica of one logical request), so
        # the worst case for any single request is one proxy rejection
        # plus two rounds of every replica faulting: three failed
        # attempts, strictly inside the client's default budget of four.
        return FaultPlan(
            seed=seed,
            faults=(
                # A sprinkling of one-shot replica errors...
                FlakyObjectServer(
                    method="GET", status=503, times=1, probability=0.3
                ),
                # ...replicas stalled past any sane request deadline...
                SlowObjectServer(
                    method="GET",
                    stall_seconds=120.0,
                    times=1,
                    probability=0.25,
                ),
                # ...and occasional transient proxy rejections.
                FlakyProxy(status=503, times=1, probability=0.15),
            ),
        )
    if name == "storlet-crash":
        return FaultPlan(
            seed=seed,
            faults=(
                # Persistent, probabilistic sandbox crashes of the CSV
                # pushdown filter: with ~60% per-invocation failure on
                # every node, some splits crash on all replicas and must
                # degrade to plain reads (pushdown_fallbacks > 0).
                StorletCrash(
                    storlet="csvstorlet",
                    reason="crash",
                    times=None,
                    probability=0.6,
                ),
                # Occasional CPU-budget exhaustion (once per replica of
                # a logical request) for reason-token coverage.
                StorletCrash(
                    storlet="csvstorlet",
                    reason="cpu-exhausted",
                    times=1,
                    probability=0.3,
                ),
                # The same pressure on the columnar scan storlet, so the
                # plan stresses whichever format the data plane runs
                # (rules are appended: indices of the rules above -- and
                # with them every seeded draw -- are unchanged).
                StorletCrash(
                    storlet="columnarstorlet",
                    reason="crash",
                    times=None,
                    probability=0.6,
                ),
                StorletCrash(
                    storlet="columnarstorlet",
                    reason="cpu-exhausted",
                    times=1,
                    probability=0.3,
                ),
            ),
        )
    if name == "overload":
        return FaultPlan(
            seed=seed,
            faults=(
                # Sub-deadline stalls: each charges the end-to-end
                # deadline budget without (alone) exceeding it, so
                # repeated bad luck -- not one fault -- kills a request.
                SlowObjectServer(
                    method="GET",
                    stall_seconds=8.0,
                    times=2,
                    probability=0.5,
                ),
                # One storage node persistently erroring: its circuit
                # breaker trips and failover serves from the replicas.
                FlakyObjectServer(
                    node="storage1",
                    method="GET",
                    status=503,
                    times=None,
                    probability=0.7,
                ),
                # Injected admission sheds; 429 is retryable, so the
                # client backs off and the work still completes.
                FlakyProxy(status=429, times=1, probability=0.2),
                # Storlet CPU exhaustion under load: degradable.  Both
                # scan storlets are covered so the mix applies to the
                # row and columnar data planes alike.
                StorletCrash(
                    storlet="csvstorlet",
                    reason="cpu-exhausted",
                    times=1,
                    probability=0.25,
                ),
                StorletCrash(
                    storlet="columnarstorlet",
                    reason="cpu-exhausted",
                    times=1,
                    probability=0.25,
                ),
            ),
        )
    raise ValueError(
        f"unknown fault plan {name!r}; choose one of {', '.join(NAMED_PLANS)}"
    )


def all_plans(seed: int = 20170417) -> List[FaultPlan]:
    return [named_plan(name, seed) for name in NAMED_PLANS]
