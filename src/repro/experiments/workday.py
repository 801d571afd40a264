"""The GridPocket workday: a stream of analyst queries, both ways.

The paper's business argument (Section VI-B): "in the case that each
query requires to import a different 500GB dataset to the compute
cluster, the total execution time of the set of queries is 4,814.7
seconds.  With Scoop, data scientists in GridPocket could execute the
same set of queries only in 155.48 seconds."

This experiment goes one step further than the paper's back-to-back sum:
queries *arrive on a schedule* (an analyst fires one every few minutes)
and contend on the shared cluster.  Plain ingest-then-compute queries
pile up behind the saturated load-balancer link; pushdown queries finish
before the next one arrives.

:func:`simulate_multitenant_workday` extends the replay to the QoS tier
(docs/admission.md): several tenant classes with seeded exponential
arrivals share the cluster behind a token-bucket admission controller
driven by a virtual clock; over-quota arrivals are shed open-loop, the
admitted stream runs through the concurrent ingest simulation, and the
result carries p99 response time, the shed rate, and an exhaustive
sliding-window audit that no tenant ever exceeded burst + rate x T
admissions inside any window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.gridpocket_runs import Table1Row, table1_selectivities
from repro.perfmodel.concurrent import ConcurrentIngestSimulation, JobSpec
from repro.perfmodel.model import SelectivityProfile
from repro.perfmodel.parameters import DATASETS, PerfParameters
from repro.qos.admission import AdmissionController, TenantQuota, VirtualClock


@dataclass
class WorkdayQueryResult:
    query_name: str
    arrival: float
    finish: float

    @property
    def response_time(self) -> float:
        return self.finish - self.arrival


@dataclass
class WorkdayResult:
    mode: str
    queries: List[WorkdayQueryResult]

    def mean_response_time(self) -> float:
        if not self.queries:
            return 0.0
        return sum(q.response_time for q in self.queries) / len(self.queries)

    def max_response_time(self) -> float:
        return max((q.response_time for q in self.queries), default=0.0)

    def makespan(self) -> float:
        return max((q.finish for q in self.queries), default=0.0)


def simulate_workday(
    mode: str,
    inter_arrival_seconds: float = 120.0,
    dataset: str = "medium",
    params: Optional[PerfParameters] = None,
    table1: Optional[List[Table1Row]] = None,
) -> WorkdayResult:
    """Run the seven Table-I queries arriving every
    ``inter_arrival_seconds`` on one shared cluster."""
    table1 = table1 or table1_selectivities()
    scale = DATASETS[dataset]
    simulation = ConcurrentIngestSimulation(params)
    specs = []
    for index, entry in enumerate(table1):
        specs.append(
            JobSpec(
                name=f"{index:02d}-{entry.name}",
                mode=mode,
                dataset_bytes=scale.size_bytes,
                profile=SelectivityProfile.mixed(
                    entry.measured.data_selectivity
                ),
                start_time=index * inter_arrival_seconds,
            )
        )
    outcome = simulation.run_concurrent(specs)
    queries = []
    for spec in specs:
        job = outcome.job(spec.name)
        queries.append(
            WorkdayQueryResult(
                query_name=spec.name.split("-", 1)[1],
                arrival=spec.start_time,
                finish=job.finish_time,
            )
        )
    return WorkdayResult(mode=mode, queries=queries)


@dataclass(frozen=True)
class TenantClass:
    """One tenant's traffic shape and admission quota."""

    name: str
    #: Mean of the seeded exponential inter-arrival distribution.
    inter_arrival_seconds: float
    #: Scale factor applied to the base dataset size per query.
    dataset_scale: float
    quota: TenantQuota


def default_tenant_classes() -> List[TenantClass]:
    """Three GridPocket-flavoured tenant classes.

    ``dashboard`` fires small queries far faster than its quota refills
    (it *will* be shed); ``etl`` and ``adhoc`` are provisioned with
    headroom and should sail through.
    """
    return [
        TenantClass(
            name="dashboard",
            inter_arrival_seconds=20.0,
            dataset_scale=0.25,
            quota=TenantQuota(
                name="dashboard", request_rate=1 / 40.0, request_burst=3.0
            ),
        ),
        TenantClass(
            name="etl",
            inter_arrival_seconds=120.0,
            dataset_scale=1.0,
            quota=TenantQuota(
                name="etl", request_rate=1 / 60.0, request_burst=4.0
            ),
        ),
        TenantClass(
            name="adhoc",
            inter_arrival_seconds=300.0,
            dataset_scale=2.0,
            quota=TenantQuota(
                name="adhoc", request_rate=1 / 120.0, request_burst=3.0
            ),
        ),
    ]


@dataclass
class MultiTenantQuery:
    """One arrival in the multi-tenant trace."""

    tenant: str
    query_name: str
    arrival: float
    admitted: bool
    finish: float = 0.0
    retry_after: float = 0.0

    @property
    def response_time(self) -> float:
        return self.finish - self.arrival


@dataclass
class MultiTenantWorkdayResult:
    """The multi-tenant workday outcome plus its quota audit."""

    queries: List[MultiTenantQuery]
    #: Sliding-window quota violations found by the audit (must be
    #: zero: the token bucket's contract).
    quota_violations: int = 0
    tenant_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: True when every tenant's admitted stream was small enough for
    #: the exhaustive O(n^2) pairwise audit; False means the windowed
    #: pairwise + exact token-bucket-replay audit ran instead (no
    #: silent caps: the coverage downgrade is recorded here).
    audit_exhaustive: bool = True
    #: Total pairwise windows the audit checked across tenants.
    audit_pairs: int = 0

    @property
    def admitted(self) -> List[MultiTenantQuery]:
        return [q for q in self.queries if q.admitted]

    @property
    def shed_count(self) -> int:
        return sum(1 for q in self.queries if not q.admitted)

    @property
    def shed_rate(self) -> float:
        if not self.queries:
            return 0.0
        return self.shed_count / len(self.queries)

    def p99_response_time(self) -> float:
        """p99 response time over admitted queries (nearest-rank)."""
        times = sorted(q.response_time for q in self.admitted)
        if not times:
            return 0.0
        rank = max(0, int(len(times) * 0.99 + 0.5) - 1)
        return times[min(rank, len(times) - 1)]

    def mean_response_time(self) -> float:
        admitted = self.admitted
        if not admitted:
            return 0.0
        return sum(q.response_time for q in admitted) / len(admitted)


#: Largest admitted stream still audited with the exhaustive O(n^2)
#: pairwise check; larger streams switch to windowed pairs + an exact
#: O(n) token-bucket replay (see :func:`_audit_admitted`).
AUDIT_EXHAUSTIVE_LIMIT = 1500
#: How many forward neighbours each arrival is paired with in the
#: windowed audit (short windows are where burst violations live).
AUDIT_WINDOW_PAIRS = 200


def _audit_quota_windows(
    arrivals: List[float],
    quota: TenantQuota,
    tolerance: float = 1e-9,
    max_span: Optional[int] = None,
) -> int:
    """Count sliding-window violations of ``burst + rate * T``.

    Pairwise over admitted arrivals ``i <= j``: the token bucket
    guarantees at most ``burst + rate * (t_j - t_i)`` admissions inside
    the closed window ``[t_i, t_j]``.  Exhaustive (O(n^2)) when
    ``max_span`` is None; otherwise each ``i`` is paired with at most
    its next ``max_span`` arrivals.
    """
    violations = 0
    times = sorted(arrivals)
    for i in range(len(times)):
        stop = len(times) if max_span is None else min(
            i + max_span + 1, len(times)
        )
        for j in range(i, stop):
            window = times[j] - times[i]
            allowed = quota.request_burst + quota.request_rate * window
            if (j - i + 1) > allowed + tolerance:
                violations += 1
    return violations


def _audit_pair_count(count: int, max_span: Optional[int]) -> int:
    """How many (i, j) windows :func:`_audit_quota_windows` checks."""
    if max_span is None:
        return count * (count + 1) // 2
    total = 0
    for i in range(count):
        total += min(max_span + 1, count - i)
    return total


def _audit_token_replay(
    arrivals: List[float], quota: TenantQuota, tolerance: float = 1e-9
) -> int:
    """Exact O(n) replay of the token bucket over an admitted stream.

    Counts arrivals the bucket could not have covered: refill
    ``rate * dt`` capped at ``burst``, one token consumed per
    admission.  Complements the windowed pairwise audit for long
    streams -- the replay is exact over the *whole* stream while the
    windowed pairs localize any violation it finds.
    """
    violations = 0
    tokens = quota.request_burst
    last: Optional[float] = None
    for when in sorted(arrivals):
        if last is not None:
            tokens = min(
                quota.request_burst,
                tokens + (when - last) * quota.request_rate,
            )
        last = when
        if tokens + tolerance < 1.0:
            violations += 1
        tokens -= 1.0
    return violations


def _audit_admitted(
    arrivals: List[float], quota: TenantQuota
) -> tuple:
    """Audit one tenant's admitted stream; returns
    ``(violations, exhaustive, pairs_checked)``.

    Streams up to :data:`AUDIT_EXHAUSTIVE_LIMIT` arrivals get the
    exhaustive pairwise audit.  Longer streams (tens of thousands of
    arrivals would make O(n^2) minutes of work) get windowed pairs --
    each arrival against its next :data:`AUDIT_WINDOW_PAIRS` -- plus
    the exact whole-stream token replay, and the result records that
    coverage downgrade instead of hiding it.
    """
    if len(arrivals) <= AUDIT_EXHAUSTIVE_LIMIT:
        violations = _audit_quota_windows(arrivals, quota)
        return violations, True, _audit_pair_count(len(arrivals), None)
    violations = _audit_quota_windows(
        arrivals, quota, max_span=AUDIT_WINDOW_PAIRS
    )
    violations += _audit_token_replay(arrivals, quota)
    return (
        violations,
        False,
        _audit_pair_count(len(arrivals), AUDIT_WINDOW_PAIRS),
    )


def simulate_multitenant_workday(
    seed: int = 20170417,
    horizon_seconds: float = 1800.0,
    dataset: str = "small",
    params: Optional[PerfParameters] = None,
    table1: Optional[List[Table1Row]] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
    arrivals: Optional[int] = None,
) -> MultiTenantWorkdayResult:
    """Replay a seeded multi-tenant arrival trace through admission
    control and the concurrent ingest simulation.

    Fully deterministic: arrivals come from ``random.Random(seed)``,
    the token buckets from a :class:`VirtualClock` stepped to each
    arrival's timestamp, and the downstream DES is seedless.  Shed
    arrivals are counted open-loop (the client would pace itself via
    the ``Retry-After`` hint); admitted ones become pushdown jobs.

    The trace length is set either by ``horizon_seconds`` (tenants
    arrive until the horizon; the default 1800 s yields ~100 arrivals)
    or by ``arrivals``: an exact total arrival count -- each tenant
    generates a stream long enough to cover it and the merged trace is
    truncated to exactly that many events.  The workday bench runs
    20000 arrivals in full mode, capped at 2000 in quick mode
    (``--arrivals`` overrides both).
    """
    table1 = table1 or table1_selectivities()
    tenants = list(tenants) if tenants is not None else default_tenant_classes()
    base_bytes = DATASETS[dataset].size_bytes
    rng = random.Random(seed)

    trace: List[tuple] = []
    if arrivals is not None:
        if arrivals < 0:
            raise ValueError(f"arrivals must be >= 0: {arrivals}")
        # Worst case one tenant supplies the whole trace, so each
        # generates ``arrivals`` events; the merge below keeps the
        # earliest ``arrivals`` of the combined stream.
        for tenant in tenants:
            now = rng.expovariate(1.0 / tenant.inter_arrival_seconds)
            for _ in range(arrivals):
                entry = rng.choice(table1)
                trace.append((now, tenant, entry))
                now += rng.expovariate(1.0 / tenant.inter_arrival_seconds)
        trace.sort(key=lambda item: (item[0], item[1].name))
        del trace[arrivals:]
    else:
        for tenant in tenants:
            now = rng.expovariate(1.0 / tenant.inter_arrival_seconds)
            while now < horizon_seconds:
                entry = rng.choice(table1)
                trace.append((now, tenant, entry))
                now += rng.expovariate(1.0 / tenant.inter_arrival_seconds)
        trace.sort(key=lambda item: (item[0], item[1].name))

    clock = VirtualClock()
    controller = AdmissionController(
        quotas=tuple(tenant.quota for tenant in tenants), clock=clock
    )
    queries: List[MultiTenantQuery] = []
    specs: List[JobSpec] = []
    admitted_arrivals: Dict[str, List[float]] = {t.name: [] for t in tenants}
    for index, (when, tenant, entry) in enumerate(trace):
        clock.set(when)
        decision = controller.admit(tenant.name)
        query = MultiTenantQuery(
            tenant=tenant.name,
            query_name=entry.name,
            arrival=when,
            admitted=decision.admitted,
            retry_after=decision.retry_after,
        )
        queries.append(query)
        if not decision.admitted:
            continue
        admitted_arrivals[tenant.name].append(when)
        specs.append(
            JobSpec(
                name=f"{index:04d}-{tenant.name}-{entry.name}",
                mode="pushdown",
                dataset_bytes=int(base_bytes * tenant.dataset_scale),
                profile=SelectivityProfile.mixed(
                    entry.measured.data_selectivity
                ),
                start_time=when,
            )
        )

    if specs:
        outcome = ConcurrentIngestSimulation(params).run_concurrent(specs)
        admitted = [q for q in queries if q.admitted]
        for spec, query in zip(specs, admitted):
            query.finish = outcome.job(spec.name).finish_time

    violations = 0
    audit_exhaustive = True
    audit_pairs = 0
    tenant_summary: Dict[str, Dict[str, float]] = {}
    ledger = controller.summary()
    for tenant in tenants:
        found, exhaustive, pairs = _audit_admitted(
            admitted_arrivals[tenant.name], tenant.quota
        )
        violations += found
        audit_exhaustive = audit_exhaustive and exhaustive
        audit_pairs += pairs
        counts = ledger.get(tenant.name, {"admitted": 0, "shed": 0})
        total = counts["admitted"] + counts["shed"]
        tenant_summary[tenant.name] = {
            "arrivals": total,
            "admitted": counts["admitted"],
            "shed": counts["shed"],
            "shed_rate": counts["shed"] / total if total else 0.0,
        }
    return MultiTenantWorkdayResult(
        queries=queries,
        quota_violations=violations,
        tenant_summary=tenant_summary,
        audit_exhaustive=audit_exhaustive,
        audit_pairs=audit_pairs,
    )

