"""Pushdown policies and the Crystal-style adaptive controller.

Section VII ("Towards adaptive pushdown execution") sketches the
extension this module implements: "under peak workloads and
CPU/parallelism constraints at the object store, an administrator may
decide that only 'gold' tenants enjoy the pushdown service, whereas
'bronze' tenants will ingest data in the traditional way", with the
decision informed by "real-time monitoring information" and a model of
filter effectiveness ("approximating the data selectivity").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.pushdown import PushdownTask


class TenantClass(enum.Enum):
    GOLD = "gold"
    SILVER = "silver"
    BRONZE = "bronze"


@dataclass
class TenantPolicy:
    """Static per-tenant configuration."""

    tenant: str
    tenant_class: TenantClass = TenantClass.SILVER
    pushdown_enabled: bool = True


@dataclass
class PushdownDecision:
    """Outcome of one delegation decision, with its rationale."""

    push_down: bool
    reason: str
    storage_cpu: Optional[float] = None
    estimated_selectivity: Optional[float] = None
    #: ``reason`` without its numbers: a stable code, fit to be counted.
    code: str = ""


class SelectivityModel:
    """Online estimate of per-(tenant, filter-signature) data selectivity.

    Seeded optimistically (pushdown worth trying); updated from observed
    bytes-in/bytes-out of storlet invocations.
    """

    def __init__(self, prior: float = 0.9, smoothing: float = 0.3):
        self.prior = prior
        self.smoothing = smoothing
        self._estimates: Dict[str, float] = {}

    @staticmethod
    def signature(tenant: str, task: PushdownTask) -> str:
        columns = "*" if task.columns is None else ",".join(task.columns)
        filters = ";".join(sorted(repr(item) for item in task.filters))
        return f"{tenant}|{columns}|{filters}"

    def estimate(self, tenant: str, task: PushdownTask) -> float:
        return self._estimates.get(self.signature(tenant, task), self.prior)

    def observe(
        self, tenant: str, task: PushdownTask, bytes_in: int, bytes_out: int
    ) -> None:
        if bytes_in <= 0:
            return
        observed = 1.0 - bytes_out / bytes_in
        key = self.signature(tenant, task)
        previous = self._estimates.get(key, observed)
        self._estimates[key] = (
            self.smoothing * observed + (1 - self.smoothing) * previous
        )


class AdaptivePushdownController:
    """Decides, per request, whether a tenant gets the pushdown service.

    Inputs: the tenant's class, live storage-cluster CPU utilization
    (a callable, typically backed by sandbox stats or the metrics
    collector) and the selectivity model.  Rules:

    * pushdown disabled for the tenant -> never;
    * estimated selectivity below ``min_selectivity`` -> not worth the
      storage CPU, ingest traditionally;
    * storage CPU above ``cpu_ceiling`` -> only GOLD tenants keep the
      service; above ``cpu_soft_ceiling`` BRONZE tenants lose it first.
    """

    def __init__(
        self,
        storage_cpu_probe: Optional[Callable[[], float]] = None,
        cpu_soft_ceiling: float = 0.6,
        cpu_ceiling: float = 0.85,
        min_selectivity: float = 0.05,
        selectivity_model: Optional[SelectivityModel] = None,
    ):
        if not 0 <= cpu_soft_ceiling <= cpu_ceiling <= 1:
            raise ValueError(
                "need 0 <= cpu_soft_ceiling <= cpu_ceiling <= 1, got "
                f"{cpu_soft_ceiling}/{cpu_ceiling}"
            )
        self.storage_cpu_probe = storage_cpu_probe or (lambda: 0.0)
        self.cpu_soft_ceiling = cpu_soft_ceiling
        self.cpu_ceiling = cpu_ceiling
        self.min_selectivity = min_selectivity
        self.selectivity_model = selectivity_model or SelectivityModel()
        self._policies: Dict[str, TenantPolicy] = {}
        self.decisions: List[PushdownDecision] = []

    # -- configuration -----------------------------------------------------

    def set_policy(self, policy: TenantPolicy) -> None:
        self._policies[policy.tenant] = policy

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self._policies.get(tenant, TenantPolicy(tenant))

    # -- the decision --------------------------------------------------------

    def decide(self, tenant: str, task: PushdownTask) -> PushdownDecision:
        policy = self.policy_for(tenant)
        cpu = self.storage_cpu_probe()
        selectivity = self.selectivity_model.estimate(tenant, task)

        def done(push: bool, code: str, reason: str) -> PushdownDecision:
            decision = PushdownDecision(push, reason, cpu, selectivity, code)
            self.decisions.append(decision)
            return decision

        if not policy.pushdown_enabled:
            return done(False, "tenant_disabled", "pushdown disabled for tenant")
        if selectivity < self.min_selectivity:
            return done(
                False,
                "low_selectivity",
                f"estimated selectivity {selectivity:.2f} below "
                f"{self.min_selectivity:.2f}",
            )
        if cpu >= self.cpu_ceiling:
            if policy.tenant_class is TenantClass.GOLD:
                return done(True, "gold_exempt", f"gold tenant despite cpu {cpu:.2f}")
            return done(False, "cpu_ceiling", f"storage cpu {cpu:.2f} >= ceiling")
        if cpu >= self.cpu_soft_ceiling:
            if policy.tenant_class is TenantClass.BRONZE:
                return done(
                    False, "bronze_shed", f"bronze tenant shed at cpu {cpu:.2f}"
                )
            return done(True, "below_ceiling", f"cpu {cpu:.2f} below hard ceiling")
        return done(True, "idle", f"storage idle (cpu {cpu:.2f})")

    # -- feedback --------------------------------------------------------------

    def observe_invocation(
        self, tenant: str, task: PushdownTask, bytes_in: int, bytes_out: int
    ) -> None:
        self.selectivity_model.observe(tenant, task, bytes_in, bytes_out)

    def shed_rate(self) -> float:
        if not self.decisions:
            return 0.0
        return sum(1 for d in self.decisions if not d.push_down) / len(
            self.decisions
        )
