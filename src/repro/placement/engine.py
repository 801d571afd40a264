"""The placement engine: per-query tier decisions with feedback.

``decide()`` turns a query shape (input bytes, estimated kept fraction,
filter/projection/aggregation flags) and the asking tenant into a
:class:`PlacementDecision` -- which tier runs the pushdown work and
why.  In ``adaptive`` mode the engine asks the
:class:`~repro.placement.cost.PlacementCostModel` for per-tier duration
estimates and picks the cheapest (ties break toward deeper pushdown:
object before proxy before compute).  The fixed modes (``object`` /
``proxy`` / ``compute``) pin the tier but still record the estimates,
so a fixed run produces the same explainability surface.

Ahead of the tier choice sits the Section VII veto ladder: tenant
classes shed under storage CPU pressure, and a filter that keeps nearly
everything is not worth the storage CPU.  A vetoed decision is a
``compute`` decision carrying its ``veto`` code.

The feedback loop closes through ``observe_report()``: after a query
runs, the caller reports the actual bytes in/out *for the decision that
placed it*, the engine converts them into an observed kept fraction and
folds it into a per-signature EWMA.  The next ``decide()`` for the same
signature uses the refined estimate instead of the planner's prior --
mis-estimated selectivities correct themselves after one run.  Only
runs whose decision put pushdown work on a storage tier carry a
selectivity signal: a compute-side run transfers every byte by
definition, so its bytes-out/bytes-in ratio is ~1.0 no matter how
selective the query really is and must not be folded in.
"""

from __future__ import annotations

import enum
import os
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.obs.metrics import LOG_LENGTH
from repro.placement.cost import (
    AGGREGATION_KEPT_FACTOR,
    TIERS,
    PlacementCostModel,
    TierEstimate,
)

#: Environment knob: ``adaptive`` | ``object`` | ``proxy`` | ``compute``.
#: Unset (or empty) leaves placement off -- every task runs on the
#: object node, exactly as before this package.
PLACEMENT_ENV_VAR = "REPRO_PLACEMENT"

#: Storage CPU at which BRONZE tenants lose the pushdown service.
CPU_SOFT_CEILING = 0.6
#: Storage CPU at which every tenant but GOLD loses it.
CPU_CEILING = 0.85
#: Estimated discarded fraction below which pushdown is not worth the
#: storage CPU (``adaptive`` mode only: a fixed mode pins its tier).
MIN_SELECTIVITY = 0.05


class TenantClass(enum.Enum):
    """Service class: GOLD keeps pushdown at any CPU, BRONZE sheds first."""

    GOLD = "gold"
    SILVER = "silver"
    BRONZE = "bronze"


@dataclass
class TenantPolicy:
    """Static per-tenant configuration."""

    tenant: str
    tenant_class: TenantClass = TenantClass.SILVER
    pushdown_enabled: bool = True


def task_signature(container: str, prefix: str, task) -> str:
    """A stable identity for "this query shape over this table".

    The feedback loop keys its kept-fraction estimates by signature, so
    two queries with the same filters/columns/aggregation over the same
    container refine one shared estimate, while a different WHERE clause
    gets its own.
    """
    columns = "*" if task.columns is None else ",".join(task.columns)
    # Sorted: a conjunction is the same query whatever order it is
    # spelled in.
    filters = "&".join(sorted(str(item) for item in task.filters))
    aggregation = task.aggregation or ""
    return f"{container}/{prefix}|{columns}|{filters}|{aggregation}"


@dataclass
class PlacementDecision:
    """One placement verdict, with the evidence that produced it."""

    #: Chosen tier: ``object`` | ``proxy`` | ``compute``.
    tier: str
    #: Human-readable rationale (``fixed mode`` / ``min estimated ...``,
    #: plus ``idle`` / ``below_ceiling`` / ``gold_exempt`` with a CPU input).
    reason: str
    #: The signature the decision was keyed by.
    signature: str
    #: Kept-fraction estimate the cost model was fed.
    kept_fraction: float
    #: Per-tier estimates (every candidate, not just the winner).
    estimates: Dict[str, TierEstimate] = field(default_factory=dict)
    #: The ladder's veto code (``tenant_disabled`` / ``low_selectivity``
    #: / ``cpu_ceiling`` / ``bronze_shed``), or ``None``: allowed.
    veto: Optional[str] = None

    def explain(self) -> Dict[str, object]:
        """A JSON-friendly rendering for ``explain_profile()``."""
        return {
            "tier": self.tier,
            "reason": self.reason,
            "veto": self.veto,
            "kept_fraction": round(self.kept_fraction, 4),
            "estimated_duration": {
                tier: round(estimate.duration, 3)
                for tier, estimate in self.estimates.items()
            },
        }


class PlacementEngine:
    """Decide per query whether and on which tier the pushdown work runs.

    ``storage_cpu`` is the live storage CPU utilization in ``[0, 1]`` (a
    callable, e.g. :meth:`~repro.core.scoop.ScoopContext.storage_cpu_utilization`);
    ``None`` reads as an idle store and applies no CPU rule.
    """

    MODES = ("adaptive", "object", "proxy", "compute")

    def __init__(
        self,
        mode: str = "adaptive",
        cost_model: Optional[PlacementCostModel] = None,
        prior_kept_fraction: float = 0.9,
        smoothing: float = 0.3,
        storage_cpu: Optional[Callable[[], float]] = None,
    ):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}: {mode!r}")
        self.mode = mode
        self.cost_model = cost_model or PlacementCostModel()
        #: Planner prior used when neither a hint nor feedback exists:
        #: pessimistic (little pruning), so adaptive only leaves the
        #: compute side once there is evidence pushdown pays.
        self.prior_kept_fraction = prior_kept_fraction
        #: EWMA weight of a fresh observation in ``observe()``.
        self.smoothing = smoothing
        #: Refined kept-fraction estimates of the :data:`LOG_LENGTH`
        #: most recently used signatures, least recent first; an evicted
        #: signature falls back to the hint or the prior.
        self.kept_estimates: "OrderedDict[str, float]" = OrderedDict()
        #: The latest :data:`LOG_LENGTH` decisions, in order
        #: (explainability surface); ``decision_count`` counts them all.
        self.decisions: Deque[PlacementDecision] = deque(maxlen=LOG_LENGTH)
        self.decision_count = 0
        self.storage_cpu = storage_cpu
        self._policies: Dict[str, TenantPolicy] = {}

    # -- tenants -----------------------------------------------------------

    def set_policy(self, policy: TenantPolicy) -> None:
        """Set ``policy.tenant``'s class (unset tenants are SILVER)."""
        self._policies[policy.tenant] = policy

    # -- the decision ------------------------------------------------------

    def decide(
        self,
        signature: str,
        input_bytes: float,
        kept_hint: Optional[float] = None,
        row_filtering: bool = False,
        column_projection: bool = False,
        aggregation: bool = False,
        tenant: str = "default",
    ) -> PlacementDecision:
        """Choose the tier for one query of ``tenant``.

        Kept-fraction precedence: feedback EWMA for this signature,
        else the caller's ``kept_hint`` (catalog / planner estimate),
        else the engine prior.
        """
        learned = self.kept_estimates.get(signature)
        if learned is not None:
            self.kept_estimates.move_to_end(signature)
            kept = shipped = learned
        else:
            kept = kept_hint if kept_hint is not None else self.prior_kept_fraction
            # Partials travel, not rows (an observed run already
            # measured its own reduction).
            shipped = kept * AGGREGATION_KEPT_FACTOR if aggregation else kept
        veto, why = self._ladder(tenant, shipped)
        estimates = self.cost_model.estimate_all(
            input_bytes,
            kept,
            row_filtering=row_filtering,
            column_projection=column_projection,
            aggregation=aggregation,
        )
        if veto is not None:
            tier, reason = "compute", why
        elif self.mode != "adaptive":
            tier = self.mode
            reason = f"fixed mode {self.mode}"
        else:
            tier = min(
                TIERS, key=lambda t: (estimates[t].duration, TIERS.index(t))
            )
            reason = (
                f"min estimated duration "
                f"{estimates[tier].duration:.3f}s at kept={kept:.3f}"
            )
        if veto is None and why:
            reason = f"{reason}; {why}"
        decision = PlacementDecision(
            tier=tier,
            reason=reason,
            signature=signature,
            kept_fraction=kept,
            estimates=estimates,
            veto=veto,
        )
        self.decisions.append(decision)
        self.decision_count += 1
        return decision

    def _ladder(self, tenant: str, kept: float) -> Tuple[Optional[str], str]:
        """``(veto code, why)`` for ``tenant`` with ``kept`` of the
        scanned bytes estimated to travel; a ``None`` code allows, and
        ``why`` then names the allowance (empty with no CPU input)."""
        policy = self._policies.get(tenant) or TenantPolicy(tenant)
        if not policy.pushdown_enabled:
            return "tenant_disabled", "pushdown disabled for tenant"
        selectivity = 1.0 - kept
        if self.mode == "adaptive" and selectivity < MIN_SELECTIVITY:
            return "low_selectivity", (
                f"estimated selectivity {selectivity:.2f} below "
                f"{MIN_SELECTIVITY:.2f}"
            )
        if self.storage_cpu is None:
            return None, ""
        cpu = self.storage_cpu()
        if cpu >= CPU_CEILING:
            if policy.tenant_class is TenantClass.GOLD:
                return None, f"gold_exempt at storage cpu {cpu:.2f}"
            return "cpu_ceiling", f"storage cpu {cpu:.2f} >= ceiling"
        if cpu >= CPU_SOFT_CEILING:
            if policy.tenant_class is TenantClass.BRONZE:
                return "bronze_shed", f"bronze tenant shed at storage cpu {cpu:.2f}"
            return None, f"below_ceiling at storage cpu {cpu:.2f}"
        return None, f"idle at storage cpu {cpu:.2f}"

    # -- the feedback loop -------------------------------------------------

    def observe(self, signature: str, kept_fraction: float) -> float:
        """Fold an observed kept fraction into the signature's EWMA."""
        kept = min(1.0, max(0.0, kept_fraction))
        previous = self.kept_estimates.get(signature)
        if previous is None:
            refined = kept
        else:
            refined = (
                self.smoothing * kept + (1.0 - self.smoothing) * previous
            )
        self.kept_estimates[signature] = refined
        self.kept_estimates.move_to_end(signature)
        if len(self.kept_estimates) > LOG_LENGTH:
            self.kept_estimates.popitem(last=False)
        return refined

    def observe_report(
        self,
        input_bytes: float,
        output_bytes: float,
        decision: Optional[PlacementDecision] = None,
    ) -> Optional[float]:
        """Report a finished run's actual byte counts for ``decision``.

        The caller must pass the decision taken for the query the bytes
        belong to -- attribution is explicit, never inferred from
        engine-global "last decision" state, so a query that made no
        placement decision (pushdown off, legacy path) cannot corrupt
        another signature's estimate.

        Compute-side decisions, vetoed ones included, are ignored: with
        no pushdown work on a storage tier, ``output_bytes ==
        input_bytes`` regardless of the query's true selectivity, and
        folding that ~1.0 ratio in would permanently bias the EWMA
        toward compute for genuinely selective queries.

        Returns the refined kept fraction, or ``None`` when the run
        carries no signal (no/compute decision, or a zero-byte scan).
        """
        if decision is None or decision.tier == "compute":
            return None
        if input_bytes <= 0:
            return None
        return self.observe(decision.signature, output_bytes / input_bytes)

    def explain(self) -> Dict[str, object]:
        """A JSON-friendly summary for ``explain_profile()``."""
        return {
            "mode": self.mode,
            "decisions": [
                decision.explain() for decision in self.decisions
            ],
            "kept_estimates": {
                signature: round(value, 4)
                for signature, value in self.kept_estimates.items()
            },
        }


def engine_from_environment(
    mode: Optional[str] = None,
) -> Optional[PlacementEngine]:
    """Build an engine from an explicit mode or ``REPRO_PLACEMENT``.

    Returns ``None`` when neither is set -- placement stays off and
    every task runs where its ``run_on`` says (the object node).
    """
    if mode is None:
        mode = os.environ.get(PLACEMENT_ENV_VAR, "").strip() or None
    if mode is None:
        return None
    return PlacementEngine(mode=mode)
