"""The placement engine: per-query tier decisions with feedback.

``decide()`` turns a query shape (input bytes, estimated kept fraction,
filter/projection/aggregation flags) into a
:class:`PlacementDecision` -- which tier runs the pushdown work and
why.  In ``adaptive`` mode the engine asks the
:class:`~repro.placement.cost.PlacementCostModel` for per-tier duration
estimates and picks the cheapest (ties break toward deeper pushdown:
object before proxy before compute).  The fixed modes (``object`` /
``proxy`` / ``compute``) pin the tier but still record the estimates,
so a fixed run produces the same explainability surface.

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

import os
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.obs.metrics import LOG_LENGTH
from repro.placement.cost import TIERS, PlacementCostModel, TierEstimate

#: Environment knob: ``adaptive`` | ``object`` | ``proxy`` | ``compute``.
#: Unset (or empty) leaves placement off -- every task runs on the
#: object node, exactly as before this package.
PLACEMENT_ENV_VAR = "REPRO_PLACEMENT"


def task_signature(container: str, prefix: str, task) -> str:
    """A stable identity for "this query shape over this table".

    The feedback loop keys its kept-fraction estimates by signature, so
    two queries with the same filters/columns/aggregation over the same
    container refine one shared estimate, while a different WHERE clause
    gets its own.
    """
    columns = "*" if task.columns is None else ",".join(task.columns)
    filters = "&".join(str(item) for item in task.filters)
    aggregation = task.aggregation or ""
    return f"{container}/{prefix}|{columns}|{filters}|{aggregation}"


@dataclass
class PlacementDecision:
    """One placement verdict, with the evidence that produced it."""

    #: Chosen tier: ``object`` | ``proxy`` | ``compute``.
    tier: str
    #: Human-readable rationale (``fixed mode`` / ``min estimated ...``).
    reason: str
    #: The signature the decision was keyed by.
    signature: str
    #: Kept-fraction estimate the cost model was fed.
    kept_fraction: float
    #: Per-tier estimates (every candidate, not just the winner).
    estimates: Dict[str, TierEstimate] = field(default_factory=dict)

    def explain(self) -> Dict[str, object]:
        """A JSON-friendly rendering for ``explain_profile()``."""
        return {
            "tier": self.tier,
            "reason": self.reason,
            "kept_fraction": round(self.kept_fraction, 4),
            "estimated_duration": {
                tier: round(estimate.duration, 3)
                for tier, estimate in self.estimates.items()
            },
        }


class PlacementEngine:
    """Decide per query which tier runs the pushdown work."""

    MODES = ("adaptive", "object", "proxy", "compute")

    def __init__(
        self,
        mode: str = "adaptive",
        cost_model: Optional[PlacementCostModel] = None,
        prior_kept_fraction: float = 0.9,
        smoothing: float = 0.3,
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

    # -- the decision ------------------------------------------------------

    def decide(
        self,
        signature: str,
        input_bytes: float,
        kept_hint: Optional[float] = None,
        row_filtering: bool = False,
        column_projection: bool = False,
        aggregation: bool = False,
    ) -> PlacementDecision:
        """Choose the tier for one query.

        Kept-fraction precedence: feedback EWMA for this signature,
        else the caller's ``kept_hint`` (catalog / planner estimate),
        else the engine prior.
        """
        kept = self.kept_estimates.get(signature)
        if kept is not None:
            self.kept_estimates.move_to_end(signature)
        else:
            kept = (
                kept_hint
                if kept_hint is not None
                else self.prior_kept_fraction
            )
        estimates = self.cost_model.estimate_all(
            input_bytes,
            kept,
            row_filtering=row_filtering,
            column_projection=column_projection,
            aggregation=aggregation,
        )
        if self.mode != "adaptive":
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
        decision = PlacementDecision(
            tier=tier,
            reason=reason,
            signature=signature,
            kept_fraction=kept,
            estimates=estimates,
        )
        self.decisions.append(decision)
        self.decision_count += 1
        return decision

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
        placement decision (controller veto, pushdown off, legacy path)
        cannot corrupt another signature's estimate.

        Compute-side decisions are ignored: with no pushdown work on a
        storage tier, ``output_bytes == input_bytes`` regardless of the
        query's true selectivity, and folding that ~1.0 ratio in would
        permanently bias the EWMA toward compute for genuinely
        selective queries.

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
