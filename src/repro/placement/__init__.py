"""Cost-based placement: choose *where* a pushdown task runs.

Scoop's central claim is that the placement of a computation -- object
node, proxy tier, or compute cluster -- determines ingestion throughput.
Until this package, placement was a fixed ``run_on`` field of the task,
set blindly.  Here it becomes a per-query decision: a cost model fed by the
perfmodel's calibrated per-tier byte/CPU rates estimates the duration of
each candidate tier, an engine picks the cheapest, and a feedback loop
refines the selectivity estimates from the byte counts of actual runs.

Entry points:

* :class:`~repro.placement.engine.PlacementEngine` -- ``decide()`` /
  ``observe_report()``; modes ``adaptive|object|proxy|compute``.
* :class:`~repro.placement.cost.PlacementCostModel` -- per-tier
  duration estimates via :class:`~repro.perfmodel.model.IngestSimulation`.
* :func:`~repro.placement.engine.engine_from_environment` -- build an
  engine from the ``REPRO_PLACEMENT`` knob (``ScoopContext`` and the CLI
  call this).
"""

from repro.placement.cost import PlacementCostModel, TierEstimate
from repro.placement.engine import (
    PLACEMENT_ENV_VAR,
    PlacementDecision,
    PlacementEngine,
    engine_from_environment,
    task_signature,
)

__all__ = [
    "PLACEMENT_ENV_VAR",
    "PlacementCostModel",
    "PlacementDecision",
    "PlacementEngine",
    "TierEstimate",
    "engine_from_environment",
    "task_signature",
]
