"""Cost-based placement experiment (docs/placement.md).

Two halves, mirroring how the placement engine itself is split:

* **Model sweep** -- the calibrated cost model estimates every candidate
  tier (object node / proxy / compute side) across dataset sizes and
  selectivities, and the adaptive policy picks per point.  The paper's
  Table-I argument becomes a decision table: pushdown wins where
  selectivity is high and data is large, plain ingest wins where fixed
  overheads dominate, and the proxy tier loses its CPU race exactly as
  in the staging ablation (Section VI-B).  Adaptive must match or beat
  the best fixed policy at every point -- it chooses from the same
  estimates, so a miss would mean the decision rule is broken.

* **Functional differential** -- real :class:`~repro.core.scoop.ScoopContext`
  stacks run the same queries under every placement mode (including
  GROUP-BY pushdown, which only the placement work made plannable) and
  must return byte-identical rows; the GROUP-BY path is additionally
  checked under every named fault plan in serial and threaded
  execution.  Placement may move work between tiers; it may never
  change an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.scoop import ScoopContext
from repro.faults import named_plan
from repro.placement import PlacementCostModel
from repro.sql.types import Schema

SCHEMA = Schema.of("vid", "date", "index:int", "code:int", "city")

#: Each object covers a disjoint ``code`` band of this width, so range
#: predicates control row selectivity exactly (the skipping experiment's
#: trick, reused).
CODE_BAND = 1000

#: The placement modes every functional point runs under.
PLACEMENT_MODES = ("adaptive", "object", "proxy", "compute")

#: Execution modes (label, parallelism) the GROUP-BY fault differential
#: covers.
EXECUTION_MODES: Tuple[Tuple[str, Optional[int]], ...] = (
    ("serial", None),
    ("threads-16", 16),
)


# --------------------------------------------------------------------------
# Model sweep: fixed tiers vs adaptive, across size x selectivity
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelPoint:
    """Estimated durations for one (dataset, kept-fraction) point."""

    dataset_bytes: float
    kept_fraction: float
    #: tier -> estimated duration in simulated seconds.
    durations: Dict[str, float]
    adaptive_tier: str
    adaptive_duration: float

    @property
    def best_fixed_duration(self) -> float:
        """The best any fixed single-tier policy achieves here."""
        return min(self.durations.values())


def model_sweep(
    dataset_sizes: Sequence[float],
    kept_fractions: Sequence[float],
) -> List[ModelPoint]:
    """Estimate all tiers and the adaptive choice at every grid point.

    One shared :class:`~repro.placement.cost.PlacementCostModel` serves
    the whole grid -- exactly how a live engine amortizes its estimates.
    """
    model = PlacementCostModel()
    points = []
    for dataset_bytes in dataset_sizes:
        for kept in kept_fractions:
            estimates = model.estimate_all(
                dataset_bytes, kept, row_filtering=True
            )
            durations = {
                tier: estimate.duration
                for tier, estimate in estimates.items()
            }
            adaptive_tier = min(durations, key=durations.__getitem__)
            points.append(
                ModelPoint(
                    dataset_bytes=dataset_bytes,
                    kept_fraction=kept,
                    durations=durations,
                    adaptive_tier=adaptive_tier,
                    adaptive_duration=durations[adaptive_tier],
                )
            )
    return points


# --------------------------------------------------------------------------
# Functional differential: every placement mode, byte-identical rows
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementPoint:
    """One selectivity point run under every placement mode."""

    row_selectivity: float
    query: str
    rows: int
    #: placement mode -> bytes transferred across the boundary.
    bytes_by_mode: Dict[str, int]
    #: placement mode -> identical to the placement-off baseline?
    identical: Dict[str, bool]
    #: tier the adaptive engine chose (from its decision log).
    adaptive_tier: str

    @property
    def all_identical(self) -> bool:
        """True when every mode returned the baseline's exact rows."""
        return all(self.identical.values())


@dataclass(frozen=True)
class GroupByFaultResult:
    """GROUP-BY pushdown vs compute-side oracle, one plan x mode."""

    plan: str
    execution: str
    rows: int
    fallbacks: int
    identical: bool


def _object_body(number: int, rows: int) -> str:
    base = number * CODE_BAND
    return "\n".join(
        f"v{i % 7},2024-01-{(i % 28) + 1:02d},"
        f"{i % 10},{base + i},city{i % 5}"
        for i in range(rows)
    ) + "\n"


def _build_context(
    objects: int,
    rows_per_object: int,
    placement: Optional[str] = None,
    plan: Optional[str] = None,
    parallelism: Optional[int] = None,
    agg_pushdown: Optional[bool] = None,
) -> ScoopContext:
    ctx = ScoopContext(
        chunk_size=16 * 1024,
        placement=placement,
        fault_plan=(
            named_plan(plan, seed=7) if plan and plan != "none" else None
        ),
        parallelism=parallelism,
    )
    for number in range(objects):
        ctx.upload_csv(
            "meters",
            f"part-{number:03d}.csv",
            _object_body(number, rows_per_object),
        )
    ctx.register_csv_table(
        "t", "meters", schema=SCHEMA, format="csv", agg_pushdown=agg_pushdown
    )
    return ctx


def _selective_query(total_rows: int, selectivity: float) -> str:
    """A ``code`` range predicate keeping ``1 - selectivity`` of rows."""
    threshold = int(round(total_rows * selectivity))
    return f"SELECT vid, code FROM t WHERE code >= {threshold}"


def placement_identity_sweep(
    selectivities: Sequence[float],
    objects: int = 4,
    rows_per_object: int = 150,
) -> List[PlacementPoint]:
    """Run each selectivity point under every placement mode.

    The baseline context has no placement engine at all (the pre-engine
    behavior); every mode's rows must equal its rows exactly.  Byte
    counts per mode are recorded so the table shows *why* tiers differ
    (compute moves everything, object/proxy move the kept fraction).
    """
    baseline = _build_context(objects, rows_per_object)
    contexts = {
        mode: _build_context(objects, rows_per_object, placement=mode)
        for mode in PLACEMENT_MODES
    }
    # Rows are spread over disjoint per-object code bands; the highest
    # band ends where the threshold arithmetic needs it to.
    total_code = (objects - 1) * CODE_BAND + rows_per_object
    points = []
    for selectivity in selectivities:
        sql = _selective_query(total_code, selectivity)
        frame, _report = baseline.run_query(sql)
        expected = frame.collect()
        bytes_by_mode: Dict[str, int] = {}
        identical: Dict[str, bool] = {}
        for mode, ctx in contexts.items():
            mode_frame, mode_report = ctx.run_query(sql)
            bytes_by_mode[mode] = mode_report.bytes_transferred
            identical[mode] = mode_frame.collect() == expected
        adaptive_engine = contexts["adaptive"].placement
        adaptive_tier = (
            adaptive_engine.decisions[-1].tier
            if adaptive_engine is not None and adaptive_engine.decisions
            else "compute"
        )
        points.append(
            PlacementPoint(
                row_selectivity=selectivity,
                query=sql,
                rows=len(expected),
                bytes_by_mode=bytes_by_mode,
                identical=identical,
                adaptive_tier=adaptive_tier,
            )
        )
    return points


GROUPBY_QUERY = (
    "SELECT vid, COUNT(*), SUM(index), AVG(index), MIN(code), MAX(code) "
    "FROM t WHERE code >= {threshold} GROUP BY vid ORDER BY vid"
)


def groupby_fault_identity(
    plans: Sequence[str],
    objects: int = 3,
    rows_per_object: int = 120,
    max_groups: Optional[int] = None,
) -> Tuple[List[GroupByFaultResult], int]:
    """GROUP-BY pushdown vs the compute-side oracle, plan x execution.

    The oracle is a fault-free context with aggregation pushdown off --
    the executor's ordinary hash aggregation over scan rows.  Every
    named fault plan then runs with pushdown on, in serial and threaded
    execution; all results must be byte-identical (same values, same
    types, same order).  ``max_groups`` forces the bounded-table spill
    path when set.  Returns the per-cell results plus the oracle row
    count (guarding against a vacuous identity).
    """
    threshold = CODE_BAND // 2
    sql = GROUPBY_QUERY.format(threshold=threshold)
    oracle_ctx = _build_context(objects, rows_per_object, agg_pushdown=False)
    oracle = oracle_ctx.sql(sql).collect()
    results = []
    for plan in plans:
        for label, parallelism in EXECUTION_MODES:
            ctx = _build_context(
                objects,
                rows_per_object,
                plan=plan,
                parallelism=parallelism,
                agg_pushdown=True,
            )
            if max_groups is not None:
                relation = ctx.session.relation("t")
                builder = relation.build_aggregation_scan
                relation.build_aggregation_scan = (
                    lambda *scan, _b=builder: _b(*scan, max_groups=max_groups)
                )
            frame, report = ctx.run_query(sql)
            rows = frame.collect()
            identical = rows == oracle and all(
                type(a) is type(b)
                for row_a, row_b in zip(rows, oracle)
                for a, b in zip(row_a, row_b)
            )
            results.append(
                GroupByFaultResult(
                    plan=plan,
                    execution=label,
                    rows=len(rows),
                    fallbacks=report.pushdown_fallbacks,
                    identical=identical,
                )
            )
    return results, len(oracle)
