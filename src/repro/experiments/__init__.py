"""The functions behind each table/figure of the paper's evaluation.

Every public function but :func:`render_table`, the one ASCII table
renderer, computes the rows/series of one evaluation artifact and
returns structured results.  The bench registry
(:mod:`repro.bench.experiments`) is the one place a figure is run,
tabled and checked: ``python -m repro bench --figures <name>`` prints
its tables.  Paper-vs-measured numbers are recorded in EXPERIMENTS.md.
"""

from repro.experiments.figures import (
    Fig1Point,
    Fig5Point,
    Fig8Point,
    fig1_ingest_scaling,
    fig5_speedup_grid,
    fig8_parquet_comparison,
    fig9_resource_usage,
)
from repro.experiments.gridpocket_runs import (
    Fig7Row,
    Table1Row,
    fig7_gridpocket_speedups,
    table1_selectivities,
)
from repro.experiments.ablations import (
    ablation_adaptive_pushdown,
    ablation_chunk_size,
    ablation_filter_plus_compression,
    ablation_staging,
)
from repro.experiments.report import render_table
from repro.experiments.workday import WorkdayResult, simulate_workday

__all__ = [
    "Fig1Point",
    "Fig5Point",
    "Fig7Row",
    "Fig8Point",
    "Table1Row",
    "ablation_adaptive_pushdown",
    "ablation_chunk_size",
    "ablation_filter_plus_compression",
    "ablation_staging",
    "fig1_ingest_scaling",
    "fig5_speedup_grid",
    "fig7_gridpocket_speedups",
    "fig8_parquet_comparison",
    "fig9_resource_usage",
    "render_table",
    "simulate_workday",
    "WorkdayResult",
    "table1_selectivities",
]
