"""Reproductions of Fig. 1, 5, 6, 8, 9 and 10 (perf-model experiments)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.perfmodel.model import IngestSimulation, RunResult, SelectivityProfile
from repro.perfmodel.parameters import DATASETS, PerfParameters


# --------------------------------------------------------------------------
# Fig. 1 -- the motivating plot: ingest-then-compute grows linearly
# --------------------------------------------------------------------------


@dataclass
class Fig1Point:
    dataset_gb: float
    query_seconds: float


def fig1_ingest_scaling(
    sizes_gb: Sequence[float] = (5, 10, 20, 30, 40, 50),
    params: Optional[PerfParameters] = None,
) -> List[Fig1Point]:
    """Query completion time of plain ingest-then-compute vs dataset size.

    The paper's Fig. 1 shows linear growth -- ingestion dominates, so
    doubling the data doubles the time.
    """
    simulation = IngestSimulation(params)
    points = []
    for size_gb in sizes_gb:
        result = simulation.run("plain", size_gb * 1e9)
        points.append(Fig1Point(size_gb, result.duration))
    return points


# --------------------------------------------------------------------------
# Fig. 5 / Fig. 6 -- speedup vs data selectivity
# --------------------------------------------------------------------------


@dataclass
class Fig5Point:
    dataset: str
    selectivity: float
    selectivity_type: str
    plain_seconds: float
    pushdown_seconds: float

    @property
    def speedup(self) -> float:
        return self.plain_seconds / self.pushdown_seconds


_PROFILE_MAKERS = {
    "row": SelectivityProfile.rows,
    "column": SelectivityProfile.columns,
    "mixed": SelectivityProfile.mixed,
}


def fig5_speedup_grid(
    selectivities: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9),
    selectivity_types: Sequence[str] = ("row", "column", "mixed"),
    datasets: Sequence[str] = ("small", "large"),
    params: Optional[PerfParameters] = None,
) -> List[Fig5Point]:
    """S_Q for row/column/mixed selectivity over dataset sizes.

    Paper findings encoded here: superlinear growth with selectivity,
    S_Q ~ 1 at zero selectivity, row > column/mixed at high selectivity,
    larger datasets see larger speedups.  Fig. 6 is the same grid at
    90-99.99% mixed selectivity (up to ~31x on 3 TB).
    """
    simulation = IngestSimulation(params)
    plain_cache: Dict[str, float] = {}
    points = []
    for dataset_name in datasets:
        scale = DATASETS[dataset_name]
        if dataset_name not in plain_cache:
            plain_cache[dataset_name] = simulation.run(
                "plain", scale.size_bytes
            ).duration
        for selectivity_type in selectivity_types:
            make_profile = _PROFILE_MAKERS[selectivity_type]
            for selectivity in selectivities:
                result = simulation.run(
                    "pushdown", scale.size_bytes, make_profile(selectivity)
                )
                points.append(
                    Fig5Point(
                        dataset=dataset_name,
                        selectivity=selectivity,
                        selectivity_type=selectivity_type,
                        plain_seconds=plain_cache[dataset_name],
                        pushdown_seconds=result.duration,
                    )
                )
    return points


# --------------------------------------------------------------------------
# Fig. 8 -- Scoop vs Parquet
# --------------------------------------------------------------------------


@dataclass
class Fig8Point:
    selectivity: float
    scoop_speedup: float
    parquet_speedup: float


def fig8_parquet_comparison(
    selectivities: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9),
    dataset: str = "small",
    params: Optional[PerfParameters] = None,
) -> List[Fig8Point]:
    """Column-selectivity comparison against the Parquet baseline.

    Expected shape (paper Section VI-C): Parquet wins at low selectivity
    (compression shortens ingest), Scoop overtakes around 60% and is
    about 2x faster at 90%.
    """
    simulation = IngestSimulation(params)
    scale = DATASETS[dataset]
    plain_seconds = simulation.run("plain", scale.size_bytes).duration
    points = []
    for selectivity in selectivities:
        profile = SelectivityProfile.columns(selectivity)
        scoop = simulation.run("pushdown", scale.size_bytes, profile)
        parquet = simulation.run("parquet", scale.size_bytes, profile)
        points.append(
            Fig8Point(
                selectivity=selectivity,
                scoop_speedup=plain_seconds / scoop.duration,
                parquet_speedup=plain_seconds / parquet.duration,
            )
        )
    return points


def fig8_crossover(points: Sequence[Fig8Point]) -> Optional[float]:
    """First selectivity at which Scoop beats Parquet."""
    for point in sorted(points, key=lambda p: p.selectivity):
        if point.scoop_speedup > point.parquet_speedup:
            return point.selectivity
    return None


# --------------------------------------------------------------------------
# Fig. 9 / Fig. 10 -- resource usage with and without Scoop
# --------------------------------------------------------------------------


@dataclass
class ResourceUsageResult:
    plain: RunResult
    pushdown: RunResult

    def summary(self) -> Dict[str, float]:
        return {
            "plain_seconds": self.plain.duration,
            "pushdown_seconds": self.pushdown.duration,
            "plain_worker_cpu_mean": self.plain.mean_series("worker.cpu"),
            "pushdown_worker_cpu_mean": self.pushdown.mean_series("worker.cpu"),
            "plain_worker_mem_peak": self.plain.peak_series("worker.memory"),
            "pushdown_worker_mem_peak": self.pushdown.peak_series(
                "worker.memory"
            ),
            "plain_lb_peak_bps": self.plain.peak_series("lb.throughput"),
            "pushdown_lb_mean_bps": self.pushdown.mean_series("lb.throughput"),
            "plain_storage_cpu_mean": self.plain.mean_series("storage.cpu"),
            "pushdown_storage_cpu_mean": self.pushdown.mean_series(
                "storage.cpu"
            ),
        }

    def compute_cpu_cycles_saved(self) -> float:
        """Fraction of compute-cluster CPU-seconds Scoop saves (paper:
        97.8% for ShowGraphHCHP on 3 TB)."""
        plain_cycles = self.plain.series["worker.cpu"].integral()
        pushdown_cycles = self.pushdown.series["worker.cpu"].integral()
        if plain_cycles == 0:
            return 0.0
        return 1.0 - pushdown_cycles / plain_cycles


def fig9_resource_usage(
    dataset: str = "large",
    data_selectivity: float = 0.99,
    params: Optional[PerfParameters] = None,
) -> ResourceUsageResult:
    """Compute-cluster CPU/memory/network while running a ~99%-selectivity
    query (ShowGraphHCHP in the paper) with and without Scoop.  Each
    run's ``storage.cpu`` series is Fig. 10: storage nodes idle
    (~1.25%) under plain Swift, working under Scoop."""
    simulation = IngestSimulation(params)
    scale = DATASETS[dataset]
    profile = SelectivityProfile.mixed(data_selectivity)
    plain = simulation.run("plain", scale.size_bytes, profile)
    pushdown = simulation.run("pushdown", scale.size_bytes, profile)
    return ResourceUsageResult(plain=plain, pushdown=pushdown)

