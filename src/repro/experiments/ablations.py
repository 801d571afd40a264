"""Ablations over the design choices DESIGN.md calls out.

* **Staging** (Section V-A): running the storlet at the object node vs
  at the proxy.  The paper chose the object node "to avoid transferring
  the full object from the object node to one of the proxies" and "to
  benefit from the higher concurrency" of the 29-node pool vs 6 proxies.
* **Chunk size** (Section VII): HDFS-style partition sizes are "not
  adapted to object stores"; this sweep shows the fixed-latency /
  parallelism trade-off.
* **Adaptive pushdown** (Section VII): gold/bronze tenants under
  storage-CPU pressure, via the Crystal-style controller.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.delegator import AnalyticsDelegator
from repro.core.policies import (
    AdaptivePushdownController,
    TenantClass,
    TenantPolicy,
)
from repro.core.pushdown import PushdownTask
from repro.perfmodel.model import IngestSimulation, SelectivityProfile
from repro.perfmodel.parameters import DATASETS, PerfParameters
from repro.sql.filters import StringStartsWith
from repro.sql.types import Schema


@dataclass
class StagingResult:
    selectivity: float
    object_node_seconds: float
    proxy_seconds: float

    @property
    def object_advantage(self) -> float:
        return self.proxy_seconds / self.object_node_seconds


def ablation_staging(
    selectivities: Sequence[float] = (0.5, 0.9, 0.99),
    dataset: str = "large",
    params: Optional[PerfParameters] = None,
) -> List[StagingResult]:
    """Object-node vs proxy execution of the pushdown filter."""
    simulation = IngestSimulation(params)
    scale = DATASETS[dataset]
    results = []
    for selectivity in selectivities:
        profile = SelectivityProfile.mixed(selectivity)
        object_node = simulation.run("pushdown", scale.size_bytes, profile)
        proxy = simulation.run("pushdown_proxy", scale.size_bytes, profile)
        results.append(
            StagingResult(
                selectivity=selectivity,
                object_node_seconds=object_node.duration,
                proxy_seconds=proxy.duration,
            )
        )
    return results


@dataclass
class ChunkSizeResult:
    chunk_mb: float
    task_count: int
    pushdown_seconds: float


def ablation_chunk_size(
    chunk_sizes_mb: Sequence[float] = (32, 64, 128, 256, 512, 1024),
    dataset: str = "medium",
    data_selectivity: float = 0.95,
    params: Optional[PerfParameters] = None,
) -> List[ChunkSizeResult]:
    """Partition (chunk) size sweep for a high-selectivity pushdown query.

    Small chunks multiply per-task fixed latencies; huge chunks starve
    parallelism (fewer tasks than slots).  The sweet spot depends on the
    store, not on HDFS -- the paper's Section VII point.
    """
    base = params or PerfParameters()
    scale = DATASETS[dataset]
    profile = SelectivityProfile.mixed(data_selectivity)
    results = []
    for chunk_mb in chunk_sizes_mb:
        tuned = dataclasses.replace(base, chunk_size=chunk_mb * 1e6)
        simulation = IngestSimulation(tuned)
        run = simulation.run("pushdown", scale.size_bytes, profile)
        results.append(
            ChunkSizeResult(
                chunk_mb=chunk_mb,
                task_count=run.task_count,
                pushdown_seconds=run.duration,
            )
        )
    return results


@dataclass
class AdaptiveScenarioResult:
    storage_cpu: float
    gold_pushed: bool
    silver_pushed: bool
    bronze_pushed: bool


def ablation_adaptive_pushdown(
    cpu_levels: Sequence[float] = (0.2, 0.7, 0.9),
) -> List[AdaptiveScenarioResult]:
    """Who keeps the pushdown service as storage CPU pressure rises."""
    schema = Schema.of("vid", "date", "index:float")
    task = PushdownTask(
        schema=schema,
        columns=["vid", "index"],
        filters=[StringStartsWith("date", "2015-01")],
    )
    results = []
    for cpu in cpu_levels:
        controller = AdaptivePushdownController(
            storage_cpu_probe=lambda level=cpu: level
        )
        controller.set_policy(TenantPolicy("gold", TenantClass.GOLD))
        controller.set_policy(TenantPolicy("silver", TenantClass.SILVER))
        controller.set_policy(TenantPolicy("bronze", TenantClass.BRONZE))
        delegator = AnalyticsDelegator(controller)
        results.append(
            AdaptiveScenarioResult(
                storage_cpu=cpu,
                gold_pushed=delegator.delegate(task, "gold") is not None,
                silver_pushed=delegator.delegate(task, "silver") is not None,
                bronze_pushed=delegator.delegate(task, "bronze") is not None,
            )
        )
    return results


@dataclass
class CompressionResult:
    selectivity: float
    pushdown_speedup: float
    compressed_speedup: float
    parquet_speedup: float


def ablation_filter_plus_compression(
    selectivities: Sequence[float] = (0.0, 0.2, 0.5, 0.9),
    dataset: str = "small",
    params: Optional[PerfParameters] = None,
) -> List[CompressionResult]:
    """Section VI-C's conjecture: combining data filtering with transfer
    compression should beat Parquet even at low data selectivity."""
    simulation = IngestSimulation(params)
    scale = DATASETS[dataset]
    plain = simulation.run("plain", scale.size_bytes).duration
    results = []
    for selectivity in selectivities:
        profile = SelectivityProfile.mixed(selectivity)
        pushdown = simulation.run(
            "pushdown", scale.size_bytes, profile
        ).duration
        compressed = simulation.run(
            "pushdown_compressed", scale.size_bytes, profile
        ).duration
        parquet = simulation.run(
            "parquet", scale.size_bytes, profile
        ).duration
        results.append(
            CompressionResult(
                selectivity=selectivity,
                pushdown_speedup=plain / pushdown,
                compressed_speedup=plain / compressed,
                parquet_speedup=plain / parquet,
            )
        )
    return results
