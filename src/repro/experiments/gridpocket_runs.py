"""Table I and Fig. 7: the real GridPocket queries.

Selectivities are *measured* on the functional layer: the actual
Catalyst-extracted pushdown spec of each query is evaluated over a
generated multi-year sample (the paper's datasets span years of 10-
minute readings, which is what makes a one-month query discard >99% of
the rows).  Fig. 7 then replays those measured selectivities through the
performance model at the paper's dataset scales.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gridpocket.generator import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.gridpocket.queries import GRIDPOCKET_QUERIES, GridPocketQuery
from repro.gridpocket.workload import (
    SelectivityMeasurement,
    measure_selectivities,
)
from repro.perfmodel.model import IngestSimulation, SelectivityProfile
from repro.perfmodel.parameters import DATASETS, PerfParameters

#: Multi-year sample matching the paper's data span: 60 meters reporting
#: daily over ~10 years => ~219k rows, so January 2015 is <1% of them.
TABLE1_SAMPLE_SPEC = DatasetSpec(
    meters=60, intervals=3650, interval_minutes=1440, start="2010-01-01"
)


@dataclass
class Table1Row:
    query: GridPocketQuery
    measured: SelectivityMeasurement

    @property
    def name(self) -> str:
        return self.query.name

    def as_row(self) -> Tuple:
        return (
            self.query.name,
            f"{self.measured.column_selectivity * 100:.2f}%",
            f"{self.measured.row_selectivity * 100:.2f}%",
            f"{self.measured.data_selectivity * 100:.2f}%",
            f"{self.query.paper_data_selectivity:.2f}%",
        )


@functools.lru_cache(maxsize=4)
def _sample_rows(spec_key: Tuple) -> Tuple:
    spec = DatasetSpec(*spec_key)
    return tuple(MeterDataGenerator(spec).rows())


def table1_selectivities(
    spec: Optional[DatasetSpec] = None,
) -> List[Table1Row]:
    """Measure column/row/data selectivity of every Table-I query."""
    spec = spec or TABLE1_SAMPLE_SPEC
    rows = _sample_rows(
        (
            spec.meters,
            spec.start,
            spec.intervals,
            spec.interval_minutes,
            spec.seed,
            spec.objects,
        )
    )
    measured = measure_selectivities(
        [query.sql("largeMeter") for query in GRIDPOCKET_QUERIES], METER_SCHEMA, rows
    )
    return [
        Table1Row(query=query, measured=measurement)
        for query, measurement in zip(GRIDPOCKET_QUERIES, measured)
    ]


@dataclass
class Fig7Row:
    query_name: str
    dataset: str
    data_selectivity: float
    plain_seconds: float
    pushdown_seconds: float

    @property
    def speedup(self) -> float:
        return self.plain_seconds / self.pushdown_seconds

    def as_row(self) -> Tuple:
        return (
            self.query_name,
            self.dataset,
            f"{self.data_selectivity * 100:.2f}%",
            round(self.plain_seconds, 1),
            round(self.pushdown_seconds, 1),
            round(self.speedup, 2),
        )


def fig7_gridpocket_speedups(
    datasets: Sequence[str] = ("small", "medium"),
    params: Optional[PerfParameters] = None,
    table1: Optional[List[Table1Row]] = None,
) -> List[Fig7Row]:
    """S_Q of the seven real queries at the paper's small/medium scales.

    Every query mixes row filtering (WHERE) with column projection, so
    the mixed profile applies; the selectivity fed to the model is the
    one measured functionally for that exact query.
    """
    simulation = IngestSimulation(params)
    table1 = table1 or table1_selectivities()
    plain_cache: Dict[str, float] = {}
    rows = []
    for dataset_name in datasets:
        scale = DATASETS[dataset_name]
        if dataset_name not in plain_cache:
            plain_cache[dataset_name] = simulation.run(
                "plain", scale.size_bytes
            ).duration
        for entry in table1:
            selectivity = entry.measured.data_selectivity
            result = simulation.run(
                "pushdown",
                scale.size_bytes,
                SelectivityProfile.mixed(selectivity),
            )
            rows.append(
                Fig7Row(
                    query_name=entry.name,
                    dataset=dataset_name,
                    data_selectivity=selectivity,
                    plain_seconds=plain_cache[dataset_name],
                    pushdown_seconds=result.duration,
                )
            )
    return rows


def fig7_total_batch_seconds(
    rows: Sequence[Fig7Row], dataset: str = "medium"
) -> Tuple[float, float]:
    """Total (plain, pushdown) seconds for the whole query set on one
    dataset -- the paper's 4,814.7 s vs 155.48 s headline for 500 GB."""
    selected = [row for row in rows if row.dataset == dataset]
    return (
        sum(row.plain_seconds for row in selected),
        sum(row.pushdown_seconds for row in selected),
    )
