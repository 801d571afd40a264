"""GridPocket: the smart-meter workload of the paper's evaluation.

GridPocket is the smart energy grid company whose use case motivated
Scoop: "hundreds of thousands of smart meters automatically collect and
store energy consumption measurements" as CSV objects (paper Sections I
and VI).  The original datasets are proprietary; the authors published
anonymized versions plus "a tool to generate synthetic data that mimics
the structural properties of GridPocket's datasets" -- which is exactly
what this package provides:

* :mod:`repro.gridpocket.generator` -- a deterministic generator of
  10-column meter readings (one reading per meter per 10 minutes);
* :mod:`repro.gridpocket.queries` -- the seven real data-intensive
  queries of Table I, with the paper's reported selectivity figures;
* :mod:`repro.gridpocket.workload` -- synthetic queries with controlled
  row/column/mixed data selectivity (the Fig. 5/6 sweeps) and the
  selectivity measurement helpers.
"""

from repro.gridpocket.generator import (
    METER_SCHEMA,
    DatasetSpec,
    MeterDataGenerator,
    upload_dataset,
)
from repro.gridpocket.queries import GRIDPOCKET_QUERIES, GridPocketQuery
from repro.gridpocket.workload import (
    SelectivityMeasurement,
    measure_selectivities,
    synthetic_query,
)

__all__ = [
    "DatasetSpec",
    "GRIDPOCKET_QUERIES",
    "GridPocketQuery",
    "METER_SCHEMA",
    "MeterDataGenerator",
    "SelectivityMeasurement",
    "measure_selectivities",
    "synthetic_query",
    "upload_dataset",
]
