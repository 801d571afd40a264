"""Performance model: the paper's experiments at the paper's scale.

The functional layer (real Swift + storlets + Spark at laptop scale)
establishes *what* each query keeps and discards; this package replays
those measured selectivities through a fair-share fluid model over the
aggregated cluster resources, at the evaluation's declared scale (50 GB
/ 500 GB / 3 TB over the 63-machine OSIC testbed), to reproduce the
*timing* results: query speedups (Fig. 5/6/7), the Parquet comparison
(Fig. 8) and the resource-usage profiles (Fig. 9/10).

The key modelling idea: one ingest task is a single weighted flow whose
per-resource weights encode how many bytes each resource handles per
scanned byte -- the storage disk and storlet CPU see the whole chunk,
while the NICs, load-balancer link and worker CPU see only the
``(1 - selectivity)`` fraction that survives the filter.  Max-min fair
sharing over those flows makes the bottleneck shift (LB link at low
selectivity, storage CPU at high selectivity) emerge rather than being
hard-coded.

It owns the small kernel it runs on: :mod:`repro.perfmodel.kernel` (the
event loop, clock and generator processes) and :mod:`repro.perfmodel.flow`
(the max-min fair :class:`~repro.perfmodel.flow.FlowNetwork` and the
sampled :class:`~repro.perfmodel.flow.ResourceSeries`).
"""

from repro.perfmodel.parameters import (
    DATASETS,
    DatasetScale,
    PerfParameters,
)
from repro.perfmodel.concurrent import ConcurrentIngestSimulation, neighbour_impact
from repro.perfmodel.model import (
    IngestSimulation,
    JobSpec,
    RunResult,
    SelectivityProfile,
)

__all__ = [
    "ConcurrentIngestSimulation",
    "DATASETS",
    "JobSpec",
    "DatasetScale",
    "IngestSimulation",
    "PerfParameters",
    "RunResult",
    "SelectivityProfile",
    "neighbour_impact",
]
