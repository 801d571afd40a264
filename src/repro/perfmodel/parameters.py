"""Calibration constants for the performance model.

Hardware numbers come from the paper's platform description (Section
VI): 63 HP DL380 Gen9 servers (2x12 cores @2.5 GHz, 256 GB RAM, 12x 600
GB 15K SAS, 2x10 GbE bonded), 1 HAProxy load balancer on a 10 Gbps
link, 6 proxies, 29 object servers (10 ring disks each), 25 Spark
workers.

Software cost constants are calibrated against the paper's measured
anchors rather than guessed:

* plain ingest of the 3 TB dataset saturates the 10 Gbps LB link
  (Fig. 9c) while Spark-node CPU averages ~3.1% (Fig. 9a)
  -> ``spark_parse_cost`` ~ 1.5e-8 core-s/B;
* pushdown of a ~99%-selectivity query moves ~189 MB/s through the LB
  for ~120 s and keeps storage CPU near 23.5% (Fig. 9c / Fig. 10)
  -> storlet scan throughput ~ 100 MB/s/core;
* speedups top out around 31x on 3 TB (Fig. 6) -> job fixed overheads
  of a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one machine.

    Defaults correspond to the paper's OSIC servers: HP DL380 Gen9,
    2x 12-core Intel E5-2680 v3, 256 GB RAM, 12x 600 GB 15K SAS disks,
    dual 10 GbE bonded NICs.
    """

    cores: int = 24
    memory_bytes: float = 256 * 2**30
    nic_bandwidth: float = 2 * 10e9 / 8  # 2x10 Gbps bond, in bytes/s
    disk_bandwidth: float = 180e6  # 15K SAS sequential read, bytes/s


@dataclass(frozen=True)
class TestbedSpec:
    """Counts and link speeds for a disaggregated testbed.

    Section VI ("Platform"): 6 Swift proxy/metadata servers, 29 object
    servers (10 data disks each in the object ring), 25 Spark workers,
    and one HAProxy load balancer whose 10 Gbps link carries every byte
    from the storage cluster to the compute cluster (Fig. 9c shows it
    saturating during plain ingest).
    """

    __test__ = False  # not a pytest test class despite the name

    proxy_count: int = 6
    storage_count: int = 29
    worker_count: int = 25
    lb_bandwidth: float = 10e9 / 8  # HAProxy machine: one 10 Gbps link
    storage_disks_in_ring: int = 10
    node_spec: NodeSpec = field(default_factory=NodeSpec)


OSIC_SPEC = TestbedSpec()


@dataclass(frozen=True)
class DatasetScale:
    """One of the paper's dataset sizes."""

    name: str
    size_bytes: float
    rows: float

    @property
    def label(self) -> str:
        gigabytes = self.size_bytes / 1e9
        if gigabytes >= 1000:
            return f"{gigabytes / 1000:.0f}TB"
        return f"{gigabytes:.0f}GB"


#: Section VI: Small 438M rows (50 GB), Medium 3,900M rows (500 GB),
#: Large 21,099M rows (3 TB).
DATASETS: Dict[str, DatasetScale] = {
    "small": DatasetScale("small", 50e9, 438e6),
    "medium": DatasetScale("medium", 500e9, 3.9e9),
    "large": DatasetScale("large", 3e12, 21.099e9),
}


@dataclass
class PerfParameters:
    """Everything the ingest simulation needs."""

    testbed: TestbedSpec = field(default_factory=lambda: OSIC_SPEC)

    # -- partitioning / scheduling ------------------------------------------
    #: HDFS-style chunk size driving partition discovery (128 MB).
    chunk_size: float = 128e6
    #: Concurrent ingest tasks per worker (one per core).
    slots_per_worker: int = 24
    #: Per-task fixed latency: HTTP round trip + task scheduling.
    task_fixed_latency: float = 0.20
    #: Per-job fixed overhead: driver planning, stage submission.
    job_fixed_overhead: float = 3.0

    # -- storage-side costs (core-seconds per scanned byte) --------------------
    #: Plain GET relay cost (checksum, send) on storage nodes.
    storage_relay_cost: float = 1.0 / 2e9
    #: CSV storlet streaming scan.
    storlet_scan_cost: float = 1.0 / 110e6
    #: Extra per-byte cost when evaluating row predicates.
    storlet_row_filter_cost: float = 0.2 / 110e6
    #: Extra per-byte cost when selecting/re-concatenating columns
    #: (the row-vs-column asymmetry of Section VI-A).
    storlet_column_project_cost: float = 0.55 / 110e6
    #: Per output byte (serialization).
    storlet_output_cost: float = 0.4 / 110e6
    #: Extra per-task latency of a storlet invocation (sandbox dispatch);
    #: the source of the paper's worst-case -3.4% at zero selectivity.
    storlet_task_extra_latency: float = 0.08

    # -- compute-side costs (core-seconds per transferred byte) ------------------
    #: Spark CSV parse + predicate evaluation during plain ingest.
    spark_parse_cost: float = 1.0 / 67e6
    #: Spark processing of rows that survive filtering (aggregation...).
    spark_post_cost: float = 1.0 / 120e6
    #: Parquet decompression + column decode, per *compressed* byte
    #: (Spark 1.6's Parquet reader was slow; this includes row assembly).
    parquet_decode_cost: float = 1.0 / 12e6

    # -- transfer compression (Section VI-C combination) ---------------------------
    #: zlib ratio on filtered CSV output.
    transfer_compression_ratio: float = 0.3
    #: Storage-side compression cost per filtered-output byte.
    compress_cost: float = 0.6 / 110e6
    #: Worker-side decompression cost per compressed byte.
    decompress_cost: float = 1.0 / 250e6

    # -- parquet format ------------------------------------------------------------
    #: Compressed/raw size ratio for GridPocket-like CSV (zlib ~ 4x).
    parquet_compression_ratio: float = 0.32

    # -- memory model -----------------------------------------------------------------
    #: Resident fraction of worker memory before the job (OS + executor).
    worker_baseline_memory: float = 0.12
    #: Fraction of ingested-and-kept bytes resident in worker memory
    #: (Spark buffers/deserialized rows; the rest spills).
    worker_buffer_fraction: float = 0.35
    #: Storage-node resident memory fraction: baseline and with the
    #: storlet Docker sandbox warm (paper: 4-6%).
    storage_baseline_memory: float = 0.02
    storage_sandbox_memory: float = 0.05

    # -- per-stream limits -----------------------------------------------------------
    #: A single plain HTTP GET stream cannot exceed this (TCP/window).
    plain_stream_rate: float = 150e6
    #: A storlet invocation is single-threaded: per-task scan ceiling.
    storlet_stream_rate: float = 110e6

    # -- simulation control ------------------------------------------------------------
    #: Cap on simultaneously simulated macro-flows (tasks are exact in
    #: byte volume; only their grouping into flows is coarsened).
    max_macro_flows: int = 64
    metrics_interval: float = 1.0

    def worker_count(self) -> int:
        return self.testbed.worker_count

    def storage_count(self) -> int:
        return self.testbed.storage_count

    def total_worker_cores(self) -> float:
        return self.testbed.worker_count * self.testbed.node_spec.cores

    def total_storage_cores(self) -> float:
        return self.testbed.storage_count * self.testbed.node_spec.cores

    def total_slots(self) -> int:
        return self.testbed.worker_count * self.slots_per_worker

    def storlet_cost(self, row_filtering: bool, column_projection: bool) -> float:
        """Per-scanned-byte storlet CPU cost for a task shape."""
        cost = self.storlet_scan_cost
        if row_filtering:
            cost += self.storlet_row_filter_cost
        if column_projection:
            cost += self.storlet_column_project_cost
        return cost
