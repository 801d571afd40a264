"""The ingest simulation: plain, pushdown and parquet replays.

One simulated query = job overhead + waves of ingest tasks.  A task is a
weighted flow through the aggregated cluster resources; its per-resource
weights encode the process shape:

=============  ==========================  =========================
resource       plain ingest                Scoop pushdown
=============  ==========================  =========================
storage disk   1 byte/byte                 1 byte/byte (full scan)
storage CPU    relay cost                  storlet scan+filter cost
storage NIC    1                           (1 - selectivity)
proxy NIC      1                           (1 - selectivity)
LB link        1                           (1 - selectivity)
worker NIC     1                           (1 - selectivity)
worker CPU     CSV parse cost              post-cost on kept bytes
=============  ==========================  =========================

Parquet transfers the whole compressed object (ratio x dataset) and pays
decode cost at the workers.  The proxy-staged pushdown ablation moves
the full object across the storage NIC to the proxies and runs the
storlet on the much smaller proxy CPU pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.perfmodel.flow import FlowNetwork, FlowResource, ResourceSeries
from repro.perfmodel.kernel import Environment
from repro.perfmodel.parameters import PerfParameters


@dataclass(frozen=True)
class SelectivityProfile:
    """What fraction a query discards, and by which mechanism."""

    data_selectivity: float
    row_filtering: bool = False
    column_projection: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.data_selectivity <= 1.0:
            raise ValueError(
                f"data_selectivity must be in [0, 1]: {self.data_selectivity}"
            )

    @property
    def kept_fraction(self) -> float:
        return 1.0 - self.data_selectivity

    @classmethod
    def rows(cls, selectivity: float) -> "SelectivityProfile":
        return cls(selectivity, row_filtering=True)

    @classmethod
    def columns(cls, selectivity: float) -> "SelectivityProfile":
        return cls(selectivity, column_projection=True)

    @classmethod
    def mixed(cls, selectivity: float) -> "SelectivityProfile":
        return cls(selectivity, row_filtering=True, column_projection=True)


@dataclass(frozen=True)
class JobSpec:
    """One query to replay; in a concurrent scenario, one tenant's."""

    name: str
    mode: str
    dataset_bytes: float
    profile: SelectivityProfile = field(
        default_factory=lambda: SelectivityProfile(0.0)
    )
    start_time: float = 0.0


@dataclass
class RunResult:
    """Outcome of one simulated query execution."""

    mode: str
    dataset_bytes: float
    duration: float
    bytes_over_lb: float
    series: Dict[str, ResourceSeries]
    task_count: int
    wave_count: int

    def mean_series(self, key: str) -> float:
        return self.series[key].mean()

    def peak_series(self, key: str) -> float:
        return self.series[key].peak()


class IngestSimulation:
    """Builds the aggregated OSIC resource model and replays queries."""

    MODES = ("plain", "pushdown", "pushdown_proxy", "pushdown_compressed", "parquet")

    def __init__(self, params: Optional[PerfParameters] = None):
        self.params = params or PerfParameters()

    # -- public API --------------------------------------------------------

    def run(
        self,
        mode: str,
        dataset_bytes: float,
        profile: Optional[SelectivityProfile] = None,
    ) -> RunResult:
        """Simulate one query execution and return its timing/metrics."""
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}: {mode!r}")
        profile = profile or SelectivityProfile(0.0)
        params = self.params
        testbed = params.testbed
        job = JobSpec("query", mode, dataset_bytes, profile)
        scanned_total, task_count = self._scan_plan(job)

        env = Environment()
        network = FlowNetwork(env)
        resources = self._resources(network)

        # -- memory accounting (sampled, not flow-modelled) -----------------
        memory_state = {
            "worker": params.worker_baseline_memory,
            "storage": params.storage_baseline_memory
            + (
                params.storage_sandbox_memory
                if mode.startswith("pushdown")
                else 0.0
            ),
        }
        worker_memory_total = testbed.worker_count * testbed.node_spec.memory_bytes
        buffered_bytes_per_task = (
            (scanned_total / task_count)
            * self._kept_fraction(mode, profile)
            * params.worker_buffer_fraction
        )

        def on_wave(wave_task_count: int) -> None:
            memory_state["worker"] = min(
                0.95,
                memory_state["worker"]
                + wave_task_count * buffered_bytes_per_task / worker_memory_total,
            )

        series: Dict[str, ResourceSeries] = {
            key: ResourceSeries(key)
            for key in (
                "lb.throughput",
                "lb.utilization",
                "storage.cpu",
                "worker.cpu",
                "worker.memory",
                "storage.memory",
                "proxy.nic.throughput",
            )
        }
        lb = resources["lb"]
        storage_cpu = resources["storage_cpu"]
        worker_cpu = resources["worker_cpu"]
        proxy_nic = resources["proxy_nic"]

        def sample(now: float) -> None:
            series["lb.throughput"].record(now, lb.throughput())
            series["lb.utilization"].record(now, lb.utilization())
            series["storage.cpu"].record(now, storage_cpu.utilization())
            series["worker.cpu"].record(now, worker_cpu.utilization())
            series["worker.memory"].record(now, memory_state["worker"])
            series["storage.memory"].record(now, memory_state["storage"])
            series["proxy.nic.throughput"].record(now, proxy_nic.throughput())

        self._start_sampler(env, sample)

        def query():
            yield from self._job(env, network, resources, job, on_wave)
            # Release buffered memory shortly after the job completes.
            yield env.timeout(1.0)
            memory_state["worker"] = params.worker_baseline_memory
            return env.now

        duration = env.run(until=env.process(query()))
        return RunResult(
            mode=mode,
            dataset_bytes=dataset_bytes,
            duration=duration,
            bytes_over_lb=scanned_total * self._lb_fraction(mode, profile),
            series=series,
            task_count=task_count,
            wave_count=math.ceil(task_count / max(1, params.total_slots())),
        )

    def speedup(
        self,
        dataset_bytes: float,
        profile: SelectivityProfile,
        baseline_mode: str = "plain",
        mode: str = "pushdown",
    ) -> float:
        """S_Q = T_baseline / T_mode for one dataset and selectivity."""
        baseline = self.run(baseline_mode, dataset_bytes, profile)
        accelerated = self.run(mode, dataset_bytes, profile)
        return baseline.duration / accelerated.duration

    # -- one replay: the shared pools, each job, the sampler --------------------

    def _resources(self, network: FlowNetwork) -> Dict[str, FlowResource]:
        """The eight aggregated cluster pools every job's flows share."""
        params = self.params
        spec = params.testbed
        node = spec.node_spec
        return {
            "storage_disk": network.add_resource(
                "storage.disk",
                spec.storage_count * spec.storage_disks_in_ring * node.disk_bandwidth,
            ),
            "storage_cpu": network.add_resource(
                "storage.cpu", params.total_storage_cores()
            ),
            "storage_nic": network.add_resource(
                "storage.nic", spec.storage_count * node.nic_bandwidth
            ),
            "proxy_cpu": network.add_resource(
                "proxy.cpu", spec.proxy_count * node.cores
            ),
            "proxy_nic": network.add_resource(
                "proxy.nic", spec.proxy_count * node.nic_bandwidth
            ),
            "lb": network.add_resource("lb.link", spec.lb_bandwidth),
            "worker_nic": network.add_resource(
                "worker.nic", spec.worker_count * node.nic_bandwidth
            ),
            "worker_cpu": network.add_resource(
                "worker.cpu", params.total_worker_cores()
            ),
        }

    def _job(
        self,
        env: Environment,
        network: FlowNetwork,
        resources: Dict[str, FlowResource],
        job: JobSpec,
        on_wave: Optional[Callable[[int], None]] = None,
    ):
        """One job as a process body; returns its finish time.

        After ``start_time`` and the job overhead, the tasks run in waves
        of at most ``total_slots()``, grouped into at most
        ``max_macro_flows`` macro-flows; ``on_wave(tasks)`` runs after
        each macro-flow's share of a wave lands.
        """
        params = self.params
        weights = self._task_weights(job.mode, job.profile, resources)
        scanned_total, task_count = self._scan_plan(job)
        slots = max(1, params.total_slots())
        pushdown = job.mode.startswith("pushdown")
        # Per-stream ceiling: N concurrent single-threaded tasks cannot
        # scan/transfer faster than N x the per-stream rate, however much
        # aggregate capacity the pools have.  This is what penalizes
        # oversized chunks in the partition-size ablation.
        stream_rate = (
            params.storlet_stream_rate if pushdown else params.plain_stream_rate
        )
        streams = network.add_resource(
            f"streams.{job.name}", min(slots, task_count) * stream_rate
        )
        weights[streams] = 1.0
        macro_count = min(params.max_macro_flows, task_count)
        chunk = scanned_total / task_count
        latency = params.task_fixed_latency
        if pushdown:
            latency += params.storlet_task_extra_latency

        def macro_flow(index: int):
            """One macro-flow: its share of every wave's tasks."""
            for wave_tasks in self._wave_split(
                task_count, slots, macro_count, index
            ):
                if wave_tasks == 0:
                    continue
                yield env.timeout(latency)
                flow = network.start_flow(
                    wave_tasks * chunk, weights, label=f"{job.name}#{index}"
                )
                yield flow.done
                if on_wave is not None:
                    on_wave(wave_tasks)

        if job.start_time > 0:
            yield env.timeout(job.start_time)
        yield env.timeout(params.job_fixed_overhead)
        flows = [env.process(macro_flow(index)) for index in range(macro_count)]
        for process in flows:
            yield process
        return env.now

    def _start_sampler(
        self, env: Environment, sample: Callable[[float], None]
    ) -> None:
        """Call ``sample(now)`` at time 0 and every ``metrics_interval``."""

        def sampler():
            while True:
                sample(env.now)
                yield env.timeout(self.params.metrics_interval)

        env.process(sampler())

    # -- internals ------------------------------------------------------------

    def _scan_plan(self, job: JobSpec) -> Tuple[float, int]:
        """Bytes the job scans and the number of tasks they split into.

        Parquet scans the compressed bytes; every other mode the CSV.
        """
        scanned = job.dataset_bytes * (
            self.params.parquet_compression_ratio if job.mode == "parquet" else 1.0
        )
        return scanned, max(1, math.ceil(scanned / self.params.chunk_size))

    def _task_weights(
        self,
        mode: str,
        profile: SelectivityProfile,
        resources: Dict[str, FlowResource],
    ) -> Dict[FlowResource, float]:
        """Per-scanned-byte weights on each pool."""
        params = self.params
        kept = profile.kept_fraction
        if mode == "plain":
            return {
                resources["storage_disk"]: 1.0,
                resources["storage_cpu"]: params.storage_relay_cost,
                resources["storage_nic"]: 1.0,
                resources["proxy_nic"]: 2.0,  # in + out of the proxy
                resources["lb"]: 1.0,
                resources["worker_nic"]: 1.0,
                resources["worker_cpu"]: params.spark_parse_cost,
            }
        if mode == "pushdown":
            storlet = params.storlet_cost(
                profile.row_filtering, profile.column_projection
            ) + kept * params.storlet_output_cost
            return {
                resources["storage_disk"]: 1.0,
                resources["storage_cpu"]: storlet,
                resources["storage_nic"]: kept,
                resources["proxy_nic"]: 2.0 * kept,
                resources["lb"]: kept,
                resources["worker_nic"]: kept,
                resources["worker_cpu"]: kept * params.spark_post_cost,
            }
        if mode == "pushdown_compressed":
            # Filter at the store, then compress the filtered output
            # before it crosses the network (Section VI-C).
            ratio = params.transfer_compression_ratio
            storlet = (
                params.storlet_cost(
                    profile.row_filtering, profile.column_projection
                )
                + kept * params.storlet_output_cost
                + kept * params.compress_cost
            )
            wire = kept * ratio
            return {
                resources["storage_disk"]: 1.0,
                resources["storage_cpu"]: storlet,
                resources["storage_nic"]: wire,
                resources["proxy_nic"]: 2.0 * wire,
                resources["lb"]: wire,
                resources["worker_nic"]: wire,
                resources["worker_cpu"]: wire * params.decompress_cost
                + kept * params.spark_post_cost,
            }
        if mode == "pushdown_proxy":
            # Staging ablation: the full object crosses the storage NIC to
            # the proxy, whose small CPU pool runs the storlet.
            storlet = params.storlet_cost(
                profile.row_filtering, profile.column_projection
            ) + kept * params.storlet_output_cost
            return {
                resources["storage_disk"]: 1.0,
                resources["storage_cpu"]: params.storage_relay_cost,
                resources["storage_nic"]: 1.0,
                resources["proxy_nic"]: 1.0 + kept,
                resources["proxy_cpu"]: storlet,
                resources["lb"]: kept,
                resources["worker_nic"]: kept,
                resources["worker_cpu"]: kept * params.spark_post_cost,
            }
        if mode == "parquet":
            # The whole compressed object travels.
            return {
                resources["storage_disk"]: 1.0,
                resources["storage_cpu"]: params.storage_relay_cost,
                resources["storage_nic"]: 1.0,
                resources["proxy_nic"]: 2.0,
                resources["lb"]: 1.0,
                resources["worker_nic"]: 1.0,
                resources["worker_cpu"]: params.parquet_decode_cost,
            }
        raise ValueError(f"unknown mode {mode!r}")

    def _kept_fraction(self, mode: str, profile: SelectivityProfile) -> float:
        if mode.startswith("pushdown"):
            return profile.kept_fraction
        if mode == "parquet":
            # Whole compressed object is buffered; pruning happens after.
            return self.params.parquet_compression_ratio
        return 1.0

    def _lb_fraction(self, mode: str, profile: SelectivityProfile) -> float:
        if mode == "pushdown_compressed":
            return profile.kept_fraction * self.params.transfer_compression_ratio
        if mode.startswith("pushdown"):
            return profile.kept_fraction
        return 1.0

    @staticmethod
    def _wave_split(
        task_count: int, slots: int, macro_count: int, flow_index: int
    ) -> List[int]:
        """How many tasks macro-flow ``flow_index`` carries in each wave."""
        waves = []
        remaining = task_count
        while remaining > 0:
            wave_tasks = min(slots, remaining)
            base, extra = divmod(wave_tasks, macro_count)
            waves.append(base + (1 if flow_index < extra else 0))
            remaining -= wave_tasks
        return waves
