"""Concurrent multi-tenant replay: Scoop frees capacity for neighbours.

Section VI-D's closing argument: "with Scoop both the datacenter network
and Swift proxies have more resources to serve other jobs or services
running in the system."  This module simulates several tenants' queries
*sharing* one cluster: all jobs' flows contend under max-min fairness on
the same LB link, storage CPUs and worker pools, so the benefit one
tenant's pushdown brings to its *neighbours* is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.perfmodel.flow import FlowNetwork, ResourceSeries
from repro.perfmodel.kernel import Environment
from repro.perfmodel.model import IngestSimulation, JobSpec, SelectivityProfile
from repro.perfmodel.parameters import PerfParameters


@dataclass
class JobResult:
    name: str
    mode: str
    start_time: float
    finish_time: float

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time


@dataclass
class ConcurrentRunResult:
    jobs: List[JobResult]
    lb_utilization: ResourceSeries

    def job(self, name: str) -> JobResult:
        for result in self.jobs:
            if result.name == name:
                return result
        raise KeyError(f"no job named {name!r}")

    def makespan(self) -> float:
        return max(result.finish_time for result in self.jobs)


class ConcurrentIngestSimulation(IngestSimulation):
    """Runs several jobs against one shared resource model.

    Each job is the single-query replay's job; only the pools (and the
    clock) are shared, under max-min fairness.
    """

    def run_concurrent(
        self, specs: Sequence[JobSpec]
    ) -> ConcurrentRunResult:
        if not specs:
            raise ValueError("need at least one job")
        for spec in specs:
            if spec.mode not in self.MODES:
                raise ValueError(f"unknown mode {spec.mode!r} in {spec.name}")

        env = Environment()
        network = FlowNetwork(env)
        resources = self._resources(network)
        lb = resources["lb"]
        lb_series = ResourceSeries("lb.utilization")
        self._start_sampler(env, lambda now: lb_series.record(now, lb.utilization()))
        tenants = [
            env.process(self._job(env, network, resources, spec))
            for spec in specs
        ]

        def all_done():
            for tenant in tenants:
                yield tenant

        env.run(until=env.process(all_done()))
        results = [
            JobResult(spec.name, spec.mode, spec.start_time, tenant.value)
            for spec, tenant in zip(specs, tenants)
        ]
        results.sort(key=lambda r: r.name)
        return ConcurrentRunResult(jobs=results, lb_utilization=lb_series)


@dataclass
class NeighbourImpactResult:
    """How a foreground tenant's strategy affects a background tenant."""

    foreground_mode: str
    foreground_duration: float
    background_duration: float


def neighbour_impact(
    foreground_bytes: float,
    background_bytes: float,
    data_selectivity: float = 0.99,
    params: Optional[PerfParameters] = None,
) -> List[NeighbourImpactResult]:
    """Run a plain background ingest next to a foreground query executed
    plainly vs with pushdown; report both tenants' durations each way."""
    simulation = ConcurrentIngestSimulation(params)
    results = []
    for mode in ("plain", "pushdown"):
        outcome = simulation.run_concurrent(
            [
                JobSpec(
                    name="foreground",
                    mode=mode,
                    dataset_bytes=foreground_bytes,
                    profile=SelectivityProfile.mixed(data_selectivity),
                ),
                JobSpec(
                    name="background",
                    mode="plain",
                    dataset_bytes=background_bytes,
                ),
            ]
        )
        results.append(
            NeighbourImpactResult(
                foreground_mode=mode,
                foreground_duration=outcome.job("foreground").duration,
                background_duration=outcome.job("background").duration,
            )
        )
    return results
