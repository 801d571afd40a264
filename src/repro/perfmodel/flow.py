"""Fluid-flow network with weighted max-min fair rate allocation.

A :class:`Flow` is a fixed amount of work (bytes) that traverses a set of
:class:`FlowResource` objects (links, disks, CPU pools).  Each flow ``f``
declares, per resource ``r``, a *weight* ``w[f, r]``: how many units of
``r``'s capacity one byte of the flow consumes per second.  A network link
has weight 1 (a byte is a byte), while a CPU pool sized in core-seconds per
second gives a flow weight ``c`` when parsing a byte costs ``c`` core-
seconds.

Rates follow *bottleneck fairness*: each resource shares its capacity
max-min fairly among the flows crossing it (demand-capped, so a flow
bottlenecked elsewhere releases its slack), and a flow's rate is the
minimum over its resources.  This matches TCP-like behaviour -- a
pushdown flow whose response stream consumes 1% of a link per scanned
byte is frozen by its real bottleneck, not by fat neighbours' rates.
The allocation is recomputed on every flow arrival and departure, which
is exact for piecewise-constant fluid models.

This is the timing engine behind every Scoop experiment: the superlinear
speedups in Fig. 5/6 of the paper fall out of the bottleneck moving from
the load-balancer link to storage-node CPUs as data selectivity grows.

:class:`ResourceSeries` holds what a replay samples from the resources
(throughput, utilization, memory) at a fixed virtual-time interval.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.perfmodel.kernel import Environment, Event, Interrupt

_EPSILON = 1e-12


class FlowResource:
    """A capacity-constrained resource flows may traverse.

    ``capacity`` is in units per second (bytes/s for links and disks,
    core-seconds/s -- i.e. cores -- for CPU pools).
    """

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity!r}")
        self.name = name
        self.capacity = float(capacity)
        #: The flows crossing this resource, in arrival order (a dict,
        #: not a set: sums and tie-breaks must not follow memory layout).
        self.flows: Dict["Flow", None] = {}

    def utilization(self) -> float:
        """Fraction of capacity currently consumed (0..1)."""
        used = sum(flow.rate * flow.weights[self] for flow in self.flows)
        return min(1.0, used / self.capacity)

    def throughput(self) -> float:
        """Units per second currently flowing through this resource."""
        return sum(flow.rate * flow.weights[self] for flow in self.flows)

    def __repr__(self) -> str:
        return f"<FlowResource {self.name} cap={self.capacity:g}>"


class Flow:
    """A unit of work in flight through the network."""

    _ids = itertools.count()

    def __init__(
        self,
        network: "FlowNetwork",
        size: float,
        weights: Dict[FlowResource, float],
        label: str = "",
    ):
        self.id = next(Flow._ids)
        self.network = network
        self.label = label
        self.remaining = float(size)
        self.weights = {res: w for res, w in weights.items() if w > 0}
        self.rate = 0.0
        self.started_at = network.env.now
        self.done: Event = network.env.event()

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.id} {self.label or ''} remaining={self.remaining:.3g}"
            f" rate={self.rate:.3g}>"
        )


class FlowNetwork:
    """Manages flows and recomputes max-min fair rates on every change."""

    def __init__(self, env: Environment):
        self.env = env
        self.resources: Dict[str, FlowResource] = {}
        self._flows: Dict[Flow, None] = {}  # arrival order, as FlowResource.flows
        self._last_update = env.now
        self._timer: Optional[object] = None  # the sleeping watcher Process

    # -- topology --------------------------------------------------------

    def add_resource(self, name: str, capacity: float) -> FlowResource:
        if name in self.resources:
            raise ValueError(f"duplicate resource name: {name!r}")
        resource = FlowResource(name, capacity)
        self.resources[name] = resource
        return resource

    # -- flow lifecycle ----------------------------------------------------

    def start_flow(
        self,
        size: float,
        demands: Dict[FlowResource, float],
        label: str = "",
    ) -> Flow:
        """Begin a flow of ``size`` bytes; returns it (wait on ``flow.done``).

        ``demands`` maps resources to per-byte weights.  A zero-size flow
        completes immediately.
        """
        if size < 0:
            raise ValueError(f"flow size must be >= 0: {size!r}")
        flow = Flow(self, size, demands, label)
        if flow.remaining <= _EPSILON or not flow.weights:
            flow.done.succeed(flow)
            return flow
        self._advance()
        self._flows[flow] = None
        for resource in flow.weights:
            resource.flows[flow] = None
        self._reallocate()
        return flow

    # -- allocation engine -------------------------------------------------

    def _advance(self) -> None:
        """Drain work done at current rates since the last update and
        complete any flows that finished (or can no longer make
        representable progress on the float clock)."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining -= flow.rate * elapsed
        # Completion threshold: a flow whose remaining service time is
        # below the clock's representable resolution at `now` would arm
        # a timer that never advances time (now + delay == now), spinning
        # the event loop forever -- finish it here instead.
        time_floor = max(_EPSILON, 8 * math.ulp(max(1.0, now)))
        finished: List[Flow] = []
        for flow in self._flows:
            if flow.remaining <= _EPSILON * max(1.0, flow.rate):
                finished.append(flow)
            elif flow.rate > 0 and flow.remaining / flow.rate <= time_floor:
                finished.append(flow)
        for flow in finished:
            flow.remaining = 0.0
            self._remove(flow)
            flow.done.succeed(flow)

    def _remove(self, flow: Flow) -> None:
        del self._flows[flow]
        for resource in flow.weights:
            del resource.flows[flow]
        flow.rate = 0.0

    #: Fixed-point iteration controls for rate allocation.
    _MAX_ALLOCATION_ITERATIONS = 60
    _ALLOCATION_TOLERANCE = 1e-7

    def _reallocate(self) -> None:
        """Bottleneck-fair rate allocation, then arm the completion timer.

        Each resource shares its *capacity* max-min fairly among the
        flows crossing it, capped by each flow's demand (the rate its
        other resources allow times its weight here); a flow's rate is
        the minimum of its per-resource allocations divided by weights.
        This is TCP-like fairness: a flow that consumes little of a link
        per unit of work (e.g. a pushdown flow whose response stream is a
        trickle) is *not* throttled to the same rate as fat flows -- it
        is frozen by its true bottleneck and the link redistributes the
        slack.  Computed by Jacobi iteration to the max-min fixed point.
        """
        flows = list(self._flows)
        if not flows:
            self._arm_timer()
            return

        # Fast path: when every flow shares one weights mapping (the
        # common case for a single simulated job, whose tasks are
        # identical), the fair allocation is uniform and closed-form.
        first_weights = flows[0].weights
        if all(
            flow.weights is first_weights or flow.weights == first_weights
            for flow in flows
        ):
            count = len(flows)
            rate_bound = math.inf
            for res, weight in first_weights.items():
                rate_bound = min(rate_bound, res.capacity / (count * weight))
            for flow in flows:
                flow.rate = 0.0 if rate_bound is math.inf else rate_bound
            self._arm_timer()
            return

        active_resources = [
            res for res in self.resources.values() if res.flows
        ]
        rate: Dict[Flow, float] = {flow: math.inf for flow in flows}
        # Per resource: each flow's per-resource rate bound from the
        # previous round (consumption / weight), used as the demand cap.
        previous_bounds: Dict[FlowResource, Dict[Flow, float]] = {}

        for _iteration in range(self._MAX_ALLOCATION_ITERATIONS):
            bounds: Dict[FlowResource, Dict[Flow, float]] = {}
            for res in active_resources:
                users = []
                for flow in res.flows:
                    # Demand on this resource = weight x the rate the
                    # flow's OTHER resources allowed last round.
                    bound_elsewhere = math.inf
                    for other in flow.weights:
                        if other is res:
                            continue
                        prior = previous_bounds.get(other, {}).get(
                            flow, math.inf
                        )
                        bound_elsewhere = min(bound_elsewhere, prior)
                    demand = (
                        math.inf
                        if bound_elsewhere is math.inf
                        else bound_elsewhere * flow.weights[res]
                    )
                    users.append((flow, flow.weights[res], demand))
                consumption = _max_min_single_resource(res.capacity, users)
                bounds[res] = {
                    flow: consumption[flow] / flow.weights[res]
                    for flow in res.flows
                }

            new_rate: Dict[Flow, float] = {}
            converged = True
            for flow in flows:
                bound = math.inf
                for res in flow.weights:
                    bound = min(bound, bounds[res][flow])
                new_rate[flow] = bound
                old = rate[flow]
                if old is math.inf or abs(bound - old) > (
                    self._ALLOCATION_TOLERANCE * max(1.0, old)
                ):
                    converged = False
            rate = new_rate
            previous_bounds = bounds
            if converged:
                break

        for flow in flows:
            flow.rate = 0.0 if rate[flow] is math.inf else rate[flow]
        self._arm_timer()

    def _next_completion_delay(self) -> float:
        delay = math.inf
        for flow in self._flows:
            if flow.rate > 0:
                delay = min(delay, flow.remaining / flow.rate)
        return delay

    def _arm_timer(self) -> None:
        if self._timer is not None and self._timer.is_alive:
            try:
                self._timer.interrupt("reallocate")
            except Exception:
                pass
        delay = self._next_completion_delay()
        if delay is math.inf:
            self._timer = None
            return
        self._timer = self.env.process(self._watch(delay))

    def _watch(self, delay: float):
        try:
            yield self.env.timeout(delay)
        except Interrupt:
            return
        self._advance()
        self._reallocate()


def _max_min_single_resource(capacity: float, users) -> Dict[Flow, float]:
    """Classic single-resource max-min with demand caps.

    ``users`` is a list of ``(flow, weight, demand)`` where ``demand`` is
    the consumption (capacity units) the flow can actually use; flows
    with infinite demand are backlogged and absorb the leftover equally.
    Returns each flow's allocated consumption.
    """
    allocation: Dict[Flow, float] = {}
    remaining = capacity
    # Ascending by demand; inf (backlogged) flows come last, and flows of
    # equal demand newest first, whatever order ``users`` came in.
    ordered = sorted(users, key=lambda item: (item[2], -item[0].id))
    for position, (flow, _weight, demand) in enumerate(ordered):
        fair = remaining / (len(ordered) - position)
        granted = fair if demand is math.inf else min(demand, fair)
        allocation[flow] = granted
        remaining -= granted
    return allocation


@dataclass
class ResourceSeries:
    """One sampled time series: (time, value) pairs plus summary stats.

    A replay records into it from one thread on the virtual clock;
    appends still take a lock, so a series shared between threads can
    never tear its parallel times/values lists.
    """

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, time: float, value: float) -> None:
        with self._lock:
            self.times.append(time)
            self.values.append(value)

    def mean(self) -> float:
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def peak(self) -> float:
        return max(self.values, default=0.0)

    def integral(self) -> float:
        """Trapezoidal integral of the series (e.g. CPU-seconds burnt)."""
        total = 0.0
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            total += dt * (self.values[i] + self.values[i - 1]) / 2
        return total

    def __len__(self) -> int:
        return len(self.values)
