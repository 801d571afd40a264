"""Installing a fault plan into a live cluster.

The injector turns the plan's abstract rules into concrete failures at
the three layers the resilience machinery defends:

* **object middleware** (innermost, next to the disk): injected error
  statuses and stalls, surfacing as 503/504 on one replica so the proxy
  fails over;
* **proxy middleware** (after auth): transient proxy rejections the
  client retries, plus the request-count trigger for permanent device
  losses;
* **storlet hook** (inside the sandbox): crashes and budget exhaustion,
  surfacing as degradable :class:`~repro.storlets.api.StorletFailure`.

All three consult the same :class:`~repro.faults.plan.FaultPlan`, so one
seed fixes the entire fault sequence.  The plan keeps the log; the
injector counts each fault fired into its cluster's registry and traces
it as an event beside the spans it perturbed.

Every consultation passes a **scope** string naming the logical request
-- node, method, object path and byte range -- so the plan's seeded
decisions are a pure function of *which* request is asking, not of the
global order requests happen to arrive in.  That is what keeps a chaos
run deterministic when the scheduler executes partitions concurrently:
thread interleaving permutes the arrival order but not the per-scope
consult sequences (see :mod:`repro.faults.plan`).
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional

from repro.faults.plan import DeviceLoss, FaultPlan
from repro.storlets.api import StorletFailure
from repro.swift.exceptions import (
    RequestTimeout,
    ServiceUnavailable,
    SwiftError,
)
from repro.swift.http import Request, Response
from repro.swift.proxy import SwiftCluster


class FaultInjector:
    """Bridges a :class:`FaultPlan` onto a :class:`SwiftCluster`."""

    def __init__(self, plan: FaultPlan, cluster: SwiftCluster):
        self.plan = plan
        # Weak: the cluster's middlewares and the engine's storlet hook
        # hold the injector, so a strong pointer back would make every
        # faulted store cyclic garbage (as ``ProxyApp``'s would).
        self._cluster = weakref.ref(cluster)
        self._lost_devices: set = set()

    # -- middleware factories ----------------------------------------------

    def object_middleware(self) -> Callable:
        injector = self

        class _ObjectFaults:
            def __init__(self, app):
                self.app = app

            def __call__(self, request: Request) -> Response:
                injector._apply_object_fault(request)
                return self.app(request)

        return _ObjectFaults

    def proxy_middleware(self) -> Callable:
        injector = self

        class _ProxyFaults:
            def __init__(self, app):
                self.app = app

            def __call__(self, request: Request) -> Response:
                injector._apply_proxy_fault(request)
                return self.app(request)

        return _ProxyFaults

    def _consult(self, decision: Callable, *args, **kwargs):
        """Ask the plan; count and trace every fault the answer fired."""
        result, fired = self.plan.consult(decision, *args, **kwargs)
        if fired:
            cluster = self._cluster()
            for fault in fired:
                cluster.registry.inc("faults.injected", kind=fault.kind)
                cluster.tracer.record_event(
                    "faults", fault.kind, target=fault.target, detail=fault.detail
                )
        return result

    def storlet_hook(self) -> Callable[..., None]:
        def hook(storlet: str, node: str, tier: str, scope: str = "") -> None:
            reason = self._consult(
                self.plan.storlet_fault,
                storlet,
                node,
                scope=f"{storlet}@{node}|{scope}",
            )
            if reason is not None:
                raise StorletFailure(
                    f"injected sandbox failure ({reason}) running "
                    f"{storlet!r} on {node}",
                    storlet=storlet,
                    node=node,
                    reason=reason,
                )

        return hook

    # -- fault application ---------------------------------------------------

    def _apply_object_fault(self, request: Request) -> None:
        node = request.environ.get("swift.node", "object")
        fault = self._consult(
            self.plan.object_fault,
            node,
            request.method,
            scope=_request_scope(node, request),
        )
        if fault is None:
            return
        kind, value = fault
        if kind == "status":
            status = int(value)
            if status == 503:
                raise ServiceUnavailable(
                    f"injected fault: {node} unavailable"
                )
            if status == 504:
                raise RequestTimeout(f"injected fault: {node} timed out")
            raise _status_error(f"injected fault: {node} -> {status}", status)
        if kind == "stall":
            deadline = _request_deadline(request)
            if deadline is not None and value >= deadline:
                raise RequestTimeout(
                    f"injected stall of {value}s on {node} exceeded the "
                    f"{deadline}s request deadline"
                )
            # A stall under the deadline consumes real time: charge it
            # against the end-to-end deadline budget (so downstream
            # tiers see only what is left) and record it for the perf
            # model.  The guard above keeps the stall strictly below
            # the *remaining* deadline, so this charge cannot raise.
            request.charge_timeout(value, tier="object-stall")
            request.environ["swift.simulated_stall"] = (
                request.environ.get("swift.simulated_stall", 0.0) + value
            )

    def _apply_proxy_fault(self, request: Request) -> None:
        for loss in self._consult(self.plan.on_request):
            self._fire_device_loss(loss)
        status = self._consult(
            self.plan.proxy_fault,
            request.method,
            scope=_request_scope("proxy", request),
        )
        if status is not None:
            if status == 503:
                raise ServiceUnavailable("injected fault: proxy unavailable")
            raise _status_error(f"injected fault: proxy -> {status}", status)

    def _fire_device_loss(self, loss: DeviceLoss) -> None:
        cluster = self._cluster()
        device_ids = sorted(
            device_id
            for server in cluster.object_servers.values()
            for device_id in server.devices
        )
        if not device_ids:
            return
        device_id = device_ids[loss.device_index % len(device_ids)]
        if device_id in self._lost_devices:
            return
        self._lost_devices.add(device_id)
        cluster.fail_device(device_id)

    @property
    def lost_devices(self) -> List[int]:
        return sorted(self._lost_devices)


def install_fault_plan(
    cluster: SwiftCluster, plan: FaultPlan, engine=None
) -> FaultInjector:
    """Wire ``plan`` into ``cluster`` (and ``engine``'s sandboxes).

    The object middleware is appended innermost, so injected replica
    faults hit *after* the storlet middleware has routed the request --
    exactly where a real disk or service failure would strike.
    """
    injector = FaultInjector(plan, cluster)
    cluster.install_object_middleware(injector.object_middleware())
    cluster.install_proxy_middleware(injector.proxy_middleware())
    if engine is not None:
        engine.fault_hook = injector.storlet_hook()
    return injector


def _status_error(message: str, status: int) -> SwiftError:
    """A :class:`SwiftError` with ``status``, built outside the raising
    frame: an exception in a local of the frame it is raised from is a
    cycle (exception -> traceback -> frame -> exception) that would pin
    every frame below it, the store's among them."""
    error = SwiftError(message)
    error.status = status
    return error


def _request_scope(node: str, request: Request) -> str:
    """Name the logical request for scope-keyed fault decisions.

    Node + method + path + byte range uniquely identify a split's GET on
    one replica regardless of when (or on which thread) it is issued.
    """
    span = request.headers.get("x-storlet-range") or request.headers.get(
        "range", ""
    )
    return f"{node}|{request.method}|{request.path}|{span}"


def _request_deadline(request: Request) -> Optional[float]:
    raw = request.headers.get("x-request-timeout")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None
