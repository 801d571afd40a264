"""Proxy tier and cluster wiring for the Swift-like store.

Proxy servers "are in charge of authentication, authorization and access
control enforcement of storage requests.  Upon reception of a valid
request, a proxy server routes it to the corresponding object servers"
(paper Section III-B).  :class:`SwiftCluster` assembles the whole store:
the object ring over the storage machines' devices, per-machine object
servers each with their own middleware pipeline, the container/account
stores, and a set of proxies behind a round-robin "load balancer".
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.obs.metrics import get_registry
from repro.obs.trace import TRACE_HEADER, get_collector
from repro.qos.admission import (
    AdmissionController,
    AdmissionDecision,
    CircuitBreakerBoard,
    QosConfig,
)
from repro.qos.budget import STREAM_COST_ENV_KEY
from repro.swift.backend import (
    AccountStore,
    ContainerStore,
    ObjectServer,
)
from repro.swift.exceptions import (
    AuthError,
    BadRequest,
    NotFound,
    RequestTimeout,
    ServiceUnavailable,
)
from repro.swift.http import HeaderDict, Request, Response, parse_path
from repro.swift.middleware import (
    App,
    CatchErrors,
    DeadlineBudget,
    MiddlewareFactory,
    ServerSideCopy,
    build_pipeline,
)

#: Header naming the tenant a request bills against (set by the client
#: from ``SwiftClient(tenant=...)``); absent = the anonymous tenant.
TENANT_HEADER = "x-scoop-tenant"
from repro.swift.ring import Device, Ring, RingBuilder


class AuthMiddleware:
    """Trivial token auth: tokens are ``token-<account>``."""

    def __init__(self, app: App, enabled: bool = True):
        self.app = app
        self.enabled = enabled

    def __call__(self, request: Request) -> Response:
        if self.enabled:
            account, _container, _obj = parse_path(request.path)
            token = request.headers.get("x-auth-token")
            if token != f"token-{account}":
                raise AuthError(f"bad token for account {account!r}")
        return self.app(request)


class ProxyApp:
    """The innermost proxy application: routing and replication."""

    def __init__(self, cluster: "SwiftCluster"):
        # Weak: the cluster owns its proxies.  A strong back-pointer makes
        # every dropped store a reference cycle that pins all replicas of
        # all its objects until a full collection happens to run.
        self._cluster = weakref.ref(cluster)

    def __call__(self, request: Request) -> Response:
        account, container, obj = parse_path(request.path)
        if obj is not None:
            return self._object_request(request, account, container, obj)
        if container is not None:
            return self._container_request(request, account, container)
        return self._account_request(request, account)

    # -- object path -------------------------------------------------------

    def _object_request(
        self, request: Request, account: str, container: str, obj: str
    ) -> Response:
        cluster = self._cluster()
        if not cluster.containers.exists(account, container):
            raise NotFound(f"container not found: /{account}/{container}")
        part, devices = cluster.object_ring.get_nodes(account, container, obj)
        request.environ["swift.partition"] = part

        if request.method == "PUT":
            data = request.body_bytes()
            # One timestamp for all replicas, assigned at the proxy (as
            # in real Swift); otherwise replicas would differ and the
            # replicator would see phantom staleness.
            from repro.swift.backend import next_timestamp

            request.headers.setdefault(
                "x-timestamp", f"{next_timestamp():.9f}"
            )
            # Write to every reachable replica; a failed device does not
            # abort the PUT as long as at least one replica lands (the
            # replicator restores the others later).
            response: Optional[Response] = None
            stored = 0
            for device in devices:
                replica_request = request.copy()
                replica_request.body = data
                try:
                    response = cluster.send_to_device(device, replica_request)
                except (ServiceUnavailable, RequestTimeout) as error:
                    cluster.bump_counter("put_degraded")
                    if response is None:
                        response = Response(
                            error.status, body=str(error).encode("utf-8")
                        )
                    continue
                if not response.ok:
                    return response
                stored += 1
            assert response is not None
            if stored == 0:
                return response
            cluster.containers.add_object(
                account,
                container,
                obj,
                size=len(data),
                etag=response.headers.get("etag", ""),
                content_type=request.headers.get(
                    "content-type", "application/octet-stream"
                ),
            )
            return response

        if request.method in ("GET", "HEAD"):
            ordered = self._replica_order(request, devices)
            # Brownout: if the node that would run the storlet is over
            # its CPU watermark, demote the pushdown to a plain read
            # *before* any backend work happens.
            demotion = cluster.brownout_demotion(request, ordered[0].node)
            if demotion is not None:
                return demotion
            # Mid-request replica failover: a replica that is missing,
            # erroring or stalled past its deadline does not fail the
            # read -- the next replica in ring order is tried instead.
            last_error: Optional[Response] = None
            for device in ordered:
                try:
                    response = cluster.send_to_device(device, request.copy())
                except NotFound:
                    continue
                except (ServiceUnavailable, RequestTimeout) as error:
                    cluster.bump_counter("get_failovers")
                    last_error = Response(
                        error.status, body=str(error).encode("utf-8")
                    )
                    continue
                if response.ok or response.status in (206, 416):
                    return response
                cluster.bump_counter("get_failovers")
                last_error = response
            if last_error is not None:
                return last_error
            raise NotFound(f"object not found: {request.path}")

        if request.method == "DELETE":
            found = False
            for device in devices:
                try:
                    response = cluster.send_to_device(device, request.copy())
                    found = found or response.ok
                except NotFound:
                    continue
            if not found:
                raise NotFound(f"object not found: {request.path}")
            cluster.containers.remove_object(account, container, obj)
            return Response(204)

        if request.method == "POST":
            responses = []
            for device in devices:
                try:
                    responses.append(
                        cluster.send_to_device(device, request.copy())
                    )
                except NotFound:
                    continue
            if not responses:
                raise NotFound(f"object not found: {request.path}")
            return responses[0]

        raise BadRequest(f"unsupported object method: {request.method}")

    def _replica_order(
        self, request: Request, devices: Sequence[Device]
    ) -> List[Device]:
        """Primary replica first unless the request pins a replica index."""
        pinned = request.headers.get("x-backend-replica-index")
        ordered = list(devices)
        if pinned is not None:
            index = int(pinned) % len(ordered)
            ordered = ordered[index:] + ordered[:index]
        return ordered

    # -- container path ------------------------------------------------------

    def _container_request(
        self, request: Request, account: str, container: str
    ) -> Response:
        cluster = self._cluster()
        if request.method == "PUT":
            cluster.accounts.ensure(account)
            created = cluster.containers.create(
                account, container, request.headers
            )
            return Response(201 if created else 202)
        if request.method == "GET":
            records = cluster.containers.list_objects(
                account,
                container,
                prefix=request.params.get("prefix", ""),
                marker=request.params.get("marker", ""),
                limit=int(request.params.get("limit", 10000)),
            )
            listing = "\n".join(record.name for record in records)
            return Response(
                200,
                headers={"x-container-object-count": str(len(records))},
                body=listing.encode("utf-8"),
            )
        if request.method == "HEAD":
            record = cluster.containers.get(account, container)
            headers = HeaderDict(
                {"x-container-object-count": str(len(record.objects))}
            )
            headers.update(record.metadata)
            return Response(204, headers)
        if request.method == "POST":
            record = cluster.containers.get(account, container)
            for header, value in request.headers.items():
                if header.startswith("x-container-meta-"):
                    record.metadata[header] = value
            return Response(204)
        if request.method == "DELETE":
            cluster.containers.delete(account, container)
            return Response(204)
        raise BadRequest(f"unsupported container method: {request.method}")

    # -- account path -----------------------------------------------------------

    def _account_request(self, request: Request, account: str) -> Response:
        cluster = self._cluster()
        if request.method == "PUT":
            cluster.accounts.ensure(account)
            return Response(201)
        if request.method == "GET":
            if not cluster.accounts.exists(account):
                raise NotFound(f"account not found: /{account}")
            listing = "\n".join(cluster.containers.containers_for(account))
            return Response(200, body=listing.encode("utf-8"))
        if request.method == "HEAD":
            cluster.accounts.metadata(account)
            return Response(204)
        raise BadRequest(f"unsupported account method: {request.method}")


class ProxyServer:
    """One proxy machine: [CatchErrors, auth, copy, extras..., app]."""

    def __init__(
        self,
        name: str,
        app: App,
        middleware_factories: Sequence[MiddlewareFactory] = (),
        auth_enabled: bool = True,
    ):
        self.name = name
        factories: List[MiddlewareFactory] = [CatchErrors]
        factories.append(lambda inner: AuthMiddleware(inner, auth_enabled))
        factories.append(ServerSideCopy)
        factories.extend(middleware_factories)
        self.pipeline = build_pipeline(app, factories)

    def handle(self, request: Request) -> Response:
        request.environ["swift.proxy"] = self.name
        request.environ.setdefault("swift.execution_tier", "proxy")
        return self.pipeline(request)


class SwiftCluster:
    """The assembled object store.

    Parameters mirror the paper's testbed defaults at miniature scale:
    ``storage_node_count`` machines with ``disks_per_node`` ring devices
    each, 3-replica object ring, ``proxy_count`` proxies behind a
    round-robin dispatcher.
    """

    def __init__(
        self,
        storage_node_count: int = 4,
        disks_per_node: int = 2,
        proxy_count: int = 2,
        replica_count: int = 3,
        part_power: int = 8,
        auth_enabled: bool = False,
        proxy_middleware: Sequence[MiddlewareFactory] = (),
        object_middleware: Sequence[MiddlewareFactory] = (),
        proxy_concurrency: Optional[int] = 8,
        qos: Optional[QosConfig] = None,
        qos_clock: Optional[Callable[[], float]] = None,
    ):
        if storage_node_count < 1:
            raise ValueError("need at least one storage node")
        replica_count = min(replica_count, storage_node_count * disks_per_node)

        builder = RingBuilder(part_power=part_power, replica_count=replica_count)
        self.object_servers: Dict[str, ObjectServer] = {}
        for node_index in range(storage_node_count):
            node_name = f"storage{node_index}"
            device_ids = []
            for disk in range(disks_per_node):
                device = builder.add_device(
                    zone=node_index % max(1, storage_node_count // 2 or 1),
                    weight=1.0,
                    node=node_name,
                    disk=disk,
                )
                device_ids.append(device.id)
            self.object_servers[node_name] = ObjectServer(node_name, device_ids)
        builder.rebalance()
        self.ring_builder = builder
        self.object_ring: Ring = builder.get_ring()

        self.containers = ContainerStore()
        self.accounts = AccountStore()
        #: Devices administratively failed via :meth:`fail_device`:
        #: requests routed to them 503 (triggering replica failover) and
        #: the replicator neither reads from nor resurrects data on them.
        self.failed_devices: Set[int] = set()
        #: Resilience observability: how often the data path had to work
        #: around a fault.
        self.counters: Dict[str, int] = {
            "requests": 0,
            "get_failovers": 0,
            "put_degraded": 0,
            # Admission-control observability: requests that found their
            # proxy saturated and had to queue, and the highest number of
            # requests ever in flight on one proxy.  Timing-dependent by
            # nature -- useful for workload analysis, excluded from the
            # determinism assertions.
            "proxy_queue_waits": 0,
            "proxy_peak_inflight": 0,
            # QoS observability (docs/admission.md).  Quota sheds are
            # clock-driven and queue sheds timing-dependent, so these
            # live in ``qos_summary()``, never in the determinism-
            # asserted ``resilience_summary()``.
            "shed_quota": 0,
            "shed_queue": 0,
            "breaker_rejections": 0,
            "brownout_demotions": 0,
        }
        # Guards the counters dict and the proxy round-robin cursor.  A
        # leaf lock in the system hierarchy (docs/concurrency.md): held
        # for arithmetic only, never while handling a request.
        self._counter_lock = threading.Lock()
        #: Per-proxy cap on concurrently admitted requests (None = no
        #: cap).  Models the paper's over-subscribed proxies: requests
        #: beyond the cap wait in the load balancer's queue instead of
        #: being dispatched, so heavy traffic shows up as queueing, not
        #: as unbounded concurrency inside one proxy.
        self.proxy_concurrency = proxy_concurrency
        self._object_middleware = list(object_middleware)
        self._object_pipelines: Dict[str, App] = {
            name: build_pipeline(server, self._object_middleware)
            for name, server in self.object_servers.items()
        }

        self._proxy_app = ProxyApp(self)
        self._proxy_middleware = list(proxy_middleware)
        self._proxy_count = max(1, proxy_count)
        self._auth_enabled = auth_enabled

        #: QoS tier (docs/admission.md); inert unless configured.
        self.qos: Optional[QosConfig] = None
        self._admission_controller: Optional[AdmissionController] = None
        self._breakers: Optional[CircuitBreakerBoard] = None
        #: Per-node storlet CPU gauges feeding brownout decisions,
        #: installed by :meth:`install_brownout_gauge`.
        self._brownout_gauges: Dict[str, Callable[[], float]] = {}

        self._build_proxies()
        if qos is not None:
            self.install_qos(qos, clock=qos_clock)

    def _build_proxies(self) -> None:
        self.proxies: List[ProxyServer] = [
            ProxyServer(
                f"proxy{i}",
                self._proxy_app,
                middleware_factories=self._proxy_middleware,
                auth_enabled=self._auth_enabled,
            )
            for i in range(self._proxy_count)
        ]
        self._proxy_cycle = itertools.cycle(range(len(self.proxies)))
        limit = self.proxy_concurrency
        self._admission: List[Optional[threading.Semaphore]] = [
            threading.Semaphore(limit) if limit is not None else None
            for _ in self.proxies
        ]
        self._inflight: List[int] = [0 for _ in self.proxies]
        self._queue_depth: List[int] = [0 for _ in self.proxies]

    # -- request entry points ------------------------------------------------

    def handle_request(self, request: Request) -> Response:
        """Entry through the load balancer: round-robin over proxies.

        Admission control: at most :attr:`proxy_concurrency` requests
        are in flight per proxy; the rest wait here, modeling the
        over-subscription the paper measured instead of ignoring it.
        The slot covers the synchronous handle phase only -- response
        bodies stream lazily *after* release, so an abandoned stream
        (e.g. a satisfied LIMIT) can never leak a slot.
        """
        registry = get_registry()
        tracer = get_collector()
        with self._counter_lock:
            self.counters["requests"] += 1
            index = next(self._proxy_cycle)
        registry.inc("cluster.requests")
        qos = self.qos
        if qos is not None and qos.stream_seconds_per_mb > 0:
            request.environ.setdefault(
                STREAM_COST_ENV_KEY, qos.stream_seconds_per_mb
            )
        span = tracer.start(
            "proxy",
            f"{request.method} {request.path}",
            trace_id=request.headers.get(TRACE_HEADER, ""),
            proxy=f"proxy{index}",
        )
        # QoS quota admission: a shed request is rejected before it
        # competes for a proxy slot.
        controller = self._admission_controller
        if controller is not None:
            tenant = request.headers.get(TENANT_HEADER, "") or "anonymous"
            decision = controller.admit(
                tenant, self._payload_estimate(request)
            )
            if not decision.admitted:
                self.bump_counter("shed_quota")
                tracer.finish(
                    span,
                    status="shed",
                    http_status=decision.status,
                    tenant=decision.tenant,
                    shed_reason=decision.reason,
                )
                return self._shed_response(decision.status, decision)
        if not self._acquire_slot(index, span):
            # Typed 503 for a bounded queue that is already full.
            self.bump_counter("shed_queue")
            tracer.finish(
                span, status="shed", http_status=503, shed_reason="queue-full"
            )
            return self._shed_response(
                503,
                AdmissionDecision(
                    admitted=False,
                    tenant=request.headers.get(TENANT_HEADER, ""),
                    status=503,
                    retry_after=qos.queue_retry_after if qos is not None else 1.0,
                    reason="queue-full",
                ),
            )
        slot = self._admission[index]
        status = "error"
        http_status = 0
        try:
            with self._counter_lock:
                self._inflight[index] += 1
                if self._inflight[index] > self.counters["proxy_peak_inflight"]:
                    self.counters["proxy_peak_inflight"] = self._inflight[index]
                    registry.set_gauge(
                        "cluster.proxy_peak_inflight", self._inflight[index]
                    )
            response = self.proxies[index].handle(request)
            http_status = response.status
            status = "ok" if response.status < 400 else "error"
            return response
        finally:
            with self._counter_lock:
                self._inflight[index] -= 1
            if slot is not None:
                slot.release()
            tracer.finish(span, status=status, http_status=http_status)

    def _acquire_slot(self, index: int, span) -> bool:
        """Acquire an in-flight slot on proxy ``index``, queueing when
        the proxy is saturated.  Returns ``False`` (shed) when QoS
        bounds the queue and it is already full."""
        slot = self._admission[index]
        if slot is None or slot.acquire(blocking=False):
            return True
        depth_cap = (
            self.qos.max_queue_depth if self.qos is not None else None
        )
        if depth_cap is not None:
            with self._counter_lock:
                if self._queue_depth[index] >= depth_cap:
                    return False
                self._queue_depth[index] += 1
        with self._counter_lock:
            self.counters["proxy_queue_waits"] += 1
        get_registry().inc("cluster.proxy_queue_waits")
        wait_start = time.perf_counter()
        try:
            slot.acquire()
        finally:
            if depth_cap is not None:
                with self._counter_lock:
                    self._queue_depth[index] -= 1
        span.attributes["admission_wait"] = time.perf_counter() - wait_start
        return True

    @staticmethod
    def _payload_estimate(request: Request) -> int:
        """Bytes this request will push into the store (for byte quotas)."""
        if isinstance(request.body, bytes):
            return len(request.body)
        raw = request.headers.get("content-length")
        try:
            return int(raw) if raw is not None else 0
        except (TypeError, ValueError):
            return 0

    @staticmethod
    def _shed_response(status: int, decision: AdmissionDecision) -> Response:
        """A typed shed: 429 (over-quota) or 503 (queue-full), always
        carrying ``Retry-After`` so clients pace instead of hammering."""
        headers = HeaderDict(
            {
                "retry-after": f"{decision.retry_after:.3f}",
                "x-shed-reason": decision.reason,
            }
        )
        if decision.tenant:
            headers[TENANT_HEADER] = decision.tenant
        return Response(
            status,
            headers,
            body=f"shed: {decision.reason}".encode("utf-8"),
        )

    def bump_counter(self, name: str, amount: int = 1) -> None:
        """Atomically increment a resilience counter."""
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + amount
        get_registry().inc(f"cluster.{name}", amount)

    def send_to_device(self, device: Device, request: Request) -> Response:
        """Route a replica request into the owning node's object pipeline.

        With QoS configured, the node's circuit breaker is consulted
        first: an open breaker rejects without touching the backend (the
        caller's replica failover tries the next node), and the outcome
        of every admitted request feeds the breaker's state machine.
        Backend-health failures are 503/504 and 5xx responses; a 404 is
        a healthy node answering truthfully.
        """
        tracer = get_collector()
        span = tracer.start(
            "object",
            f"{request.method} {request.path}",
            trace_id=request.headers.get(TRACE_HEADER, ""),
            node=device.node,
            device=device.id,
        )
        breakers = self._breakers
        consulted = breakers is None or breakers.allow(device.node)
        try:
            if not consulted:
                self.bump_counter("breaker_rejections")
                raise ServiceUnavailable(
                    f"circuit breaker open for node {device.node}"
                )
            if device.id in self.failed_devices:
                raise ServiceUnavailable(
                    f"device {device.id} on {device.node} has failed"
                )
            pipeline = self._object_pipelines.get(device.node)
            if pipeline is None:
                raise ServiceUnavailable(
                    f"no object server for node {device.node!r}"
                )
            request.environ["swift.device"] = device.id
            request.environ["swift.node"] = device.node
            request.environ["swift.execution_tier"] = "object"
            response = pipeline(request)
        except BaseException as error:
            if breakers is not None and consulted:
                if isinstance(error, (ServiceUnavailable, RequestTimeout)):
                    breakers.record_failure(device.node)
                else:
                    # A typed 4xx (NotFound, bad range...) means the
                    # node is alive and answering; release the probe.
                    breakers.record_success(device.node)
            tracer.finish(
                span,
                status="error",
                error=type(error).__name__,
            )
            raise
        if breakers is not None and consulted:
            if response.status >= 500 or response.status == 429:
                breakers.record_failure(device.node)
            else:
                breakers.record_success(device.node)
        tracer.finish(
            span,
            status="ok" if response.status < 400 else "error",
            http_status=response.status,
        )
        return response

    # -- QoS tier (docs/admission.md) ---------------------------------------

    def install_qos(
        self,
        config: QosConfig,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Arm the QoS tier: tenant admission, bounded queues, breakers,
        deadline-budget overheads and brownout demotion.

        ``clock`` drives the token buckets (a
        :class:`~repro.qos.admission.VirtualClock` for deterministic
        tests/simulations; defaults to ``time.monotonic``).  Install
        once, after control-plane setup, so bootstrap traffic does not
        bill against tenant quotas.
        """
        if self.qos is not None:
            raise RuntimeError("QoS is already installed on this cluster")
        self.qos = config
        if config.admission_enabled:
            self._admission_controller = AdmissionController(
                quotas=config.tenants,
                default_quota=config.default_quota,
                clock=clock,
                retry_after_cap=config.retry_after_cap,
            )
        if config.breaker_failure_threshold is not None:
            self._breakers = CircuitBreakerBoard(
                failure_threshold=config.breaker_failure_threshold,
                cooldown_consults=config.breaker_cooldown_consults,
            )
        if config.proxy_overhead_seconds > 0:
            self.install_proxy_middleware(
                DeadlineBudget.factory("proxy", config.proxy_overhead_seconds)
            )
        if config.object_overhead_seconds > 0:
            self.install_object_middleware(
                DeadlineBudget.factory(
                    "object", config.object_overhead_seconds
                )
            )

    def install_brownout_gauge(
        self, node: str, gauge: Callable[[], float]
    ) -> None:
        """Register ``node``'s storlet CPU gauge (cumulative simulated
        seconds); read by :meth:`brownout_demotion` on every pushdown GET."""
        self._brownout_gauges[node] = gauge

    def brownout_demotion(
        self, request: Request, node: str
    ) -> Optional[Response]:
        """Demote a pushdown GET to a plain read when ``node`` is hot.

        Returns the demotion response (the same degradable
        ``x-storlet-failure`` 500 a crashed sandbox produces, so the
        client's existing fallback path re-reads the bytes plain and
        filters compute-side) or ``None`` to proceed normally.
        """
        qos = self.qos
        if qos is None or qos.brownout_cpu_watermark is None:
            return None
        if request.method != "GET":
            return None
        # Header names from the storlet invocation protocol
        # (StorletRequestHeaders); spelled out here so the storage tier
        # does not import the storlets engine.
        if not request.headers.get("x-run-storlet"):
            return None
        if request.headers.get("x-storlet-run-on", "object") != "object":
            return None
        if request.headers.get("x-storlet-bypass"):
            return None
        gauge = self._brownout_gauges.get(node)
        if gauge is None:
            return None
        cpu_seconds = gauge()
        if cpu_seconds < qos.brownout_cpu_watermark:
            return None
        self.bump_counter("brownout_demotions")
        tracer = get_collector()
        span = tracer.start(
            "qos",
            f"brownout {request.path}",
            trace_id=request.headers.get(TRACE_HEADER, ""),
            node=node,
        )
        tracer.finish(
            span,
            status="brownout",
            cpu_seconds=cpu_seconds,
            watermark=qos.brownout_cpu_watermark,
        )
        return Response(
            500,
            headers={
                "x-storlet-failure": "brownout",
                "x-storlet-failure-storlet": request.headers.get(
                    "x-run-storlet", ""
                ),
            },
            body=f"brownout: {node} over CPU watermark".encode("utf-8"),
        )

    def qos_summary(self) -> Dict[str, object]:
        """QoS observability: shed/breaker/brownout counters and the
        per-tenant admission ledgers.  Timing/clock-dependent -- kept
        out of the determinism-asserted ``resilience_summary()``."""
        with self._counter_lock:
            summary: Dict[str, object] = {
                "shed_quota": self.counters["shed_quota"],
                "shed_queue": self.counters["shed_queue"],
                "breaker_rejections": self.counters["breaker_rejections"],
                "brownout_demotions": self.counters["brownout_demotions"],
            }
        if self._admission_controller is not None:
            summary["tenants"] = self._admission_controller.summary()
        if self._breakers is not None:
            summary["breaker_states"] = self._breakers.states()
        return summary

    # -- administration ----------------------------------------------------------

    def refresh_ring(self) -> None:
        """Adopt the ring builder's current assignment (after add/remove
        device + rebalance); run the replicator afterwards to move data."""
        self.object_ring = self.ring_builder.get_ring()

    def add_storage_node(
        self, disks: int = 2, zone: Optional[int] = None
    ) -> str:
        """Provision a new object server with ``disks`` ring devices.

        The caller must rebalance + :meth:`refresh_ring` + replicate to
        actually move partitions onto it.
        """
        node_name = f"storage{len(self.object_servers)}"
        if zone is None:
            zone = len(self.object_servers)
        device_ids = []
        for disk in range(disks):
            device = self.ring_builder.add_device(
                zone=zone, weight=1.0, node=node_name, disk=disk
            )
            device_ids.append(device.id)
        server = ObjectServer(node_name, device_ids)
        self.object_servers[node_name] = server
        self._object_pipelines[node_name] = build_pipeline(
            server, self._object_middleware
        )
        return node_name

    def fail_device(self, device_id: int) -> None:
        """Simulate a disk loss: wipe the store, drop the device from the
        builder and mark it failed (rebalance + refresh + replicate to
        recover).  Until the ring is refreshed, requests routed to the
        dead device 503 and fail over to surviving replicas; the
        replicator will not resurrect data onto it."""
        for server in self.object_servers.values():
            if device_id in server.devices:
                server.devices[device_id].clear()
        self.ring_builder.remove_device(device_id)
        self.failed_devices.add(device_id)

    def install_object_middleware(self, factory: MiddlewareFactory) -> None:
        """Add a middleware to every object server's pipeline (innermost
        position closest to the disk)."""
        self._object_middleware.append(factory)
        self._object_pipelines = {
            name: build_pipeline(server, self._object_middleware)
            for name, server in self.object_servers.items()
        }

    def install_proxy_middleware(self, factory: MiddlewareFactory) -> None:
        """Add a middleware to every proxy's pipeline (after auth) and
        rebuild the proxy tier; used by the fault-injection framework."""
        self._proxy_middleware.append(factory)
        self._build_proxies()

    def total_object_count(self) -> int:
        return sum(server.object_count() for server in self.object_servers.values())
