"""Storlet deployment, policies and request interception.

The engine plays the role of the Storlets framework that the paper
extended: it keeps the registry of deployed storlets, owns one sandbox
per machine, and provides the WSGI middleware that intercepts object
requests on either tier.  The middleware implements the paper's three
extensions -- pipelining, staging (proxy vs object node) and byte-range
execution: a storlet runs over exactly the bytes ``X-Storlet-Range``
names.  The connector plans every range to hold whole records (or whole
stripes), so the storlet frames what it is handed and reads no further.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletFailure,
    StorletInputStream,
)
from repro.obs import Telemetry
from repro.obs.trace import TRACE_HEADER
from repro.qos.budget import budgeted_chunks
from repro.storlets.sandbox import CostModel, Sandbox
from repro.swift.http import Request, Response, chunk_bytes, parse_path
from repro.swift.middleware import App


class StorletRequestHeaders:
    """Header names of the storlet invocation protocol."""

    RUN = "x-run-storlet"
    RUN_ON = "x-storlet-run-on"
    PARAMETER_PREFIX = "x-storlet-parameter-"
    RANGE = "x-storlet-range"
    INVOKED = "x-storlet-invoked"
    BYPASS = "x-storlet-bypass"
    #: Response headers set when an invocation fails at runtime; clients
    #: use them to tell a degradable sandbox failure (crash, budget,
    #: deadline) from a loud configuration error (no header at all).
    FAILURE = "x-storlet-failure"
    FAILURE_STORLET = "x-storlet-failure-storlet"

    @staticmethod
    def parameters_from(headers) -> Dict[str, str]:
        """Extract storlet parameters from header names.

        Header names fold underscores to dashes on the wire
        (:class:`~repro.swift.http.HeaderDict` normalizes both), so
        parameter names are restored to their canonical underscore
        spelling here.  Parameter names must therefore use underscores,
        never dashes -- ``has_header`` round-trips, a hypothetical
        ``has-header`` would be read back as ``has_header``.
        """
        prefix = StorletRequestHeaders.PARAMETER_PREFIX
        return {
            key[len(prefix) :].replace("-", "_"): value
            for key, value in headers.items()
            if key.startswith(prefix)
        }

    @staticmethod
    def set_parameters(headers, parameters: Dict[str, str]) -> None:
        for key, value in parameters.items():
            headers[StorletRequestHeaders.PARAMETER_PREFIX + key] = value


@dataclass
class StorletPolicy:
    """Automatic enforcement of a storlet on a container's requests.

    Scoop "offers simple means for deploying and enforcing pushdown
    filters on a particular tenant or container via policies" (Section
    V-A).  A policy triggers the storlet on every matching request even
    when the client did not ask for it (the ETL-on-upload use case).
    """

    storlet: str
    method: str = "PUT"
    parameters: Dict[str, str] = field(default_factory=dict)
    enabled: bool = True


class StorletEngine:
    """Deployed storlets + sandboxes + policies.  Every sandbox counts
    into ``telemetry`` (private if not given)."""

    STORLET_CONTAINER = "storlet"

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        max_output_bytes: Optional[int] = None,
        max_cpu_seconds: Optional[float] = None,
        max_wall_seconds: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.telemetry = telemetry or Telemetry.standalone()
        self._deployed: Dict[str, IStorlet] = {}
        self._sandboxes: Dict[str, Sandbox] = {}
        self._policies: Dict[Tuple[str, str], List[StorletPolicy]] = {}
        self._cost_model = cost_model or CostModel()
        self._max_output_bytes = max_output_bytes
        self._max_cpu_seconds = max_cpu_seconds
        self._max_wall_seconds = max_wall_seconds
        #: Fault-injection hook ``(storlet, node, tier, scope) -> None``
        #: pushed into every sandbox; may raise StorletFailure (chaos
        #: testing).  ``scope`` names the logical request so seeded
        #: decisions replay under concurrency.
        self.fault_hook = None
        # Guards lazy sandbox creation when tasks race to warm a node.
        self._lock = threading.Lock()

    # -- deployment ----------------------------------------------------------

    def deploy(self, storlet: IStorlet, client=None) -> None:
        """Register a storlet; if a Swift client is given, also store its
        descriptor as a regular object (the Storlets deployment model)."""
        self._deployed[storlet.name] = storlet
        if client is not None:
            client.put_container(self.STORLET_CONTAINER)
            client.put_object(
                self.STORLET_CONTAINER,
                storlet.name,
                json.dumps(storlet.describe()).encode("utf-8"),
                content_type="application/json",
            )

    def undeploy(self, name: str) -> None:
        self._deployed.pop(name, None)

    def get(self, name: str) -> IStorlet:
        storlet = self._deployed.get(name)
        if storlet is None:
            raise StorletException(f"storlet not deployed: {name!r}")
        return storlet

    def deployed(self) -> List[str]:
        return sorted(self._deployed)

    # -- sandboxes ------------------------------------------------------------

    def sandbox_for(self, node: str) -> Sandbox:
        with self._lock:
            sandbox = self._sandboxes.get(node)
            if sandbox is None:
                sandbox = Sandbox(
                    node,
                    self._cost_model,
                    max_output_bytes=self._max_output_bytes,
                    max_cpu_seconds=self._max_cpu_seconds,
                    max_wall_seconds=self._max_wall_seconds,
                    telemetry=self.telemetry,
                )
                self._sandboxes[node] = sandbox
        # Re-applied on every lookup so a hook installed after sandboxes
        # were warmed (or uninstalled mid-run) still takes effect.
        sandbox.fault_hook = self.fault_hook
        return sandbox

    def all_sandboxes(self) -> Dict[str, Sandbox]:
        with self._lock:
            return dict(self._sandboxes)

    def total_bytes(self) -> Tuple[int, int]:
        bytes_in = sum(s.stats.bytes_in for s in self._sandboxes.values())
        bytes_out = sum(s.stats.bytes_out for s in self._sandboxes.values())
        return bytes_in, bytes_out

    # -- policies ----------------------------------------------------------------

    def set_policy(
        self, account: str, container: str, policy: StorletPolicy
    ) -> None:
        self._policies.setdefault((account, container), []).append(policy)

    def clear_policies(self, account: str, container: str) -> None:
        self._policies.pop((account, container), None)

    def policies_for(
        self, account: str, container: str, method: str
    ) -> List[StorletPolicy]:
        return [
            policy
            for policy in self._policies.get((account, container), [])
            if policy.enabled and policy.method == method
        ]

    # -- middleware factories --------------------------------------------------------

    def proxy_middleware(self):
        def factory(app: App) -> App:
            return StorletMiddleware(app, self, tier="proxy")

        return factory

    def object_middleware(self):
        def factory(app: App) -> App:
            return StorletMiddleware(app, self, tier="object")

        return factory


class StorletMiddleware:
    """Intercepts requests and runs the storlet pipeline on data streams.

    Staging: a GET pipeline runs on the tier named by ``X-Storlet-Run-On``
    (default ``object`` -- the paper's preferred stage, avoiding full-
    object transfers to proxies).  PUT pipelines always run at the proxy,
    *before* replication fan-out, so ETL transformations are applied once.
    """

    def __init__(self, app: App, engine: StorletEngine, tier: str):
        if tier not in ("proxy", "object"):
            raise ValueError(f"tier must be proxy|object: {tier!r}")
        self.app = app
        self.engine = engine
        self.tier = tier

    def __call__(self, request: Request) -> Response:
        if request.headers.get(StorletRequestHeaders.BYPASS):
            return self.app(request)
        names, run_on, parameters = self._invocation_for(request)
        if not names:
            return self.app(request)

        if request.method == "PUT":
            if self.tier != "proxy":
                return self.app(request)
            return self._run_put(request, names, parameters)

        if request.method == "GET":
            if run_on != self.tier:
                return self.app(request)
            return self._run_get(request, names, parameters)

        return self.app(request)

    # -- invocation resolution ---------------------------------------------------

    def _invocation_for(
        self, request: Request
    ) -> Tuple[List[str], str, Dict[str, str]]:
        header = request.headers.get(StorletRequestHeaders.RUN, "")
        names = [name.strip() for name in header.split(",") if name.strip()]
        parameters = StorletRequestHeaders.parameters_from(request.headers)
        run_on = request.headers.get(StorletRequestHeaders.RUN_ON, "object")

        # Container policies add their storlets (PUT-path ETL enforcement).
        try:
            account, container, obj = parse_path(request.path)
        except Exception:
            return names, run_on, parameters
        if obj is not None and container != StorletEngine.STORLET_CONTAINER:
            for policy in self.engine.policies_for(
                account, container, request.method
            ):
                if policy.storlet not in names:
                    names.append(policy.storlet)
                for key, value in policy.parameters.items():
                    parameters.setdefault(key, value)
        return names, run_on, parameters

    # -- PUT path ----------------------------------------------------------------

    def _run_put(
        self, request: Request, names: List[str], parameters: Dict[str, str]
    ) -> Response:
        node = request.environ.get("swift.proxy", "proxy")
        body = request.body
        if body is None:
            chunks: Iterator[bytes] = iter(())
        elif isinstance(body, (bytes, str)):
            data = body.encode("utf-8") if isinstance(body, str) else body
            chunks = chunk_bytes(data)
        else:
            chunks = iter(body)
        # Chain every stage as a stream transformer: each uploaded chunk
        # flows through the whole pipeline before the next is read.
        invocations = []
        for name in names:
            storlet = self.engine.get(name)
            sandbox = self.engine.sandbox_for(node)
            invocation = sandbox.run_streaming(
                storlet,
                StorletInputStream(chunks),
                parameters,
                tier=self.tier,
                scope=f"PUT|{request.path}",
                trace_id=request.headers.get(TRACE_HEADER, ""),
            )
            invocations.append(invocation)
            chunks = invocation.chunks()
        # Storage needs the complete object (and its final headers), so
        # the PUT path is where the pipeline ends and materializes.
        request.body = b"".join(chunks)
        # Metadata the storlets emit (e.g. cleansing statistics) is final
        # after the drain and persists as user metadata on the object.
        for invocation in invocations:
            for key, value in invocation.metadata.items():
                if key.startswith("x-object-meta-"):
                    request.headers[key] = value
        response = self.app(request)
        response.headers[StorletRequestHeaders.INVOKED] = ",".join(names)
        return response

    # -- GET path -----------------------------------------------------------------

    def _run_get(
        self, request: Request, names: List[str], parameters: Dict[str, str]
    ) -> Response:
        parameters = dict(parameters)
        storlet_range = request.headers.get(StorletRequestHeaders.RANGE)
        # Logical-request identity for scope-keyed fault decisions: path
        # plus the *requested* byte range (stable across retries and
        # thread interleavings, unlike arrival order).
        scope = (
            f"GET|{request.path}|"
            f"{storlet_range or request.headers.get('range', '')}"
        )
        if storlet_range is not None:
            start, end = _parse_byte_range(storlet_range)
            # The storlet range is the read: a request without a Range
            # gets it as its Range, and one asking for other bytes is
            # refused.  The storlet is told where its bytes start (a
            # header sits at offset 0; RCF1 segment offsets are absolute).
            physical = request.headers.get("range")
            if physical is None:
                request = request.copy()
                request.headers["range"] = f"bytes={start}-{end}"
            elif physical.strip() != f"bytes={start}-{end}":
                return Response(
                    400,
                    body=f"range {physical!r} is not storlet range "
                    f"{storlet_range!r}".encode("utf-8"),
                )
            parameters["range_start"] = str(start)

        response = self.app(request)
        if not response.ok:
            return response

        node = (
            request.environ.get("swift.node", "object")
            if self.tier == "object"
            else request.environ.get("swift.proxy", "proxy")
        )
        metadata = {
            key: value
            for key, value in response.headers.items()
            if key.startswith("x-object-meta-")
        }
        # One pipelined generator per request: every stage is a stream
        # transformer over the previous stage's chunk iterator, so each
        # stored chunk flows through the whole pipeline before the next
        # one is read off the disk (paper Section V: pipelining).
        chunks = response.iter_body()
        invocation = None
        try:
            for name in names:
                storlet = self.engine.get(name)
                sandbox = self.engine.sandbox_for(node)
                invocation = sandbox.run_streaming(
                    storlet,
                    StorletInputStream(chunks, metadata),
                    parameters,
                    tier=self.tier,
                    scope=scope,
                    trace_id=request.headers.get(TRACE_HEADER, ""),
                )
                chunks = invocation.chunks()
            # Prime the pipeline: pulling the first output chunk drives
            # every stage's invocation start (and the injected fault
            # hooks), so failures that fire before data flows still turn
            # into a 500 here rather than exploding mid-stream in some
            # consumer above the proxy.
            output_iter = iter(chunks)
            try:
                first = next(output_iter)
            except StopIteration:
                first = None
        except StorletFailure as failure:
            # Runtime sandbox failures (crash, budget, deadline,
            # injected) are *degradable*: signal them in a response
            # header so the client can retry the same bytes as a plain
            # GET.  Configuration errors (storlet not deployed) raise
            # plain StorletException and stay loud -- no header.
            return Response(
                500,
                headers={
                    StorletRequestHeaders.FAILURE: failure.reason,
                    StorletRequestHeaders.FAILURE_STORLET: (
                        failure.storlet or name
                    ),
                },
                body=str(failure).encode("utf-8"),
            )

        assert invocation is not None
        headers = response.headers.copy()
        headers.pop("content-length", None)
        headers.pop("content-range", None)
        headers[StorletRequestHeaders.INVOKED] = ",".join(names)
        last = invocation
        filtered = Response(200, headers, None)

        def body() -> Iterator[bytes]:
            if first is not None:
                yield first
            yield from output_iter
            # The stream is drained: the last stage's emitted metadata
            # (e.g. row counts) is final now.  The response headers
            # travel by reference up through proxy and client, so
            # callers that read the body before the headers (as
            # ``get_object`` does) observe the settled values.
            for key, value in last.metadata.items():
                filtered.headers[key] = value

        # The filtered stream is itself budgeted: exhausting the deadline
        # mid-pipeline cancels at the next chunk boundary, unwinding the
        # whole storlet generator stack (docs/admission.md).
        filtered.body = budgeted_chunks(body(), request, "storlet")
        return filtered


def _parse_byte_range(text: str) -> Tuple[int, int]:
    """Parse ``bytes=a-b`` (both bounds required for storlet ranges)."""
    cleaned = text.strip()
    if not cleaned.startswith("bytes="):
        raise StorletException(f"malformed storlet range: {text!r}")
    start_text, _sep, end_text = cleaned[len("bytes=") :].partition("-")
    if not start_text or not end_text:
        raise StorletException(
            f"storlet range needs both bounds: {text!r}"
        )
    return int(start_text), int(end_text)
