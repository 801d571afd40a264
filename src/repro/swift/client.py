"""Client facade for the Swift-like store (python-swiftclient style)."""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.trace import TRACE_HEADER
from repro.swift.exceptions import (
    AuthError,
    BadRequest,
    Conflict,
    Forbidden,
    NotFound,
    RangeNotSatisfiable,
    RequestTimeout,
    ServiceUnavailable,
    SwiftError,
    TooManyRequests,
)
from repro.swift.http import (
    HeaderDict,
    Request,
    Response,
    close_body,
    collect_body,
)
from repro.swift.proxy import SwiftCluster
from repro.swift.retry import ClientStats, RetryPolicy

#: Non-2xx statuses mapped to typed exceptions so callers can catch the
#: condition (``except RangeNotSatisfiable``) instead of matching on
#: ``error.status``.
_STATUS_EXCEPTIONS = {
    400: BadRequest,
    401: AuthError,
    403: Forbidden,
    404: NotFound,
    409: Conflict,
    416: RangeNotSatisfiable,
    429: TooManyRequests,
    503: ServiceUnavailable,
    504: RequestTimeout,
}


class _PooledBody:
    """A streaming response body pinning one connection-pool slot.

    The slot is released exactly when the stream is exhausted or
    closed -- not when the last chunk happens to be garbage collected --
    so LIMIT early-exit under high concurrency returns slots promptly
    and deterministically.  ``close()`` is idempotent; ``__del__`` is a
    backstop for bodies that were never iterated at all (a bare
    generator's ``finally`` would not run in that case, which is why
    this is a wrapper object rather than a generator).
    """

    def __init__(self, chunks, release: Callable[[], None]):
        self._chunks = chunks
        self._release: Optional[Callable[[], None]] = release

    def __iter__(self):
        try:
            for chunk in self._chunks:
                yield chunk
        finally:
            self.close()

    def close(self) -> None:
        """Close the underlying stream and free the pool slot (once)."""
        release, self._release = self._release, None
        if release is not None:
            try:
                close_body(self._chunks)
            finally:
                release()

    def __del__(self):  # pragma: no cover - GC backstop only
        self.close()


class SwiftClient:
    """Convenience wrapper issuing requests for one account.

    All methods raise :class:`SwiftError` subclasses on non-2xx statuses
    unless noted, mirroring python-swiftclient's ClientException
    behaviour.

    Every request runs under ``retry_policy``: retryable statuses (503
    from a flaky server, 504 from a stalled replica) are retried with
    capped, deterministically-jittered exponential backoff, and a
    per-request deadline travels with the request as
    ``X-Request-Timeout``.  ``sleeper`` (e.g. ``time.sleep``) makes the
    backoff real; by default it is only recorded in :attr:`stats`.
    The client counts into and traces to its cluster's registry and
    collector; :attr:`stats` is a view of the first.

    The client is thread-safe: concurrent tasks share one instance.
    ``max_connections`` models a bounded HTTP connection pool -- at most
    that many requests are dispatched to the cluster at once, the rest
    wait for a slot (``stats.pool_waits`` counts them).  A slot is held
    until the response is done with it: materialized bodies release on
    return, streamed bodies exactly when the stream is exhausted or
    closed (:class:`_PooledBody`), with a GC backstop for streams that
    are never touched at all.
    """

    def __init__(
        self,
        cluster: SwiftCluster,
        account: str = "AUTH_test",
        retry_policy: Optional[RetryPolicy] = None,
        sleeper: Optional[Callable[[float], None]] = None,
        max_connections: Optional[int] = None,
        tenant: Optional[str] = None,
    ):
        self.cluster = cluster
        self.account = account
        self.tenant = tenant
        self.retry_policy = retry_policy or RetryPolicy()
        self._sleeper = sleeper
        self.registry, self.tracer = cluster.registry, cluster.tracer
        self.stats = ClientStats(self.registry)
        self._pool = (
            threading.Semaphore(max_connections)
            if max_connections is not None
            else None
        )
        self.max_connections = max_connections
        self.put_account()

    # -- raw access --------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]] = None,
        body: Union[bytes, Iterable[bytes], None] = None,
        params: Optional[Dict[str, str]] = None,
    ) -> Response:
        merged = HeaderDict(headers or {})
        merged.setdefault("x-auth-token", f"token-{self.account}")
        if self.tenant:
            merged.setdefault("x-scoop-tenant", self.tenant)
        if self.retry_policy.request_timeout is not None:
            merged.setdefault(
                "x-request-timeout", str(self.retry_policy.request_timeout)
            )
        # A retry must be able to resend the body; materialize iterators.
        if body is not None and not isinstance(body, bytes):
            body = collect_body(body)
        span = self.tracer.start(
            "client",
            f"{method} {path}",
            trace_id=merged.get(TRACE_HEADER, ""),
        )
        attempts = 0
        response: Optional[Response] = None
        try:
            for attempt in range(self.retry_policy.max_attempts):
                request = Request(method, path, merged.copy(), body, params)
                response = self._dispatch(request)
                attempts = attempt + 1
                delay = self._after_attempt(method, attempt, response)
                if delay is None:
                    break
                if self._sleeper is not None:
                    self._sleeper(delay)
            assert response is not None  # max_attempts >= 1
            return response
        finally:
            status = response.status if response is not None else 0
            self.tracer.finish(
                span,
                status="ok" if 0 < status < 400 else "error",
                attempts=attempts,
                http_status=status,
            )

    def _after_attempt(
        self, method: str, attempt: int, response: Response
    ) -> Optional[float]:
        """Account for one attempt and classify its response.

        Returns ``None`` when ``response`` is final (not retryable, or
        the attempts are exhausted), otherwise the seconds to back off
        before the next attempt -- the abandoned response is closed and
        the retry counted here.
        """
        policy, registry = self.retry_policy, self.registry
        registry.inc("client.requests", method=method)
        if not policy.retryable(response.status):
            return None
        if attempt + 1 >= policy.max_attempts:
            registry.inc("client.exhausted")
            return None
        # A retryable response is about to be abandoned; if it carried
        # a streamed body, free its pool slot before the next attempt
        # competes for one.
        close_body(response.body)
        # The server knows when the shed condition clears (token-bucket
        # refill, queue drain); its Retry-After wins over the computed
        # backoff, clamped to the cap.
        pacing = policy.server_pacing(response.headers.get("retry-after"))
        delay = pacing if pacing is not None else policy.delay(attempt)
        self.stats.delays.append(delay)
        if pacing is not None:
            registry.inc("client.retry_after_honored")
        registry.inc("client.retries")
        registry.inc("client.backoff_seconds", delay)
        return delay

    def _dispatch(self, request: Request) -> Response:
        """Send one attempt through the bounded connection pool.

        The slot covers the whole exchange: for materialized bodies it
        is released as soon as the handle phase returns, while a
        streamed body keeps its slot until the stream is exhausted or
        closed (see :class:`_PooledBody`) -- exactly how a pooled HTTP
        connection stays busy until its response is drained.
        """
        if self._pool is None:
            return self.cluster.handle_request(request)
        if not self._pool.acquire(blocking=False):
            self.registry.inc("client.pool_waits")
            self._pool.acquire()
        try:
            response = self.cluster.handle_request(request)
        except BaseException:
            self._pool.release()
            raise
        if response.body is None or isinstance(response.body, (bytes, str)):
            self._pool.release()
            return response
        response.body = _PooledBody(response.body, self._pool.release)
        return response

    def _checked(self, response: Response, allowed=(200, 201, 202, 204, 206)):
        if response.status not in allowed:
            error_cls = _STATUS_EXCEPTIONS.get(response.status, SwiftError)
            error = error_cls(
                f"{response.status} {response.reason}: "
                f"{response.read()[:200]!r}"
            )
            error.status = response.status
            # Response headers carry failure context (e.g. which storlet
            # crashed) that callers use for graceful degradation.
            error.headers = response.headers
            raise error
        return response

    def _path(self, container: str = "", obj: str = "") -> str:
        path = f"/{self.account}"
        if container:
            path += f"/{container}"
        if obj:
            path += f"/{obj}"
        return path

    # -- account -------------------------------------------------------------

    def put_account(self) -> None:
        self._checked(self.request("PUT", self._path()))

    def list_containers(self) -> List[str]:
        response = self._checked(self.request("GET", self._path()))
        text = response.read().decode("utf-8")
        return text.split("\n") if text else []

    # -- containers -------------------------------------------------------------

    def put_container(
        self, container: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._checked(self.request("PUT", self._path(container), headers))

    def delete_container(self, container: str) -> None:
        self._checked(self.request("DELETE", self._path(container)))

    def list_objects(
        self,
        container: str,
        prefix: str = "",
        marker: str = "",
        limit: int = 10000,
    ) -> List[str]:
        response = self._checked(
            self.request(
                "GET",
                self._path(container),
                params={
                    "prefix": prefix,
                    "marker": marker,
                    "limit": str(limit),
                },
            )
        )
        text = response.read().decode("utf-8")
        return text.split("\n") if text else []

    def head_container(self, container: str) -> HeaderDict:
        response = self._checked(self.request("HEAD", self._path(container)))
        return response.headers

    # -- objects ---------------------------------------------------------------

    def put_object(
        self,
        container: str,
        obj: str,
        data: Union[bytes, str, Iterable[bytes]],
        headers: Optional[Dict[str, str]] = None,
        content_type: Optional[str] = "application/octet-stream",
    ) -> str:
        """Store an object; returns its etag."""
        merged = HeaderDict(headers or {})
        if content_type is not None:
            merged.setdefault("content-type", content_type)
        # Uploads enter the system here (the connector only mints trace
        # ids for the GET path), so give each PUT its own trace id; the
        # proxy, ETL storlet sandbox and object tiers all read it from
        # the header and attach their spans to the same request.
        tracer = self.tracer
        if tracer.enabled and not merged.get(TRACE_HEADER):
            merged[TRACE_HEADER] = tracer.new_trace_id()
        if isinstance(data, str):
            data = data.encode("utf-8")
        response = self._checked(
            self.request("PUT", self._path(container, obj), merged, data)
        )
        return response.headers.get("etag", "")

    def copy_object(
        self,
        source_container: str,
        source_obj: str,
        container: str,
        obj: str,
        headers: Optional[Dict[str, str]] = None,
        fresh_metadata: bool = False,
    ) -> str:
        """Server-side copy within the account (one request, no object
        body on the link; the destination's PUT policies apply); returns
        the new etag.  ``fresh_metadata`` drops the source's user metadata."""
        merged = HeaderDict(headers or {})
        merged["x-copy-from"] = f"{source_container}/{source_obj}"
        if fresh_metadata:
            merged["x-fresh-metadata"] = "true"
        # No content type of its own: the source's, unless ``headers`` has one.
        return self.put_object(container, obj, b"", merged, content_type=None)

    @staticmethod
    def _range_headers(
        headers: Optional[Dict[str, str]],
        byte_range: Optional[Tuple[int, int]],
    ) -> HeaderDict:
        merged = HeaderDict(headers or {})
        if byte_range is not None:
            start, end = byte_range
            merged["range"] = f"bytes={start}-{end}"
        return merged

    def get_object(
        self,
        container: str,
        obj: str,
        headers: Optional[Dict[str, str]] = None,
        byte_range: Optional[Tuple[int, int]] = None,
    ) -> Tuple[HeaderDict, bytes]:
        """Fetch an object (optionally a byte range); returns headers+body."""
        response = self._checked(
            self.request(
                "GET",
                self._path(container, obj),
                self._range_headers(headers, byte_range),
            )
        )
        return response.headers, response.read()

    def get_object_stream(
        self,
        container: str,
        obj: str,
        headers: Optional[Dict[str, str]] = None,
        byte_range: Optional[Tuple[int, int]] = None,
    ) -> Response:
        """Fetch an object (optionally a byte range) without
        materializing its body; ``response.iter_body()`` streams it."""
        return self._checked(
            self.request(
                "GET",
                self._path(container, obj),
                self._range_headers(headers, byte_range),
            )
        )

    def head_object(self, container: str, obj: str) -> HeaderDict:
        response = self._checked(
            self.request("HEAD", self._path(container, obj))
        )
        return response.headers

    def delete_object(self, container: str, obj: str) -> None:
        self._checked(self.request("DELETE", self._path(container, obj)))

    def post_object(
        self, container: str, obj: str, metadata: Dict[str, str]
    ) -> None:
        headers = {
            f"x-object-meta-{key}": value for key, value in metadata.items()
        }
        self._checked(
            self.request("POST", self._path(container, obj), headers)
        )
