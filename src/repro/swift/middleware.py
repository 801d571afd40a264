"""WSGI-style middleware pipeline for proxy and object servers.

Both Swift tiers "include a WSGI pipeline that enables developers to
configure middlewares that intercept object requests" (paper Section
III-B).  A middleware here is any callable factory ``factory(app) ->
app`` where an *app* is ``callable(Request) -> Response``.  The Storlets
engine installs its interception middleware on both tiers through this
mechanism, without the store knowing anything about pushdown filters.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.obs.trace import TRACE_HEADER
from repro.swift.exceptions import BadRequest, SwiftError
from repro.swift.http import TIMEOUT_HEADER, Request, Response, parse_path

App = Callable[[Request], Response]
MiddlewareFactory = Callable[[App], App]


class BaseMiddleware:
    """Convenience base: subclass and override :meth:`handle`."""

    def __init__(self, app: App):
        self.app = app

    def __call__(self, request: Request) -> Response:
        return self.handle(request)

    def handle(self, request: Request) -> Response:
        return self.app(request)


def build_pipeline(app: App, factories: Sequence[MiddlewareFactory]) -> App:
    """Wrap ``app`` with ``factories`` so the *first* factory listed is the
    *outermost* middleware (matching Swift's pipeline = ``mw1 mw2 app``)."""
    wrapped = app
    for factory in reversed(list(factories)):
        wrapped = factory(wrapped)
    return wrapped


class CatchErrors(BaseMiddleware):
    """Outermost guard translating errors to responses.

    :class:`SwiftError` keeps its status; anything else (e.g. a crashing
    storlet) becomes a 500, as in real Swift.
    """

    def handle(self, request: Request) -> Response:
        try:
            return self.app(request)
        except SwiftError as error:
            return self._translate(error)
        except Exception as error:  # noqa: BLE001 - boundary translation
            return Response(500, body=str(error).encode("utf-8"))

    @staticmethod
    def _translate(error: SwiftError) -> Response:
        # Errors may carry response headers (e.g. the RFC 7233
        # ``content-range: bytes */<size>`` on a 416, or storlet
        # failure markers); they must survive the translation.
        return Response(
            error.status,
            headers=error.headers,
            body=str(error).encode("utf-8"),
        )


class ServerSideCopy(BaseMiddleware):
    """Swift's server-side copy: ``PUT`` + ``X-Copy-From: container/object``.

    The proxy GETs the source (same account) and streams it in as the
    PUT's body, so no object body crosses the client link.  Sitting left
    of every middleware that acts on a PUT body, it lets a storlet PUT
    policy on the destination see the source as it would an upload.  An
    unreadable source is the response (404, or a faulted read's 503/504)
    and nothing is written.  Content type and user metadata come along
    unless the request sets its own; ``X-Fresh-Metadata: true`` leaves
    the user metadata behind.  The destination is stamped with where it
    came from (``x-object-meta-copied-from``) and the source's etag as
    read (``x-object-meta-copied-from-etag``), so a derived object can
    be told stale once its source is overwritten.
    """

    def handle(self, request: Request) -> Response:
        if request.method != "PUT" or "x-copy-from" not in request.headers:
            return self.app(request)
        source = request.headers.pop("x-copy-from")
        fresh = request.headers.pop("x-fresh-metadata", "").lower() == "true"
        account, _container, obj = parse_path(request.path)
        container, _sep, name = source.lstrip("/").partition("/")
        if obj is None or not container or not name:
            raise BadRequest(f"x-copy-from must name container/object: {source!r}")
        read = Request("GET", f"/{account}/{container}/{name}", environ=request.environ)
        for header in (TRACE_HEADER, TIMEOUT_HEADER):  # same trace, same deadline
            if header in request.headers:
                read.headers[header] = request.headers[header]
        found = self.app(read)
        if not found.ok:
            return found
        for header, value in found.headers.items():
            if header == "content-type" or (
                not fresh and header.startswith("x-object-meta-")
            ):
                request.headers.setdefault(header, value)
        request.headers["x-object-meta-copied-from"] = f"{container}/{name}"
        request.headers["x-object-meta-copied-from-etag"] = found.headers.get("etag", "")
        request.body = found.iter_body()
        response = self.app(request)
        response.headers["x-copied-from"] = f"{container}/{name}"
        return response


class DeadlineBudget(BaseMiddleware):
    """Charges a tier's fixed overhead against the deadline budget.

    Installed on both the proxy and object pipelines when QoS is
    configured (docs/admission.md): the middleware subtracts the tier's
    simulated per-request overhead from the remaining
    ``X-Request-Timeout`` *before* forwarding, so downstream tiers see
    only the budget that is actually left.  A request whose budget dies
    here raises :class:`~repro.swift.exceptions.RequestTimeout`, which
    :class:`CatchErrors` turns into the usual retryable 504.
    """

    def __init__(self, app: App, tier: str, overhead_seconds: float = 0.0):
        super().__init__(app)
        self.tier = tier
        self.overhead_seconds = overhead_seconds

    def handle(self, request: Request) -> Response:
        request.charge_timeout(self.overhead_seconds, self.tier)
        return self.app(request)

    @classmethod
    def factory(cls, tier: str, overhead_seconds: float) -> MiddlewareFactory:
        def make(app: App) -> App:
            return cls(app, tier, overhead_seconds)

        return make


__all__ = [
    "App",
    "MiddlewareFactory",
    "BaseMiddleware",
    "build_pipeline",
    "CatchErrors",
    "ServerSideCopy",
    "DeadlineBudget",
]
