"""Minimal HTTP request/response model (the WSGI-ish substrate).

Swift's proxy and object servers are WSGI applications; middlewares
"wrap" storage requests and responses (paper Section V-A).  We model the
same shape: a :class:`Request` flows down a middleware pipeline, the
innermost app returns a :class:`Response`, and middlewares may rewrite
either -- including wrapping the response body iterator, which is exactly
how pushdown filters transform an object's data stream without the store
noticing.
"""

from __future__ import annotations

import re
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    Union,
)

from repro.swift.exceptions import BadRequest, RequestTimeout, STATUS_REASONS

Body = Union[bytes, Iterable[bytes], None]

DEFAULT_CHUNK_SIZE = 64 * 1024

#: Header carrying the remaining deadline budget (simulated seconds).
TIMEOUT_HEADER = "x-request-timeout"


class HeaderDict(dict):
    """A case-insensitive string-valued header mapping.

    Keys are normalized to lowercase with underscores folded to dashes,
    so ``x_request_timeout`` (the only way to spell the name as a
    keyword argument) and ``X-Request-Timeout`` address the same slot no
    matter which constructor path -- ``items`` or ``**kwargs`` --
    supplied them.  Header names therefore cannot carry a literal
    underscore on the wire; protocols that tunnel identifiers through
    header names (storlet parameters) restore underscores on extraction.
    """

    def __init__(self, items: Optional[Dict[str, Any]] = None, **kwargs: Any):
        super().__init__()
        self.update(items, **kwargs)

    @staticmethod
    def _norm(key: str) -> str:
        return key.lower().replace("_", "-")

    def __setitem__(self, key: str, value: Any) -> None:
        super().__setitem__(self._norm(key), str(value))

    def __getitem__(self, key: str) -> str:
        return super().__getitem__(self._norm(key))

    def __delitem__(self, key: str) -> None:
        super().__delitem__(self._norm(key))

    def __contains__(self, key: object) -> bool:
        return super().__contains__(self._norm(str(key)))

    def get(self, key: str, default: Any = None) -> Any:
        return super().get(self._norm(key), default)

    def pop(self, key: str, *default: Any) -> Any:
        return super().pop(self._norm(key), *default)

    def setdefault(self, key: str, default: Any = None) -> Any:
        return super().setdefault(self._norm(key), str(default))

    def update(self, other=None, **kwargs) -> None:  # type: ignore[override]
        if isinstance(other, HeaderDict):
            # Already normal, key and value: no second pass over them.
            super().update(other)
        elif other:
            items = other.items() if hasattr(other, "items") else other
            for key, value in items:
                self[key] = value
        for key, value in kwargs.items():
            self[key] = value

    def copy(self) -> "HeaderDict":
        return HeaderDict(self)


def parse_path(path: str) -> Tuple[str, Optional[str], Optional[str]]:
    """Split ``/account[/container[/object]]`` into its components.

    Object names may themselves contain ``/`` (pseudo-directories).
    """
    if not path.startswith("/"):
        raise BadRequest(f"path must start with '/': {path!r}")
    parts = path[1:].split("/", 2)
    if not parts[0]:
        raise BadRequest(f"empty account in path: {path!r}")
    account = parts[0]
    container = parts[1] if len(parts) > 1 and parts[1] else None
    obj = parts[2] if len(parts) > 2 and parts[2] else None
    if obj is not None and container is None:
        raise BadRequest(f"object without container: {path!r}")
    return account, container, obj


_RANGE_RE = re.compile(r"^bytes=(\d*)-(\d*)$")


def parse_range(header: str, size: int) -> Optional[Tuple[int, int]]:
    """Resolve a ``bytes=start-end`` header to inclusive offsets.

    Supports ``bytes=a-b``, ``bytes=a-`` and suffix ranges ``bytes=-n``.
    Semantics pinned to RFC 7233 (tests/test_swift_http.py):

    * Malformed headers raise :class:`BadRequest`.
    * ``end < start`` (both present) is a *syntactically invalid*
      byte-range-spec: per RFC 7233 §2.1 the recipient MUST ignore it,
      so ``None`` is returned and the caller serves the full object
      with a 200.
    * A suffix range longer than the object resolves to the whole
      object (RFC 7233 §2.1).
    * ``bytes=-0`` is deliberately unsatisfiable (no bytes can match a
      zero-length suffix): the returned offsets place ``start`` past
      the object so the backend answers 416.
    * Against a zero-byte object every range is unsatisfiable (there is
      no byte to serve): 416 falls out of the same ``start >= size``
      check.

    Callers map unsatisfiable (but well-formed) ranges to 416 carrying
    ``content-range: bytes */<size>``.
    """
    match = _RANGE_RE.match(header.strip())
    if not match:
        raise BadRequest(f"malformed Range header: {header!r}")
    start_text, end_text = match.groups()
    if not start_text and not end_text:
        raise BadRequest(f"empty Range header: {header!r}")
    if not start_text:
        # Suffix range: last n bytes.
        length = int(end_text)
        if length == 0:
            return size, size - 1  # deliberately unsatisfiable
        return max(0, size - length), size - 1
    start = int(start_text)
    if end_text and int(end_text) < start:
        # Syntactically invalid byte-range-spec: ignore the header
        # entirely (RFC 7233) -- NOT a 416.
        return None
    end = int(end_text) if end_text else size - 1
    end = min(end, size - 1)
    return start, end


class Request:
    """An object-store request travelling down a middleware pipeline."""

    def __init__(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, Any]] = None,
        body: Body = None,
        params: Optional[Dict[str, str]] = None,
        environ: Optional[Dict[str, Any]] = None,
    ):
        self.method = method.upper()
        self.path = path
        self.headers = HeaderDict(headers or {})
        self.body = body
        self.params = dict(params or {})
        # Out-of-band context shared along the pipeline (like WSGI environ):
        # the storlet middleware uses it to learn which node it runs on.
        self.environ: Dict[str, Any] = dict(environ or {})

    def remaining_timeout(self) -> Optional[float]:
        """Remaining deadline budget, or ``None`` for unbudgeted
        requests (no ``X-Request-Timeout`` header)."""
        raw = self.headers.get(TIMEOUT_HEADER)
        if raw is None:
            return None
        try:
            return float(raw)
        except (TypeError, ValueError):
            return None

    def charge_timeout(self, seconds: float, tier: str = "unknown") -> Optional[float]:
        """Charge ``seconds`` of simulated elapsed time against the
        deadline budget, rewriting the header so downstream tiers see
        only what is left (the budget is end-to-end, not per-tier).

        Returns the new remaining budget (``None`` when the request
        carries no deadline) and raises :class:`RequestTimeout` the
        moment the budget reaches zero.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds!r}")
        remaining = self.remaining_timeout()
        if remaining is None:
            return None
        remaining -= seconds
        self.headers[TIMEOUT_HEADER] = f"{remaining:.6f}"
        if remaining <= 0:
            raise RequestTimeout(
                f"deadline budget exhausted at the {tier} tier"
            )
        return remaining

    def body_bytes(self) -> bytes:
        """Materialize the request body (consumes an iterator body)."""
        data = collect_body(self.body)
        self.body = data
        return data

    def copy(self) -> "Request":
        if self.body is not None and not isinstance(self.body, (bytes, str)):
            # A chunk-iterator body is consumable exactly once; two
            # copies silently sharing it would race for the bytes (e.g.
            # replica fan-out storing one full and two empty copies).
            raise TypeError(
                "cannot copy a Request with a consumable iterator body: "
                "call body_bytes() first"
            )
        return Request(
            self.method,
            self.path,
            self.headers.copy(),
            self.body,
            dict(self.params),
            dict(self.environ),
        )

    def __repr__(self) -> str:
        return f"<Request {self.method} {self.path}>"


class Response:
    """An object-store response; the body may be bytes or a byte-chunk
    iterator (which is how filtered object streams are represented)."""

    def __init__(
        self,
        status: int = 200,
        headers: Optional[Dict[str, Any]] = None,
        body: Body = b"",
    ):
        self.status = status
        self.headers = HeaderDict(headers or {})
        self.body = body

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")

    def read(self) -> bytes:
        """Materialize the body, caching it for repeated reads."""
        data = collect_body(self.body)
        self.body = data
        return data

    def iter_body(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[bytes]:
        """Stream the body as chunks without materializing it twice.

        Exhausting or closing the returned generator closes the
        underlying body (when it is closeable), so resources pinned to
        the stream -- connection-pool slots, spans -- are released at
        the moment the consumer is done, not when the garbage collector
        gets around to it.
        """
        body = self.body
        if body is None:
            return
        if isinstance(body, bytes):
            for offset in range(0, len(body), chunk_size):
                yield body[offset : offset + chunk_size]
            return
        try:
            for chunk in body:
                if chunk:
                    yield chunk
        finally:
            close_body(body)

    def __repr__(self) -> str:
        return f"<Response {self.status} {self.reason}>"


def collect_body(body: Body) -> bytes:
    if body is None:
        return b""
    if isinstance(body, bytes):
        return body
    if isinstance(body, str):
        return body.encode("utf-8")
    return b"".join(body)


def close_body(body: Any) -> None:
    """Close a body iterator if it supports closing (no-op otherwise)."""
    close = getattr(body, "close", None)
    if close is not None:
        close()


def chunk_bytes(data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[bytes]:
    """Yield ``data`` in fixed-size chunks (streaming helper)."""
    for offset in range(0, len(data), chunk_size):
        yield data[offset : offset + chunk_size]


def chunk_bytes_range(
    data: bytes, start: int, stop: int, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[bytes]:
    """Yield ``data[start:stop]`` in fixed-size chunks without ever
    materializing the sub-range as one contiguous payload."""
    for offset in range(start, stop, chunk_size):
        yield data[offset : min(offset + chunk_size, stop)]
