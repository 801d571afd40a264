"""The storlet programming interface.

Follows the Java ``IStorlet`` interface shown in the paper (Section V-A),
``invoke(in_streams, out_streams, parameters, logger)``, as a Python
generator: a storlet implements ``process(in_stream, parameters, logger,
metadata)`` and *yields* the transformed stream.  Streams are
chunk-iterators so storlets can process objects far larger than memory.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional


class StorletException(Exception):
    """Raised by storlets on unrecoverable invocation errors."""


class StorletFailure(StorletException):
    """Infrastructure-side invocation failure, distinguishable from data
    errors.

    A storlet that *crashes*, blows its CPU budget, overruns its output
    limit or misses its invocation deadline failed for reasons unrelated
    to the data -- the same bytes fetched plainly are still good, so the
    request path can degrade gracefully (plain GET + compute-side
    filter) instead of failing the query.  ``reason`` is a stable token
    (``crash``, ``cpu-exhausted``, ``output-limit``, ``deadline``,
    ``injected``) the middleware forwards in the ``X-Storlet-Failure``
    response header.
    """

    def __init__(
        self,
        message: str,
        *,
        storlet: str = "",
        node: str = "",
        reason: str = "crash",
    ):
        super().__init__(message)
        self.storlet = storlet
        self.node = node
        self.reason = reason


class StorletLogger:
    """Per-invocation log sink (real Storlets write to an object)."""

    def __init__(self, name: str):
        self.name = name
        self.lines: List[str] = []

    def emit(self, message: str) -> None:
        self.lines.append(message)

    # Compatibility alias matching the Java SDK's logger.
    emitLog = emit

    def __iter__(self) -> Iterator[str]:
        return iter(self.lines)


class StorletInputStream:
    """A readable chunk stream with object metadata attached."""

    def __init__(
        self,
        chunks: Iterable[bytes],
        metadata: Optional[Dict[str, str]] = None,
    ):
        self._iterator = iter(chunks)
        self.metadata = dict(metadata or {})
        self._buffer = b""
        self._exhausted = False

    def iter_chunks(self) -> Iterator[bytes]:
        """Yield remaining data chunk by chunk."""
        if self._buffer:
            pending, self._buffer = self._buffer, b""
            yield pending
        for chunk in self._iterator:
            if chunk:
                yield chunk
        self._exhausted = True

    def read(self, size: int = -1) -> bytes:
        """Read up to ``size`` bytes (all remaining when negative)."""
        if size < 0:
            return b"".join(self.iter_chunks())
        while len(self._buffer) < size and not self._exhausted:
            try:
                self._buffer += next(self._iterator)
            except StopIteration:
                self._exhausted = True
        data, self._buffer = self._buffer[:size], self._buffer[size:]
        return data


class IStorlet:
    """Base class for storlets.

    Subclasses override :meth:`process`: consume ``in_stream`` and
    *yield* output chunks (``bytes``).  Chunks flow through the sandbox
    (and any downstream storlets in the pipeline) as they are produced,
    so a storlet's memory is whatever state it keeps itself, regardless
    of object size.  ``parameters`` arrive as a flat string map decoded
    from the request's ``X-Storlet-Parameter-*`` headers.  Metadata the
    storlet wants to emit goes into the mutable ``metadata`` dict; it
    must be complete by the time the generator is exhausted.
    """

    #: Stable name used for deployment/invocation headers.
    name = "storlet"

    def process(
        self,
        in_stream: StorletInputStream,
        parameters: Dict[str, str],
        logger: StorletLogger,
        metadata: Dict[str, str],
    ) -> Iterator[bytes]:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement process()"
        )

    def describe(self) -> Dict[str, Any]:
        """Deployment metadata stored alongside the storlet object."""
        return {
            "name": self.name,
            "language": "python",
            "interface": "IStorlet",
            "class": type(self).__name__,
        }
