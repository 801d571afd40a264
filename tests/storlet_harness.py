"""Drive a storlet outside the engine: feed it chunks, drain ``process``.

The one harness for unit tests (and ``benchmarks/test_micro_functional``)
that exercise a storlet directly instead of through a GET.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.columnar.batch import ColumnBatch
from repro.columnar.layout import BlockStreamEncoder
from repro.storlets import IStorlet, StorletInputStream, StorletLogger


def run_storlet(
    storlet: IStorlet,
    data: Union[bytes, Iterable[bytes]],
    parameters: Dict[str, str],
    chunk_size: Optional[int] = None,
    metadata: Optional[Dict[str, str]] = None,
) -> SimpleNamespace:
    """Run ``storlet`` over ``data`` (bytes, cut every ``chunk_size``
    when given, or ready-made chunks; ``metadata`` is the object's).

    Returns ``body`` (the joined output), ``chunks`` (as yielded),
    ``metadata`` (what the storlet emitted) and ``log`` (its lines).
    """
    if isinstance(data, bytes):
        step = chunk_size or max(1, len(data))
        data = [data[i : i + step] for i in range(0, len(data), step)]
    logger = StorletLogger(storlet.name)
    emitted: Dict[str, str] = {}
    chunks = list(
        storlet.process(
            StorletInputStream(data, metadata), parameters, logger, emitted
        )
    )
    return SimpleNamespace(
        body=b"".join(chunks),
        chunks=chunks,
        metadata=emitted,
        log=logger.lines,
    )


def run_sandboxed(sandbox, storlet, data, parameters, **kwargs) -> SimpleNamespace:
    """Same, through ``sandbox.run_streaming`` (accounting and limits)."""
    if isinstance(data, bytes):
        data = [data]
    invocation = sandbox.run_streaming(
        storlet, StorletInputStream(data), parameters, **kwargs
    )
    body = b"".join(invocation.chunks())
    return SimpleNamespace(body=body, metadata=invocation.metadata)


def block_stream(
    batches: Sequence[ColumnBatch],
    block_rows: int = 1 << 30,
    encoder: Optional[BlockStreamEncoder] = None,
) -> bytes:
    """The block stream of one response that ships ``batches`` -- each
    standing for a stripe's selected rows, cut every ``block_rows`` --
    through one encoder, as ``ColumnarStorlet.process`` does."""
    if not batches:
        return b""
    encoder = encoder or BlockStreamEncoder(batches[0].schema)
    return b"".join(
        block
        for batch in batches
        for block in encoder.blocks(batch.columns, len(batch), block_rows)
    )
