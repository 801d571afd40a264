"""Fixed-size record batches: the unit of flow above the connector.

Below the Stocator connector the data plane moves byte chunks; above it,
rows.  Moving rows one at a time through the scheduler would drown the
pipeline in per-row overhead, while materializing a whole partition
reintroduces the O(split) memory the streaming refactor removes.  A
:class:`RecordBatch` is the compromise: a bounded slice of rows (default
:data:`DEFAULT_BATCH_ROWS`) that flows through RDD compute, task
execution and the SQL executor, keeping peak memory at
O(batch_rows x pipeline depth) regardless of dataset size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

DEFAULT_BATCH_ROWS = 1024


@dataclass(frozen=True)
class RecordBatch:
    """A bounded, immutable slice of rows."""

    rows: Tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def slice(self, start: int) -> "RecordBatch":
        """The batch without its first ``start`` rows."""
        return RecordBatch(self.rows[start:])


def batched(
    rows: Iterable[tuple], batch_rows: int = DEFAULT_BATCH_ROWS
) -> Iterator[RecordBatch]:
    """Re-chunk a row iterator into bounded batches, lazily.

    Pulls at most ``batch_rows`` rows ahead of the consumer, so early
    termination downstream (LIMIT) stops the upstream row source after
    at most one batch of lookahead.
    """
    if batch_rows <= 0:
        raise ValueError(f"batch_rows must be positive: {batch_rows}")
    pending: List[tuple] = []
    for row in rows:
        pending.append(row)
        if len(pending) >= batch_rows:
            yield RecordBatch(tuple(pending))
            pending = []
    if pending:
        yield RecordBatch(tuple(pending))


def rows_from_batches(batches: Iterable[RecordBatch]) -> Iterator[tuple]:
    """Flatten a batch stream back into rows, preserving laziness."""
    for batch in batches:
        yield from batch.rows
