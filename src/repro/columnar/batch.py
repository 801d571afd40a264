"""Column-oriented record batches for the vectorized fast path.

A :class:`ColumnBatch` holds the same rows as a
:class:`repro.spark.batch.RecordBatch` but transposed: one Python list
per column.  Batch kernels (:mod:`repro.sql.kernels`) run over these
vectors with fused list comprehensions instead of per-row closure
chains.

The scheduler treats batches as opaque -- it only ever takes
``len(batch)``, and ``batch.slice`` when a retry resumes inside a batch
it had partly emitted -- so a ``ColumnBatch`` flows through
``iter_batches`` as it is, dictionary-coded columns
(:class:`DictColumn`) still coded.  Rows exist only where they leave:
``rows`` transposes on first access, for row-oriented consumers and
for the operators above the kernel pipeline.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence as SequenceABC
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sql.types import Schema


class DictColumn(SequenceABC):
    """A dictionary-coded column vector: ``entries[codes[i]]`` is row ``i``.

    The carrier a decoded RCF1 dictionary segment travels in while the
    work can stay on the codes: a filter is evaluated once per entry and
    mapped over ``codes`` (:meth:`translate`), rows are gathered by
    compressing or indexing ``codes`` (:func:`compress_column`,
    :func:`take_column`), a storlet block ships entries + codes without
    expanding either, and the hash aggregate buckets rows by code.
    ``codes`` is a ``bytes`` of one code per row, so at most 256
    entries.  A decoded segment's entries are distinct and ``None`` (the
    NULL cell), when present, is the last; a kernel that maps a column
    entry by entry keeps the codes, so *its* entries may repeat and hold
    ``None`` anywhere.  Reads like any other column vector (``len``,
    indexing, slicing, iteration), so code that does not know the
    carrier still sees the right cells.
    """

    __slots__ = ("entries", "codes")

    def __init__(self, entries: List[Any], codes: bytes):
        self.entries = entries
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DictColumn(self.entries, self.codes[index])
        return self.entries[self.codes[index]]

    def __iter__(self) -> Iterator[Any]:
        return map(self.entries.__getitem__, self.codes)

    def translate(self, flags: Sequence[bool]) -> bytes:
        """Map a per-entry verdict over the rows: one 0/1 byte per row."""
        return self.codes.translate(bytes(flags).ljust(256, b"\0"))


def materialize(column: Sequence[Any]) -> Sequence[Any]:
    """``column`` as a plain vector (a no-op unless dictionary-coded)."""
    return list(column) if isinstance(column, DictColumn) else column


def compress_column(column: Sequence[Any], mask: bytes) -> Sequence[Any]:
    """The rows of ``column`` whose ``mask`` byte is set, in order; a
    dictionary-coded column stays coded (only its codes are gathered)."""
    if isinstance(column, DictColumn):
        return DictColumn(
            column.entries, bytes(itertools.compress(column.codes, mask))
        )
    return list(itertools.compress(column, mask))


def take_column(column: Sequence[Any], indices: Sequence[int]) -> Sequence[Any]:
    """The cells of ``column`` at ``indices``, in that order; a
    dictionary-coded column stays coded (only its codes are gathered)."""
    if isinstance(column, DictColumn):
        return DictColumn(column.entries, bytes(take_column(column.codes, indices)))
    if len(indices) > 1:
        return operator.itemgetter(*indices)(column)
    return tuple(column[index] for index in indices)


class ColumnBatch:
    """A bounded, column-major slice of rows.

    ``columns[i]`` is the vector for ``schema.fields[i]``; all vectors
    share one length.  Instances are treated as immutable by every
    consumer (vectors are never mutated in place after construction).
    """

    __slots__ = ("schema", "columns", "_row_count", "_rows")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        row_count: Optional[int] = None,
    ):
        if len(columns) != len(schema):
            raise ValueError(
                f"{len(columns)} columns do not match schema of {len(schema)}"
            )
        self.schema = schema
        self.columns: List[Sequence[Any]] = list(columns)
        if row_count is None:
            row_count = len(columns[0]) if columns else 0
        self._row_count = row_count
        self._rows: Optional[Tuple[tuple, ...]] = None

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[tuple]) -> "ColumnBatch":
        """Transpose a row-major slice into a column batch."""
        if not rows:
            return cls(schema, [[] for _ in schema.fields], 0)
        columns = [list(values) for values in zip(*rows)]
        batch = cls(schema, columns, len(rows))
        if isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows):
            batch._rows = rows  # reuse the caller's materialization
        return batch

    @property
    def rows(self) -> Tuple[tuple, ...]:
        """Row-major view, materialized on first access and cached."""
        if self._rows is None:
            if self.columns and self._row_count:
                self._rows = tuple(zip(*self.columns))
            else:
                self._rows = tuple(() for _ in range(self._row_count))
        return self._rows

    def __len__(self) -> int:
        return self._row_count

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def column(self, index: int) -> Sequence[Any]:
        """The vector for one column position."""
        return self.columns[index]

    def select(self, names: Sequence[str]) -> "ColumnBatch":
        """Project to the named columns (vectors shared, not copied)."""
        indices = [self.schema.index_of(name) for name in names]
        return ColumnBatch(
            self.schema.select(names),
            [self.columns[i] for i in indices],
            self._row_count,
        )

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather the rows at the given positions, in order."""
        return ColumnBatch(
            self.schema,
            [take_column(column, indices) for column in self.columns],
            len(indices),
        )

    def slice(self, start: int, stop: Optional[int] = None) -> "ColumnBatch":
        """A contiguous sub-batch ``[start:stop]``."""
        if stop is None:
            stop = self._row_count
        start = max(0, min(start, self._row_count))
        stop = max(start, min(stop, self._row_count))
        return ColumnBatch(
            self.schema,
            [column[start:stop] for column in self.columns],
            stop - start,
        )


def skip_rows(batches: Iterable[ColumnBatch], count: int) -> Iterator[ColumnBatch]:
    """``batches`` without the first ``count`` rows of the stream: how a
    degraded scan resumes behind the rows its pushdown twin emitted."""
    for batch in batches:
        if count >= len(batch):
            count -= len(batch)
            continue
        yield batch.slice(count) if count else batch
        count = 0


def as_column_batch(batch: Any, schema: Schema) -> ColumnBatch:
    """Coerce a scheduler batch (Record- or ColumnBatch) to columnar.

    A ``ColumnBatch`` passes through as it is, coded columns still
    coded; the ``RecordBatch``es of a row-oriented scan are transposed,
    so the kernel pipeline sees a uniform columnar stream.
    """
    if isinstance(batch, ColumnBatch):
        return batch
    return ColumnBatch.from_rows(schema, batch.rows)
