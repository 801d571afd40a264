"""Column-oriented record batches for the vectorized fast path.

A :class:`ColumnBatch` is a bounded slice of rows held column-major:
one vector per column.  It is the one unit that moves above the
connector.  Batch kernels (:mod:`repro.sql.kernels`) run over these
vectors with fused list comprehensions instead of per-row closure
chains.

The scheduler treats batches as opaque -- it only ever takes
``len(batch)``, and ``batch[start:]`` when a retry resumes inside a
batch it had partly emitted -- so a ``ColumnBatch`` flows through
``iter_batches`` as it is, dictionary-coded columns
(:class:`DictColumn`) still coded and fixed-width ones
(:class:`PackedColumn`) still packed.  Rows exist only where they leave:
``rows`` transposes on first access, for the operators above the kernel
pipeline.
"""

from __future__ import annotations

import itertools
import operator
import struct
from collections.abc import Sequence as SequenceABC
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sql.types import Schema


class DictColumn(SequenceABC):
    """A dictionary-coded column vector: ``entries[codes[i]]`` is row ``i``.

    The carrier a decoded RCF1 dictionary segment travels in while the
    work can stay on the codes: a filter is evaluated once per entry and
    mapped over ``codes`` (:meth:`translate`), rows are gathered from
    ``codes`` alone (:func:`compress_columns`, :func:`take_column`), a
    storlet block ships entries + codes without expanding either, and
    the hash aggregate buckets rows by code.
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


#: ``10 ** e`` as a float for every decimal exponent ``e``: each exact.
DECIMAL_SCALES = tuple(float(10**e) for e in range(16))


def decimal_cells(offsets: Iterable[int], exponent: int, base: int = 0) -> List[float]:
    """The cells of a decimal segment's ``offsets``: ``(base + offset) /
    10**exponent``.

    The one definition of a decimal cell: the encoder's exactness check
    and every decoder call it, and the kernels read cells through them.
    The scaled integer ``base + offset`` and ``10**e`` are exact floats
    (the encoder keeps them under ``2**53``), so a cell is their
    correctly rounded quotient.  One comprehension per vector (faster here than
    mapping ``operator.truediv``).
    """
    scale = DECIMAL_SCALES[exponent]
    if base:
        return [(base + offset) / scale for offset in offsets]
    return [offset / scale for offset in offsets]


def offset_cells(
    offsets: Sequence[int], base: int = 0, exponent: Optional[int] = None
) -> Sequence[Any]:
    """The values of fixed-width ``offsets`` read under ``base`` and, for
    a decimal, ``exponent`` (:func:`decimal_cells`): the base added in
    one comprehension (a third faster than mapping ``base.__add__`` over
    them)."""
    if exponent is not None:
        return decimal_cells(offsets, exponent, base)
    if base:
        return [base + offset for offset in offsets]
    return offsets


class PackedColumn(SequenceABC):
    """A NULL-free fixed-width column vector, still packed: row ``i``
    is ``base + view[i]`` -- divided by ``10**exponent`` where the
    column is decimal (:func:`decimal_cells`).

    The carrier a decoded RCF1 int64, float64, narrow-int or decimal
    segment travels in: ``view`` is a ``memoryview`` cast (``q`` /
    ``d``, or the offsets as ``B`` / ``H`` / ``I``) over the segment's
    own payload bytes, ``base`` the offsets' base (0 otherwise) and
    ``exponent`` a decimal segment's (``None`` for every other), so
    decoding copies nothing, a slice is O(1), a filter can work on the
    bytes and a storlet block ships ``view[a:b].tobytes()``.  The view
    is always contiguous and never over a buffer that can be resized.
    Reads like any other column vector, so code that does not know the
    carrier still sees the right cells -- but cells are boxed when they
    are read, all of them at once by :meth:`tolist` and iteration:
    iterate, never index per row.
    """

    __slots__ = ("view", "base", "exponent")

    def __init__(self, view: memoryview, base: int = 0, exponent: Optional[int] = None):
        self.view = view
        self.base = base
        self.exponent = exponent

    def __len__(self) -> int:
        return len(self.view)

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = self.view[index]
            if not view.contiguous:  # a stepped slice: repack it
                view = memoryview(view.tobytes()).cast(view.format)
            return PackedColumn(view, self.base, self.exponent)
        return self.unpacked((self.view[index],))[0]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.tolist())

    @property
    def kind(self) -> str:
        """What a cell is: ``"float"`` (a float64 view, NaN and -0.0
        among its cells), ``"decimal"`` or ``"int"`` (int64 or narrow
        int).  An int or decimal cell never falls as its offset grows,
        so the least and greatest offsets read the least and greatest
        cells."""
        if self.exponent is not None:
            return "decimal"
        return "float" if self.view.format == "d" else "int"

    def unpacked(self, cells: Sequence[Any]) -> Sequence[Any]:
        """The values of ``cells`` read from ``view`` (:func:`offset_cells`)."""
        return offset_cells(cells, self.base, self.exponent)

    def tolist(self) -> List[Any]:
        """The cells as a plain vector: one C-level unpacking pass."""
        return self.unpacked(self.view.tolist())

    def count(self, value: Any) -> int:
        """Occurrences of ``value``; a packed column holds no NULL."""
        return 0 if value is None else super().count(value)


def materialize(column: Sequence[Any]) -> Sequence[Any]:
    """``column`` as a plain vector (a no-op unless it is a carrier)."""
    if isinstance(column, PackedColumn):
        return column.tolist()
    return list(column) if isinstance(column, DictColumn) else column


#: ``mask.translate(_DROPPED)``: 0xFF where the mask drops the row.
_DROPPED = b"\xff\x00" + bytes(254)


def compress_columns(
    columns: Sequence[Sequence[Any]],
    mask: bytes,
    tally: Optional[Dict[str, int]] = None,
) -> List[Sequence[Any]]:
    """The rows of each of ``columns`` whose ``mask`` byte is set, in
    order; a carrier stays a carrier (only its codes / packed cells are
    gathered).

    Two gathers, and ``tally`` (when given) counts the columns by which
    one ran.  A dictionary-coded column of fewer than 256 entries is
    gathered by ``mark_delete`` (the dropped rows' codes set to 0xFF
    with one big-int ``|``, then deleted with ``translate``) and
    everything else with ``itertools.compress`` -- over a packed column
    one boxed pass (``struct.pack`` of the kept cells), the gather that
    still pays for every row.
    """
    kept = mask.count(1)
    dropped: Optional[int] = None  # the mask's 0xFF marks, made on first use
    gathered: List[Sequence[Any]] = []
    for column in columns:
        kind = "compress"
        if isinstance(column, DictColumn):
            if len(column.entries) < 256:
                kind = "mark_delete"
                if dropped is None:
                    dropped = int.from_bytes(mask.translate(_DROPPED), "little")
                marked = int.from_bytes(column.codes, "little") | dropped
                codes = marked.to_bytes(len(mask), "little").translate(None, b"\xff")
            else:
                codes = bytes(itertools.compress(column.codes, mask))
            column = DictColumn(column.entries, codes)
        elif isinstance(column, PackedColumn):
            code = column.view.format
            raw = struct.pack(f"<{kept}{code}", *itertools.compress(column.view, mask))
            column = PackedColumn(memoryview(raw).cast(code), column.base, column.exponent)
        else:
            column = list(itertools.compress(column, mask))
        if tally is not None:
            tally[kind] = tally.get(kind, 0) + 1
        gathered.append(column)
    return gathered


def take_column(column: Sequence[Any], indices: Sequence[int]) -> Sequence[Any]:
    """The cells of ``column`` at ``indices``, in that order.  A
    dictionary-coded column stays coded (only its codes are gathered); a
    packed one has just the picked cells boxed and comes back plain --
    nothing after a take works on the bytes."""
    if isinstance(column, DictColumn):
        return DictColumn(column.entries, bytes(take_column(column.codes, indices)))
    if isinstance(column, PackedColumn):
        return column.unpacked(take_column(column.view, indices))
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

    def __getitem__(self, rows: slice) -> "ColumnBatch":
        """``batch[start:stop]``: the contiguous sub-batch, bounds taken
        as a list takes them (the scheduler cuts a list of aggregation
        records the same way)."""
        start, stop, step = rows.indices(self._row_count)
        if step != 1:
            raise ValueError("a column batch slices contiguously")
        stop = max(start, stop)
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
        yield batch[count:] if count else batch
        count = 0
