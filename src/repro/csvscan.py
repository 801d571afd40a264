"""The CSV record reader: framing, ownership, typing and the drop rule.

Every tier that reads CSV -- the pushdown storlets next to the disk, the
connector's plain split reads, the Spark CSV source re-parsing what the
storlet let through -- goes through this module, so they cannot disagree
about which bytes form a record, which range owns it, or whether it is
kept.

**Framing and ownership** (:func:`owned_records`, :class:`CsvScan`)
follow Hadoop's ``LineRecordReader`` so that parallel ranged reads cover
every record exactly once:

* a range with ``range_start > 0`` unconditionally discards its first
  line -- it cannot know whether it starts on a boundary, and the
  previous range reads through to finish that record;
* consequently a range also owns a record starting *exactly at its end
  boundary* (stream offset == ``range_len``), because the next range
  will discard it (Hadoop's ``pos <= end`` loop);
* the caller supplies lookahead bytes past the range end so the last
  owned record can be completed; chunks are pulled only while no
  complete record is buffered, and never after a record starting past
  the range end has been seen.

Framing is quote-aware (RFC 4180): a ``\\n`` between an odd number of
double quotes is inside a quoted field and does not end the record; the
quote parity carries across chunk refills.  Range boundaries are planned
quote-safe at discovery time (:mod:`repro.connector.split_planner`), so
a scan always starts outside quotes.

**The drop rule** (:class:`CsvScan`): a record is dropped iff it is
unframeable (not UTF-8, or malformed quoting), of the wrong width, or
untypable in *any* schema column.  Nothing else drops a record and no
scan applies a rule of its own.

**Block at a time.**  Input is consumed in *blocks*: the run of complete
owned records at the head of the buffer, capped at :data:`BLOCK_BYTES`.
A block is *regular* when it holds no ``"`` and no ``\\r``, decodes as
UTF-8, every record has the schema's width and every cell types (and
the delimiter is a single character).  A regular block is decoded once,
split, transposed and typed column-wise
(:meth:`repro.sql.types.DataType.parse_column`); any other block goes
record by record through :func:`parse_record` and
:meth:`repro.sql.types.Schema.parse_row`, which is where records are
dropped and logged.  Both paths produce the same :class:`RecordBlock`,
in stream order.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import repeat
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.columnar.batch import ColumnBatch, take_column
from repro.sql.filters import Filter
from repro.sql.kernels import compile_filters
from repro.sql.types import Row, Schema

#: Upper bound on the bytes of one block, so a whole-object chunk never
#: becomes a whole-object list of records.
BLOCK_BYTES = 16 * 1024


# ---------------------------------------------------------------------------
# One record: parse, render.
# ---------------------------------------------------------------------------


def parse_record(raw_line: bytes, delimiter: str) -> Optional[List[str]]:
    """Split one framed record into fields (``None`` if unframeable)."""
    try:
        text = raw_line.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if '"' not in text:
        return text.split(delimiter)
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        return next(reader)
    except (csv.Error, StopIteration):
        return None


def render_record(fields: Sequence[str], delimiter: str) -> bytes:
    """Serialize fields as one newline-terminated record, quoting only
    when necessary.

    A field containing a newline (or carriage return) must be re-quoted
    too, else the emitted record is unframeable downstream.
    """
    if any(
        delimiter in field
        or '"' in field
        or "\n" in field
        or "\r" in field
        for field in fields
    ):
        sink = io.StringIO()
        csv.writer(sink, delimiter=delimiter, lineterminator="\n").writerow(
            fields
        )
        return sink.getvalue().encode("utf-8")
    return (delimiter.join(fields) + "\n").encode("utf-8")


def typed_record(
    raw_line: bytes, schema: Schema, delimiter: str
) -> Tuple[List[str], Row]:
    """One framed record through the drop rule: its fields and its typed
    row, or a ``ValueError`` saying why it is dropped."""
    fields = parse_record(raw_line, delimiter)
    if fields is None:
        raise ValueError("not UTF-8 or malformed quoting")
    return fields, schema.parse_row(fields)  # wrong width or untypable cell


# ---------------------------------------------------------------------------
# Framing and ownership.
# ---------------------------------------------------------------------------


def find_record_end(
    buffer: bytes, pos: int, in_quotes: bool
) -> Tuple[int, int, bool]:
    """Locate the next record-terminating newline at or after ``pos``.

    Returns ``(newline_index, next_pos, in_quotes)``.  ``newline_index``
    is ``-1`` when the buffer ends before a record boundary, in which
    case ``next_pos``/``in_quotes`` capture the scan state to resume
    from after more bytes arrive.  The scan jumps between ``find()``
    calls instead of walking bytes: outside quotes the next interesting
    byte is ``min(next '\\n', next '\"')``; inside quotes only the
    closing quote matters.  RFC 4180's ``\"\"`` escape needs no special
    case -- it toggles the parity twice.
    """
    while True:
        if in_quotes:
            quote = buffer.find(b'"', pos)
            if quote < 0:
                return -1, len(buffer), True
            pos = quote + 1
            in_quotes = False
            continue
        newline = buffer.find(b"\n", pos)
        if newline < 0:
            quote = buffer.find(b'"', pos)
            if quote < 0:
                return -1, len(buffer), False
            pos = quote + 1
            in_quotes = True
            continue
        quote = buffer.find(b'"', pos, newline)
        if quote < 0:
            return newline, newline, False
        pos = quote + 1
        in_quotes = True


def _owned_blocks(
    chunks: Iterable[bytes], range_start: int, range_len: Optional[int]
) -> Iterator[Union[bytes, List[bytes]]]:
    """Frame the owned records of a chunk stream, a block at a time.

    The stream's first byte sits at object offset ``range_start``; the
    logical range covers stream offsets ``[0, range_len]`` (everything,
    when ``range_len`` is None).  A block spans at most
    :data:`BLOCK_BYTES` of already buffered input and is either

    * ``bytes`` -- a run of complete quote-free records joined by
      ``\\n`` (no trailing newline), so ``run.split(b"\\n")`` frames it;
      carriage returns are still in place; or
    * a ``list`` of records framed one by one by the quote-aware
      scanner and stripped of trailing carriage returns: records that
      hold a quote or outgrow the block cap, and the object's
      unterminated tail (passed through as is).
    """
    pull = iter(chunks).__next__
    buffer = b""
    pos = 0  # buffer[pos:] is unconsumed; a record starts at buffer[pos]
    offset = 0  # stream offset of buffer[pos]
    skipping_first = range_start > 0
    range_end = math.inf if range_len is None else range_len
    # Quote-scan state of the record at ``pos``, kept across refills:
    # everything before scan_pos is classified, and in_quotes says
    # whether scan_pos sits inside a quoted field.
    scan_pos = 0
    in_quotes = False

    while True:
        if not skipping_first and offset <= range_end:
            limit = min(len(buffer), pos + BLOCK_BYTES)
            quote = buffer.find(b'"', pos, limit)
            end = buffer.rfind(b"\n", pos, limit if quote < 0 else quote)
            if end >= 0:
                if offset + (end - pos) > range_end:
                    # Records of this run may start past the range end:
                    # keep up to the terminator of the last one starting
                    # at or before it.
                    end = buffer.find(b"\n", pos + (range_end - offset))
                yield buffer[pos:end]
                offset += end + 1 - pos
                scan_pos = pos = end + 1
                continue

        # No plain run at ``pos``: the scanner frames record after
        # record for as long as they hold quotes and are buffered.
        records: List[bytes] = []
        cap = pos + BLOCK_BYTES
        while pos < cap:
            newline, scan_pos, in_quotes = find_record_end(
                buffer, scan_pos, in_quotes
            )
            if newline < 0:
                break
            line = buffer[pos:newline]
            line_start = offset
            offset += newline + 1 - pos
            scan_pos = pos = newline + 1
            if skipping_first:
                # Everything up to the first record boundary belongs to
                # the previous range (it finishes this record via its
                # lookahead).
                skipping_first = False
                break
            if line_start > range_end:
                # A range is only known to be finished once the first
                # record past it is complete.
                if records:
                    yield records
                return
            records.append(line.rstrip(b"\r"))
            if b'"' not in line:
                break  # a plain run may start here
        if records:
            yield records
        if newline >= 0:
            continue
        try:
            chunk = pull()
        except StopIteration:
            # Trailing record without newline at end of object.
            if pos < len(buffer) and not skipping_first and offset <= range_end:
                yield [buffer[pos:]]
            return
        buffer = buffer[pos:] + chunk
        scan_pos -= pos
        pos = 0


def owned_records(
    chunks: Iterable[bytes],
    range_start: int = 0,
    range_len: Optional[int] = None,
) -> Iterator[bytes]:
    """The line-level view: each owned record as bytes, unparsed.

    Records come without their terminator and without trailing carriage
    returns.  For callers that own their record format -- JSON partials,
    ETL rewrites -- or only need framing and ownership.
    """
    for block in _owned_blocks(chunks, range_start, range_len):
        if isinstance(block, list):
            yield from block
        elif b"\r" in block:
            for line in block.split(b"\n"):
                yield line.rstrip(b"\r")
        else:
            yield from block.split(b"\n")


# ---------------------------------------------------------------------------
# Typed scan: blocks of validated records.
# ---------------------------------------------------------------------------


class RecordBlock(NamedTuple):
    """The kept records of one block, three aligned images of each.

    ``lines[i]`` is record *i*'s text without terminator, ``texts[c][i]``
    its raw field in column *c* and ``columns[c][i]`` that field typed
    (so ``columns`` is what :mod:`repro.sql.kernels` run over).  In a
    ``regular`` block no field holds a delimiter, quote or line break,
    so joining fields renders a record exactly.
    """

    lines: Sequence[str]
    texts: Sequence[Sequence[str]]
    columns: Sequence[Sequence[Any]]
    regular: bool

    @property
    def count(self) -> int:
        """How many records the block holds."""
        return len(self.lines)


class CsvScan:
    """One pass over the records a byte range of a CSV stream owns.

    ``chunks`` is the stream from object offset ``range_start`` on (see
    the module docstring for ownership); ``skip_header`` discards the
    first owned record unseen.  ``filters`` is an optional conjunctive
    source-filter list, compiled once into a selection kernel that
    :meth:`select`, :meth:`batches` and :meth:`rows` apply.  ``log``
    receives one line per dropped record.

    ``records_in`` and ``dropped`` count the records framed and dropped
    so far (the header is neither).
    """

    def __init__(
        self,
        chunks: Iterable[bytes],
        schema: Schema,
        delimiter: str = ",",
        *,
        range_start: int = 0,
        range_len: Optional[int] = None,
        skip_header: bool = False,
        filters: Sequence[Filter] = (),
        log: Optional[Callable[[str], None]] = None,
    ):
        self.schema = schema
        self.delimiter = delimiter
        self.records_in = 0
        self.dropped = 0
        self._blocks = _owned_blocks(chunks, range_start, range_len)
        self._skip_header = skip_header
        self._selection = compile_filters(filters, schema) if filters else None
        self._log = log

    def blocks(self) -> Iterator[RecordBlock]:
        """Every block of validated records, unfiltered, in stream order.

        A block may be empty (all dropped, or only the header): a block
        is yielded for every stretch of input framed.
        """
        for block in self._blocks:
            if self._skip_header:
                self._skip_header = False
                if isinstance(block, list):
                    block = block[1:]
                elif b"\n" in block:
                    block = block.partition(b"\n")[2]
                else:
                    block = []  # nothing but the header
            if isinstance(block, bytes):
                typed = self._regular_block(block)
                if typed is not None:
                    yield typed
                    continue
                block = [line.rstrip(b"\r") for line in block.split(b"\n")]
            yield self._checked_block(block)

    def select(self, block: RecordBlock) -> Optional[List[int]]:
        """Indices of the block's records passing the filters; ``None``
        when every record passes."""
        if self._selection is None:
            return None
        picked = self._selection(block.columns, block.count)
        return None if len(picked) == block.count else picked

    def batches(
        self, projection: Optional[Sequence[int]] = None
    ) -> Iterator[ColumnBatch]:
        """The typed records passing the filters, a column batch per
        block that keeps any, optionally projected to the given column
        positions: a block's typed columns as they are, never a row."""
        schema = self.schema
        if projection is not None:
            schema = Schema([schema.fields[index] for index in projection])
        for block in self.blocks():
            columns, count = block.columns, block.count
            if projection is not None:
                columns = [columns[index] for index in projection]
            picked = self.select(block)
            if picked is not None:
                columns = [take_column(column, picked) for column in columns]
                count = len(picked)
            if count:
                yield ColumnBatch(schema, columns, count)

    def rows(self, projection: Optional[Sequence[int]] = None) -> Iterator[Row]:
        """:meth:`batches`, flattened to typed rows."""
        for batch in self.batches(projection):
            yield from batch.rows

    # -- the two paths ------------------------------------------------------

    def _regular_block(self, data: bytes) -> Optional[RecordBlock]:
        """Type a run of quote-free records column-wise, or ``None`` if
        the run is not provably regular."""
        delimiter, width = self.delimiter, len(self.schema)
        if b"\r" in data or len(delimiter) != 1:
            return None
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return None
        lines = text.split("\n")
        if set(map(str.count, lines, repeat(delimiter))) != {width - 1}:
            return None
        # Every record has exactly ``width`` fields, so the flat field
        # list is row-major and a stride slice is a column.  (A longer
        # delimiter could straddle the joints; one character cannot.)
        flat = text.replace("\n", delimiter).split(delimiter)
        texts = [flat[index::width] for index in range(width)]
        try:
            columns = [
                field.dtype.parse_column(column)
                for field, column in zip(self.schema.fields, texts)
            ]
        except ValueError:
            return None
        self.records_in += len(lines)
        return RecordBlock(lines, texts, columns, True)

    def _checked_block(self, raw_lines: List[bytes]) -> RecordBlock:
        """Apply the drop rule record by record."""
        lines: List[str] = []
        texts: List[List[str]] = []
        rows: List[Row] = []
        self.records_in += len(raw_lines)
        for raw_line in raw_lines:
            try:
                fields, row = typed_record(raw_line, self.schema, self.delimiter)
            except ValueError as reason:
                self.dropped += 1
                if self._log is not None:
                    self._log(f"dropping record ({reason}): {raw_line[:80]!r}")
                continue
            lines.append(raw_line.decode("utf-8"))
            texts.append(fields)
            rows.append(row)
        if not rows:
            empty = [()] * len(self.schema)
            return RecordBlock((), empty, empty, False)
        return RecordBlock(lines, list(zip(*texts)), list(zip(*rows)), False)
