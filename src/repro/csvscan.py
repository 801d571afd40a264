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
* the caller's stream runs on past the range end so the last owned
  record can be completed; chunks are pulled only while no complete
  record is buffered, and never once the next record is known to start
  past the range end -- a stream cut at the last owned record's
  terminator is read to its end and not one chunk further.

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
owned records at the head of the buffer.  :data:`BLOCK_BYTES` is the
store's transfer chunk, and the cap counts from where the newest chunk
starts in the buffer, so a block is every complete record one refill
buffered: one block per chunk.  A block is *regular* when it holds no
``"`` and no ``\\r``, every record has the schema's width, it decodes
as UTF-8 and every cell types (and the delimiter is a single
character).  The width test reads the block's *delimiter skeleton*
(:func:`uniform_width`): with every byte but the delimiter and ``\\n``
deleted, a regular run of *n* records leaves exactly
``(d * (width - 1) + "\\n") * n`` less its last newline -- one C-level
pass, and no string per record.  A regular block is decoded once,
split and transposed; any other block goes record by record through
:func:`parse_record` and :meth:`repro.sql.types.Schema.parse_row`, which
is where records are dropped and logged.  Both paths produce the same
:class:`RecordBlock`, in stream order; a regular one holds its text and
its columns, no per-record image.

**Typed on demand.**  A regular block types
(:meth:`repro.sql.types.DataType.parse_column`) only the columns its
filters reference and the columns its caller reads -- the projection
of :meth:`CsvScan.batches`, whatever :meth:`CsvScan.blocks` is told
(every column unless told fewer).  The other columns still decide
whether the block is regular, so the drop rule cannot depend on what a
caller reads: an unread STRING or BOOL cell always types, and an unread
INT or FLOAT column is validated by :func:`numeric_proof`, a handful of
C-level passes over the column's joined text; only where the proof
does not hold is the column parsed for the exact verdict.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections import Counter
from functools import lru_cache, partial
from itertools import compress, repeat
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.columnar.batch import ColumnBatch, take_column
from repro.sql.filters import Filter
from repro.sql.kernels import FilterMask
from repro.sql.types import DataType, Row, Schema
from repro.swift.http import DEFAULT_CHUNK_SIZE

#: Upper bound on the bytes of one block past the newest chunk's start:
#: the store's transfer chunk, so a block holds the complete records of
#: one chunk and a whole-object chunk never becomes a whole-object list
#: of records.
BLOCK_BYTES = DEFAULT_CHUNK_SIZE


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
    when ``range_len`` is None).  A block ends within
    :data:`BLOCK_BYTES` of the later of its start and the newest
    chunk's first byte -- every complete record of a refill, when
    chunks are no larger -- and is either

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
    fresh = 0  # buffer[fresh:] is the newest chunk

    while True:
        if offset > range_end:
            # The next record starts past the range: the range is done,
            # and not one more byte is pulled to frame that record.
            return
        cap = max(pos, fresh) + BLOCK_BYTES
        if not skipping_first:
            limit = min(len(buffer), cap)
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
        while pos < cap and offset <= range_end:
            newline, scan_pos, in_quotes = find_record_end(
                buffer, scan_pos, in_quotes
            )
            if newline < 0:
                break
            line = buffer[pos:newline]
            offset += newline + 1 - pos
            scan_pos = pos = newline + 1
            if skipping_first:
                # Everything up to the first record boundary belongs to
                # the previous range (it reads on to finish this record).
                skipping_first = False
                break
            records.append(line.rstrip(b"\r"))
            if b'"' not in line:
                break  # a plain run may start here
        if records:
            yield records
        if newline >= 0:
            continue
        if skipping_first and offset + scan_pos - pos >= range_end:
            # The discarded first record runs past the range end, so
            # the next record starts past it too: nothing here is owned.
            return
        try:
            chunk = pull()
        except StopIteration:
            # Trailing record without newline at end of object.
            if pos < len(buffer) and not skipping_first:
                yield [buffer[pos:]]
            return
        buffer = buffer[pos:] + chunk
        scan_pos -= pos
        fresh = len(buffer) - len(chunk)
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

_DIGITS = b"0123456789"
_int_digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def numeric_proof(cells: Sequence[str], fractional: bool) -> bool:
    """Does ``int()`` -- ``float()`` when ``fractional`` -- accept every
    non-empty cell of a column?

    Sufficient, not necessary: it holds when the cells joined by
    ``"\\n"`` are ASCII and hold only digits, ``-`` and (when
    ``fractional``) ``.``; every ``-`` opens a cell; no cell holds two
    ``.``; no cell is only ``-``, ``.`` or ``-.``; and no cell is longer
    than the interpreter's ``int()`` digit limit.  Each step is one
    C-level ``str`` / ``bytes`` call over the whole column.  Where it
    does not hold, :meth:`~repro.sql.types.DataType.parse_column` gives
    the exact verdict.
    """
    text = "\n".join(cells)
    if not text.isascii():
        return False
    data = text.encode("ascii")
    if data.translate(None, _DIGITS + (b"-.\n" if fractional else b"-\n")):
        return False  # a sign, exponent, space, letter, ...
    if b"-" in data and (  # a '-' inside a cell, or a bare sign
        data.count(b"-") != data.count(b"\n-") + data.startswith(b"-")
        or b"-\n" in data
        or b"-.\n" in data
        or data.endswith((b"-", b"-."))
    ):
        return False
    if fractional:
        return not (
            b".." in data.translate(None, _DIGITS + b"-")  # two in one cell
            or b"\n.\n" in b"\n" + data + b"\n"
        )
    limit = _int_digits_limit()
    return not limit or len(data) <= limit or max(map(len, cells)) <= limit


def uniform_width(data: bytes, delimiter: bytes, width: int) -> bool:
    """Does every ``\\n``-separated record of ``data`` hold exactly
    ``width - 1`` ``delimiter`` bytes?

    ``delimiter`` is one ASCII byte.  One C-level pass deletes every
    other byte; what is left, the *delimiter skeleton*, must be ``n``
    copies of ``delimiter * (width - 1) + b"\\n"`` less the last
    newline.  On UTF-8 text this is the per-record count of the
    delimiter character exactly: UTF-8 never puts an ASCII byte inside
    a multi-byte character.
    """
    skeleton = data.translate(None, _noise(delimiter))
    records = skeleton.count(b"\n") + 1
    return len(skeleton) == width * records - 1 and (
        skeleton + b"\n" == (delimiter * (width - 1) + b"\n") * records
    )


@lru_cache(maxsize=None)
def _noise(delimiter: bytes) -> bytes:
    """Every byte but ``delimiter`` and ``\\n``."""
    return bytes(byte for byte in range(256) if byte not in delimiter + b"\n")


class RecordBlock(NamedTuple):
    """The kept records of one block.

    ``texts[c][i]`` is record *i*'s raw field in column *c* and
    ``columns[c][i]`` that field typed (so ``columns`` is what
    :mod:`repro.sql.kernels` run over).  A ``regular`` block keeps no
    image per record: its ``text`` is the block's decoded text, records
    joined by ``\\n``; no field holds a delimiter, quote or line break,
    so joining fields renders a record exactly; and a column its reader
    does not read and no filter references is ``None`` in ``columns``
    (its cells were validated, not typed).  A block of the
    record-by-record path types every column and its ``text`` is the
    list of its records' texts, verbatim.
    """

    text: Union[str, Sequence[str]]
    texts: Sequence[Sequence[str]]
    columns: Sequence[Sequence[Any]]
    regular: bool

    @property
    def count(self) -> int:
        """How many records the block holds."""
        return len(self.texts[0]) if self.texts else 0

    @property
    def lines(self) -> Sequence[str]:
        """Each record's text without terminator."""
        return self.text.split("\n") if self.regular else self.text


class CsvScan:
    """One pass over the records a byte range of a CSV stream owns.

    ``chunks`` is the stream from object offset ``range_start`` on (see
    the module docstring for ownership); ``skip_header`` discards the
    first owned record unseen.  ``filters`` is an optional conjunctive
    source-filter list, compiled once into a
    :class:`~repro.sql.kernels.FilterMask` that :meth:`select`,
    :meth:`batches` and :meth:`rows` apply.  ``log`` receives one line
    per dropped record.

    ``records_in`` and ``dropped`` count the records framed and dropped
    so far (the header is neither).  ``evaluations`` counts the filter
    evaluations by domain (the ``FilterMask`` tally: ``rows_c``,
    ``rows``, ...) and ``column_checks`` the columns of regular blocks
    by how they were validated: ``typed``, ``proven`` by
    :func:`numeric_proof`, or ``parsed`` where the proof did not hold
    (an unread STRING or BOOL column needs no check and is not counted).
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
        self.evaluations: Counter = Counter()
        self.column_checks: Counter = Counter()
        self._blocks = _owned_blocks(chunks, range_start, range_len)
        # Widths are read off the delimiter skeleton for a one-byte
        # delimiter, else record by record.
        self._skeleton_delimiter = (
            delimiter.encode("ascii") if len(delimiter) == 1 and delimiter.isascii() else None
        )
        self._skip_header = skip_header
        self._mask = FilterMask(filters, schema) if filters else None
        self._filtered = {
            schema.index_of(name) for item in filters for name in item.references()
        }
        self._log = log

    def blocks(self, read: Optional[Iterable[int]] = None) -> Iterator[RecordBlock]:
        """Every block of validated records, unfiltered, in stream order.

        ``read`` names the column positions the caller reads typed
        (every column when ``None``); a regular block types those and
        the filters' columns only.  A block may be empty (all dropped,
        or only the header): a block is yielded for every stretch of
        input framed.  Nothing here holds a block once it is yielded, so
        a caller that drops it before asking for the next keeps one
        block alive, not two.
        """
        typed = set(range(len(self.schema)) if read is None else read)
        typed |= self._filtered
        return map(partial(self._record_block, typed), self._blocks)

    def select(self, block: RecordBlock) -> Optional[List[int]]:
        """Indices of the block's records passing the filters; ``None``
        when every record passes."""
        n = block.count
        if self._mask is None or not n:
            return None
        mask = self._mask.mask(block.columns, n, self.evaluations)
        if mask.count(1) == n:
            return None
        return list(compress(range(n), mask))

    def batches(
        self, projection: Optional[Sequence[int]] = None
    ) -> Iterator[ColumnBatch]:
        """The typed records passing the filters, a column batch per
        block that keeps any, optionally projected to the given column
        positions (the only columns typed besides the filters'): a
        block's typed columns as they are, never a row."""
        schema = self.schema
        if projection is not None:
            schema = Schema([schema.fields[index] for index in projection])

        def batch(block: RecordBlock) -> Optional[ColumnBatch]:
            columns, count = block.columns, block.count
            if projection is not None:
                columns = [columns[index] for index in projection]
            picked = self.select(block)
            if picked is not None:
                columns = [take_column(column, picked) for column in columns]
                count = len(picked)
            return ColumnBatch(schema, columns, count) if count else None

        # Mapped, like the blocks: a block (its texts above all) is gone
        # once its batch is built.
        return filter(None, map(batch, self.blocks(projection)))

    def rows(self, projection: Optional[Sequence[int]] = None) -> Iterator[Row]:
        """:meth:`batches`, flattened to typed rows."""
        for batch in self.batches(projection):
            yield from batch.rows

    # -- the two paths ------------------------------------------------------

    def _record_block(
        self, typed: Set[int], block: Union[bytes, List[bytes]]
    ) -> RecordBlock:
        """One framed block through the regular or the record path."""
        if self._skip_header:
            self._skip_header = False
            if isinstance(block, list):
                block = block[1:]
            elif b"\n" in block:
                block = block.partition(b"\n")[2]
            else:
                block = []  # nothing but the header
        if isinstance(block, bytes):
            regular = self._regular_block(block, typed)
            if regular is not None:
                return regular
            block = [line.rstrip(b"\r") for line in block.split(b"\n")]
        return self._checked_block(block)

    def _regular_block(
        self, data: bytes, typed: Set[int]
    ) -> Optional[RecordBlock]:
        """Type the ``typed`` columns of a run of quote-free records and
        validate the rest, or ``None`` if the run is not provably
        regular."""
        delimiter, width = self.delimiter, len(self.schema)
        skeleton_delimiter = self._skeleton_delimiter
        if b"\r" in data or len(delimiter) != 1:
            return None
        if skeleton_delimiter is not None and not uniform_width(
            data, skeleton_delimiter, width
        ):
            return None
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if skeleton_delimiter is None and set(
            map(str.count, text.split("\n"), repeat(delimiter))
        ) != {width - 1}:
            return None
        # Every record has exactly ``width`` fields, so the flat field
        # list is row-major and a stride slice is a column.  (A longer
        # delimiter could straddle the joints; one character cannot.)
        flat = text.replace("\n", delimiter).split(delimiter)
        texts = [flat[index::width] for index in range(width)]
        del flat  # the fields live on in ``texts``
        columns: List[Optional[Sequence[Any]]] = [None] * width
        checks: List[str] = []
        try:
            for index, (field, column) in enumerate(zip(self.schema.fields, texts)):
                dtype = field.dtype
                if index in typed:
                    columns[index] = dtype.parse_column(column)
                    checks.append("typed")
                elif dtype is DataType.INT or dtype is DataType.FLOAT:
                    if numeric_proof(column, dtype is DataType.FLOAT):
                        checks.append("proven")
                    else:
                        dtype.parse_column(column)
                        checks.append("parsed")
        except ValueError:
            return None
        self.column_checks.update(checks)
        self.records_in += len(texts[0])
        return RecordBlock(text, texts, columns, True)

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
