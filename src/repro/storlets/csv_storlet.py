"""The CSV pushdown storlet: SQL projections/selections next to the disk.

This is the proof-of-concept filter the paper contributes (Section V-A):
"it gets as input a stream of the locally stored CSV formatted data along
with the projection and selection filters as extracted by Catalyst, and
outputs the filtered data."

Record framing, Hadoop byte-range ownership (so that parallel Spark
tasks cover every record exactly once), typing and the drop rule are
:mod:`repro.csvscan`'s; this module selects, projects and renders what
the scan keeps, a block at a time.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

from repro.csvscan import CsvScan, RecordBlock, render_record
from repro.sql.filters import filters_from_json
from repro.sql.types import Schema
from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletInputStream,
    StorletLogger,
)


class CsvStorlet(IStorlet):
    """Projection + selection over a (byte range of a) CSV object.

    Parameters (all strings, from ``X-Storlet-Parameter-*`` headers):

    ``schema``
        Required column layout, ``name:type,name:type...``.
    ``columns``
        Optional JSON list of column names to project (base-schema order
        is preserved in the output).
    ``filters``
        Optional JSON conjunctive filter list
        (see :mod:`repro.sql.filters`).
    ``range_start`` / ``range_len``
        Logical byte range of this invocation (set by the middleware
        from ``X-Storlet-Range``).
    ``has_header``
        "true" if the object's first line is a header (skipped when this
        invocation covers offset 0).
    ``emit_header``
        "true" to emit the projected header line when covering offset 0.
    ``delimiter``
        Field delimiter, default ``,``.
    """

    name = "csvstorlet"

    OUTPUT_CHUNK = 64 * 1024

    def process(
        self,
        in_stream: StorletInputStream,
        parameters: Dict[str, str],
        logger: StorletLogger,
        metadata: Dict[str, str],
    ) -> Iterator[bytes]:
        schema_text = parameters.get("schema")
        if not schema_text:
            raise StorletException("CsvStorlet requires a 'schema' parameter")
        schema = Schema.from_header(schema_text)
        delimiter = parameters.get("delimiter", ",")

        columns = None
        if parameters.get("columns"):
            names = json.loads(parameters["columns"])
            # Output preserves base-schema column order regardless of the
            # order the request listed them in.
            columns = sorted(schema.index_of(name) for name in names)

        filters = ()
        if parameters.get("filters"):
            filters = filters_from_json(parameters["filters"])

        range_start = int(parameters.get("range_start", 0))
        range_len_text = parameters.get("range_len")
        range_len = int(range_len_text) if range_len_text is not None else None
        has_header = parameters.get("has_header", "false").lower() == "true"
        emit_header = parameters.get("emit_header", "false").lower() == "true"
        skip_header = has_header and range_start == 0

        scan = CsvScan(
            in_stream.iter_chunks(),
            schema,
            delimiter,
            range_start=range_start,
            range_len=range_len,
            skip_header=skip_header,
            filters=filters,
            log=logger.emit,
        )
        rows_out = 0

        def output_blocks() -> Iterator[bytes]:
            nonlocal rows_out
            header_pending = skip_header and emit_header
            for block in scan.blocks():
                if header_pending:
                    # The first block exists because a first record --
                    # the header -- did.
                    header_pending = False
                    names = schema.names
                    if columns is not None:
                        names = [names[index] for index in columns]
                    yield (delimiter.join(names) + "\n").encode("utf-8")
                picked = scan.select(block)
                kept = block.count if picked is None else len(picked)
                if kept:
                    rows_out += kept
                    yield _render_block(block, picked, columns, delimiter)

        yield from _coalesce(output_blocks(), self.OUTPUT_CHUNK)
        metadata.update(
            {
                "x-object-meta-storlet-rows-in": str(scan.records_in),
                "x-object-meta-storlet-rows-out": str(rows_out),
                "x-object-meta-storlet-rows-dropped": str(scan.dropped),
            }
        )
        logger.emit(
            f"csvstorlet: {scan.records_in} rows in, {rows_out} rows out, "
            f"{scan.dropped} dropped"
        )


def _render_block(
    block: RecordBlock,
    picked: Optional[List[int]],
    columns: Optional[List[int]],
    delimiter: str,
) -> bytes:
    """Serialize the picked records (all, when ``picked`` is None; never
    none) of a block, projected to ``columns`` (verbatim, when None)."""
    if columns is None:
        lines = block.lines
        if picked is not None:
            lines = [lines[i] for i in picked]
    else:
        texts = [block.texts[index] for index in columns]
        if picked is not None:
            texts = [[column[i] for i in picked] for column in texts]
        if not block.regular:
            return b"".join(
                render_record(fields, delimiter) for fields in zip(*texts)
            )
        lines = map(delimiter.join, zip(*texts))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _coalesce(lines: Iterator[bytes], chunk_size: int) -> Iterator[bytes]:
    """Group small output records into chunk-size writes.

    Keeps the pipeline's per-stage overhead bounded: downstream stages
    (and byte accounting) see O(object_size / chunk_size) chunks instead
    of one per record, while memory stays O(chunk_size).
    """
    pending: List[bytes] = []
    pending_size = 0
    for line in lines:
        pending.append(line)
        pending_size += len(line)
        if pending_size >= chunk_size:
            yield b"".join(pending)
            pending = []
            pending_size = 0
    if pending:
        yield b"".join(pending)
