"""The CSV pushdown storlet: SQL projections/selections next to the disk.

This is the proof-of-concept filter the paper contributes (Section V-A):
"it gets as input a stream of the locally stored CSV formatted data along
with the projection and selection filters as extracted by Catalyst, and
outputs the filtered data."

Record framing, typing and the drop rule are :mod:`repro.csvscan`'s; the
byte range a task reads holds whole records, as discovery planned it, so
the storlet frames every byte it is handed.  This module selects,
projects and renders what the scan keeps, a block at a time.  It renders
raw texts, so the scan types only the columns the filters reference.  A task carrying an
``aggregation`` is answered by partial aggregation over the scan's
batches instead (:mod:`repro.storlets.aggregation`).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

from repro.columnar.batch import ColumnBatch
from repro.csvscan import BLOCK_BYTES, CsvScan, RecordBlock, render_record
from repro.sql.filters import filters_from_json
from repro.sql.types import Schema
from repro.storlets.aggregation import partial_lines
from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletInputStream,
    StorletLogger,
    has_header,
    publish_counts,
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
    ``range_start``
        Object offset of the first byte this invocation reads (set by
        the middleware from ``X-Storlet-Range``).
    ``has_header``
        "true" if the object's first line is a header (skipped when this
        invocation covers offset 0).
    ``emit_header``
        "true" to emit the projected header line when covering offset 0.
    ``delimiter``
        Field delimiter, default ``,``.
    ``aggregation`` / ``max_groups``
        Optional :class:`~repro.storlets.aggregation.AggregationSpec`
        JSON (and its group bound): answer with the partial-aggregation
        records of the projected, filtered rows instead of the rows.
    """

    name = "csvstorlet"
    tallies = (
        ("filter_evaluations", "filter-evals", "domain"),
        ("csv_columns", "columns", "how"),
        ("rows_ruled_out", "rows-ruled-out", None),
    )

    OUTPUT_CHUNK = BLOCK_BYTES

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
        emit_header = parameters.get("emit_header", "false").lower() == "true"
        skip_header = has_header(parameters) and range_start == 0

        scan = CsvScan(
            in_stream.iter_chunks(),
            schema,
            delimiter,
            skip_header=skip_header,
            filters=filters,
            log=logger.emit,
        )
        rows_out = 0
        header = b""
        if skip_header and emit_header:
            names = schema.names
            if columns is not None:
                names = [names[index] for index in columns]
            header = (delimiter.join(names) + "\n").encode("utf-8")

        def render(block: RecordBlock) -> bytes:
            nonlocal rows_out, header
            # The first block exists because a first record -- the
            # header -- did.
            output, header = header, b""
            picked = scan.select(block)
            kept = block.count if picked is None else len(picked)
            if kept:
                rows_out += kept
                output += _render_block(block, picked, columns, delimiter)
            return output

        if parameters.get("aggregation"):

            def counted(batch: ColumnBatch) -> ColumnBatch:
                nonlocal rows_out
                rows_out += len(batch)
                return batch

            # The projected columns and the filters' are the typed ones.
            out_schema = schema
            if columns is not None:
                out_schema = schema.select([schema.names[index] for index in columns])
            output = partial_lines(map(counted, scan.batches(columns)), parameters, out_schema)
        else:
            # Mapped, so a block is dropped once rendered, before the
            # next is framed.  The output is rendered from the raw
            # texts: no column is read typed beyond those the filters
            # reference.
            output = map(render, scan.blocks(()))
        yield from _coalesce(output, self.OUTPUT_CHUNK)
        metadata.update(
            {
                "x-object-meta-storlet-rows-in": str(scan.records_in),
                "x-object-meta-storlet-rows-out": str(rows_out),
                "x-object-meta-storlet-rows-dropped": str(scan.dropped),
                "x-object-meta-storlet-rows-ruled-out": str(scan.ruled_out),
            }
        )
        # How the filters ran and how each block column was validated:
        # a predicate that fell to the per-cell path or a numeric column
        # whose proof failed shows here.
        publish_counts(
            metadata,
            {"filter-evals": scan.evaluations, "columns": scan.column_checks},
        )
        logger.emit(
            f"csvstorlet: {scan.records_in} rows in, {rows_out} rows out, "
            f"{scan.dropped} dropped, {scan.ruled_out} ruled out"
        )


def _render_block(
    block: RecordBlock,
    picked: Optional[List[int]],
    columns: Optional[List[int]],
    delimiter: str,
) -> bytes:
    """Serialize the picked records (all, when ``picked`` is None; never
    none) of a block, projected to ``columns`` (verbatim, when None).

    A regular block renders from its text or its fields, which join to
    the very same bytes; a record of the record-by-record path keeps its
    own text (quotes and all) unless it is projected or its text would
    not frame back to itself once terminated: an object's last record
    with a quote that never closes, or a trailing carriage return."""
    if columns is None and not block.regular:
        lines = block.text
        if picked is not None:
            lines = [lines[i] for i in picked]
        if all(line.count('"') % 2 == 0 and not line.endswith("\r") for line in lines):
            return ("\n".join(lines) + "\n").encode("utf-8")
    if block.regular and columns is None and picked is None:
        return (block.text + "\n").encode("utf-8")
    texts = block.texts if columns is None else [block.texts[index] for index in columns]
    if picked is not None:
        texts = [[column[i] for i in picked] for column in texts]
    if not block.regular:
        return b"".join(render_record(fields, delimiter) for fields in zip(*texts))
    return ("\n".join(map(delimiter.join, zip(*texts))) + "\n").encode("utf-8")


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
