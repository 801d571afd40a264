"""PUT-path ETL storlets: cleansing and column splitting.

"ETL often requires data transformations.  Storlets permits this in the
PUT data path.  We use Storlet for data cleansing and for modifying the
data format (e.g., split a column into multiple ones)" (paper Section
V-A).  The GridPocket datasets were "cleansed by an ETL storlet" on
upload (Section VI); these two storlets reproduce that stage.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

from repro.catalog import CatalogBuilder
from repro.csvscan import owned_records, parse_record, render_record
from repro.sql.types import Row, Schema
from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletInputStream,
    StorletLogger,
    has_header,
)
from repro.storlets.csv_storlet import _coalesce


class CleansingStorlet(IStorlet):
    """Drops malformed records and normalizes fields on upload.

    Parameters:

    ``schema``
        Required column layout (``name:type,...``); records that do not
        type-check against it are dropped.
    ``trim``
        "true" (default) to strip whitespace from every field.
    ``drop_empty``
        "true" (default) to drop records where every field is empty.
    ``has_header``
        "true" if line 0 is a header (it is validated and kept).
    ``delimiter``
        Default ``,``.
    """

    name = "etl-cleanse"

    OUTPUT_CHUNK = 64 * 1024
    CATALOG_BATCH_ROWS = 1024

    def process(
        self,
        in_stream: StorletInputStream,
        parameters: Dict[str, str],
        logger: StorletLogger,
        metadata: Dict[str, str],
    ) -> Iterator[bytes]:
        schema_text = parameters.get("schema")
        if not schema_text:
            raise StorletException("CleansingStorlet requires 'schema'")
        schema = Schema.from_header(schema_text)
        delimiter = parameters.get("delimiter", ",")
        trim = parameters.get("trim", "true").lower() == "true"
        drop_empty = parameters.get("drop_empty", "true").lower() == "true"
        headed = has_header(parameters)

        counters = {"kept": 0, "dropped": 0}
        # Per-object skipping stats over the typed image of exactly the
        # records kept, so the catalog always describes the stored CSV;
        # folded a batch of rows at a time, column-wise.
        catalog = CatalogBuilder(schema)
        batch: List[Row] = []

        def fold_batch() -> None:
            if batch:
                catalog.add_columns(list(zip(*batch)))
                batch.clear()

        def output_lines() -> Iterator[bytes]:
            first = True
            for raw_line in owned_records(in_stream.iter_chunks()):
                if first and headed:
                    first = False
                    yield raw_line + b"\n"
                    continue
                first = False
                fields = parse_record(raw_line, delimiter)
                if fields is None or len(fields) != len(schema):
                    counters["dropped"] += 1
                    continue
                if trim:
                    fields = [field.strip() for field in fields]
                if drop_empty and all(field == "" for field in fields):
                    counters["dropped"] += 1
                    continue
                try:
                    typed = schema.parse_row(fields)
                except (ValueError, TypeError):
                    counters["dropped"] += 1
                    continue
                batch.append(typed)
                if len(batch) >= self.CATALOG_BATCH_ROWS:
                    fold_batch()
                yield render_record(fields, delimiter)
                counters["kept"] += 1

        yield from _coalesce(output_lines(), self.OUTPUT_CHUNK)
        fold_batch()
        logger.emit(
            f"etl-cleanse: kept {counters['kept']}, "
            f"dropped {counters['dropped']}"
        )
        metadata.update(
            {
                "x-object-meta-etl-kept": str(counters["kept"]),
                "x-object-meta-etl-dropped": str(counters["dropped"]),
            }
        )
        metadata.update(catalog.to_metadata())


class ColumnSplitStorlet(IStorlet):
    """Splits one column into several on upload.

    The canonical GridPocket use: split a combined ``"date time"``
    timestamp column into separate ``date`` and ``time`` columns so that
    downstream queries can filter each part cheaply.

    Parameters:

    ``column``
        0-based index of the column to split.
    ``separator``
        Substring to split on (default one space).
    ``parts``
        Expected number of output parts; records whose column does not
        split into exactly this many parts are passed through with empty
        padding.
    ``has_header``
        "true" to transform the header line too, using ``header_names``.
    ``header_names``
        JSON list of names replacing the split column's header.
    ``delimiter``
        Default ``,``.
    """

    name = "etl-split"

    OUTPUT_CHUNK = 64 * 1024

    def process(
        self,
        in_stream: StorletInputStream,
        parameters: Dict[str, str],
        logger: StorletLogger,
        metadata: Dict[str, str],
    ) -> Iterator[bytes]:
        if "column" not in parameters:
            raise StorletException("ColumnSplitStorlet requires 'column'")
        column = int(parameters["column"])
        separator = parameters.get("separator", " ")
        parts = int(parameters.get("parts", "2"))
        delimiter = parameters.get("delimiter", ",")
        headed = has_header(parameters)
        header_names: Optional[List[str]] = None
        if parameters.get("header_names"):
            header_names = json.loads(parameters["header_names"])

        counters = {"count": 0}

        def output_lines() -> Iterator[bytes]:
            first = True
            for raw_line in owned_records(in_stream.iter_chunks()):
                fields = parse_record(raw_line, delimiter)
                if fields is None or column >= len(fields):
                    yield raw_line + b"\n"
                    continue
                if first and headed:
                    first = False
                    replacement = header_names or [
                        f"{fields[column]}_{i}" for i in range(parts)
                    ]
                    fields[column : column + 1] = replacement
                    yield render_record(fields, delimiter)
                    continue
                first = False
                pieces = fields[column].split(separator)
                if len(pieces) < parts:
                    pieces = pieces + [""] * (parts - len(pieces))
                elif len(pieces) > parts:
                    pieces = pieces[: parts - 1] + [
                        separator.join(pieces[parts - 1 :])
                    ]
                fields[column : column + 1] = pieces
                yield render_record(fields, delimiter)
                counters["count"] += 1

        yield from _coalesce(output_lines(), self.OUTPUT_CHUNK)
        logger.emit(f"etl-split: transformed {counters['count']} records")
