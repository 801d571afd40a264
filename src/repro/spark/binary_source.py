"""A Spark data source over binary objects' metadata (Section VII).

Pairs the :class:`~repro.storlets.metadata_storlet.MetadataExtractorStorlet`
with a relation so that SQL runs over the *metadata* of binary objects
(simulated JPEGs with EXIF-ish tags) without ever ingesting their
payloads -- "to pair a Storlet that does a certain function, e.g.
extract textual metadata from a binary object, to an appropriate RDD
that is Storlet-aware".
"""

from __future__ import annotations

import json
from typing import Iterator, List, Sequence, Tuple

from repro.columnar.batch import ColumnBatch
from repro.connector.stocator import StocatorConnector
from repro.csvscan import parse_record
from repro.sql.types import DataType, Field, Schema
from repro.spark.datasources import PrunedScan
from repro.spark.rdd import RDD
from repro.storlets.engine import StorletRequestHeaders
from repro.swift.exceptions import SwiftError

#: The object name is always available as a pseudo-column.
NAME_COLUMN = "object_name"
SIZE_COLUMN = "payload_bytes"


class MetadataScanRDD(RDD):
    """One partition per binary object; each invokes the extractor and
    yields one single-row ``ColumnBatch`` of ``columns``.

    ``objects`` is ``(name, size)`` per object, from the relation's
    sized listing, so a partition makes one request: the extractor GET.
    The extractor always returns every declared tag (the header is
    tiny); ``columns`` prunes when the row is typed.
    """

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        objects: List[Tuple[str, int]],
        tag_columns: List[str],
        schema: Schema,
        columns: Sequence[str],
        include_size: bool,
        storlet_name: str = "metaextract",
    ):
        super().__init__(context)
        self.name = "MetadataScan"
        self.connector = connector
        self.container = container
        self.objects = objects
        self.tag_columns = tag_columns
        self.schema = schema
        self.output_schema = schema.select(columns)
        self._positions = [schema.index_of(name) for name in columns]
        self.include_size = include_size
        self.storlet_name = storlet_name

    def num_partitions(self) -> int:
        return len(self.objects)

    def compute_batches(self, split: int) -> Iterator[ColumnBatch]:
        object_name, object_size = self.objects[split]
        headers = {
            StorletRequestHeaders.RUN: self.storlet_name,
            StorletRequestHeaders.RUN_ON: "object",
        }
        StorletRequestHeaders.set_parameters(
            headers,
            {
                "tags": json.dumps(self.tag_columns),
                "include_size": "true" if self.include_size else "false",
            },
        )
        response_headers, body = self.connector.client.get_object(
            self.container, object_name, headers=headers
        )
        if StorletRequestHeaders.INVOKED not in response_headers:
            raise SwiftError(
                f"metadata extraction was not executed for "
                f"/{self.container}/{object_name}"
            )
        self.connector.metrics.record(len(body), object_size, pushdown=True)

        line = body.rstrip(b"\n")
        fields = parse_record(line, ",") if line else None
        if fields is None:
            return
        row: List[object] = [object_name]
        for cursor, field in enumerate(self.schema.fields[1:]):
            text = fields[cursor] if cursor < len(fields) else ""
            try:
                row.append(field.dtype.parse(text))
            except (ValueError, TypeError):
                row.append(None)
        yield ColumnBatch(
            self.output_schema, [[row[position]] for position in self._positions], 1
        )


class BinaryMetadataRelation(PrunedScan):
    """SQL over the tag headers of a container of binary objects.

    ``tag_schema`` declares the tags and their types, e.g.
    ``Schema.of("camera", "iso:int", "width:int", "height:int")``.  The
    relation exposes ``object_name`` first and, when ``include_size``,
    ``payload_bytes`` last.
    """

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        tag_schema: Schema,
        prefix: str = "",
        include_size: bool = True,
    ):
        self.context = context
        self.connector = connector
        self.container = container
        self.prefix = prefix
        self.tag_schema = tag_schema
        self.include_size = include_size
        self._objects = [
            (entry["name"], int(entry["bytes"]))
            for entry in connector.client.list_objects_sized(container, prefix=prefix)
        ]
        fields = [Field(NAME_COLUMN, DataType.STRING)]
        fields.extend(tag_schema.fields)
        if include_size:
            fields.append(Field(SIZE_COLUMN, DataType.INT))
        self._schema = Schema(fields)

    def schema(self) -> Schema:
        return self._schema

    def build_scan_pruned(self, required_columns: Sequence[str]) -> RDD:
        return MetadataScanRDD(
            self.context,
            self.connector,
            self.container,
            list(self._objects),
            self.tag_schema.names,
            self._schema,
            list(required_columns) or [self.count_column(())],
            self.include_size,
        )

    def build_scan(self) -> RDD:
        return self.build_scan_pruned(self._schema.names)
