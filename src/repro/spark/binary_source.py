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

from repro.connector.stocator import StocatorConnector
from repro.csvscan import parse_record
from repro.sql.types import DataType, Field, Row, Schema
from repro.spark.datasources import PrunedScan
from repro.spark.rdd import RDD
from repro.storlets.engine import StorletRequestHeaders
from repro.swift.exceptions import SwiftError

#: The object name is always available as a pseudo-column.
NAME_COLUMN = "object_name"
SIZE_COLUMN = "payload_bytes"


class MetadataScanRDD(RDD[Row]):
    """One partition per binary object; each invokes the extractor.

    ``objects`` is ``(name, size)`` per object, from the relation's
    sized listing, so a partition makes one request: the extractor GET.
    """

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        objects: List[Tuple[str, int]],
        tag_columns: List[str],
        output_schema: Schema,
        include_size: bool,
        storlet_name: str = "metaextract",
    ):
        super().__init__(context)
        self.name = "MetadataScan"
        self.connector = connector
        self.container = container
        self.objects = objects
        self.tag_columns = tag_columns
        self.output_schema = output_schema
        self.include_size = include_size
        self.storlet_name = storlet_name

    def num_partitions(self) -> int:
        return len(self.objects)

    def compute(self, split: int) -> Iterator[Row]:
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
            return iter(())
        values: List[object] = [object_name]
        cursor = 0
        for name in self.output_schema.names[1:]:
            dtype = self.output_schema.field(name).dtype
            text = fields[cursor] if cursor < len(fields) else ""
            try:
                values.append(dtype.parse(text))
            except (ValueError, TypeError):
                values.append(None)
            cursor += 1
        return iter([tuple(values)])


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
        # The extractor always returns the declared tags (the header is
        # tiny); pruning happens when typing the output rows.
        rdd = MetadataScanRDD(
            self.context,
            self.connector,
            self.container,
            list(self._objects),
            self.tag_schema.names,
            self._schema,
            self.include_size,
        )
        columns = list(required_columns) or [self.count_column(())]
        positions = [self._schema.index_of(name) for name in columns]
        if positions == list(range(len(self._schema))):
            return rdd
        return rdd.map(
            lambda row: tuple(row[position] for position in positions)
        )

    def build_scan(self) -> RDD:
        return self.build_scan_pruned(self._schema.names)
