"""Spark-Storlets: RDDs that invoke storlets directly, bypassing Hadoop.

Section VII describes the authors' follow-up (the spark-storlets
project): "we already extended the Spark RDD to allow the developer to
write Spark jobs that explicitly invoke computations at the object store
via simple primitives.  Thus, our new RDD: i) provides programmatic
means to explicitly execute Storlets in OpenStack Swift from the code of
a Spark task; ii) holds the Storlet invocations output as its
distributed dataset; and iii) embeds the knowledge of partitioning the
input dataset to parallel tasks."

It also fixes the partitioning critique: "the chunk size is not adapted
to object stores.  In object stores it seems more adequate to partition
according to, for instance, the number of replicas and the compute
parallelism available in the nodes."  :func:`object_aware_partitions`
implements exactly that policy, and :class:`StorletRDD` pins successive
partitions of one object to different replicas so parallel reads spread
over the replica set.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.connector.stocator import ObjectSplit, StocatorConnector
from repro.csvscan import owned_records, typed_record
from repro.sql.filters import Filter, filters_to_json
from repro.sql.types import Row, Schema
from repro.spark.datasources import PrunedFilteredScan
from repro.spark.rdd import RDD
from repro.storlets.engine import StorletRequestHeaders
from repro.swift.exceptions import SwiftError


def object_aware_partitions(
    connector: StocatorConnector,
    container: str,
    prefix: str = "",
    parallelism: int = 8,
    replica_count: int = 3,
    min_split_bytes: int = 64 * 1024,
) -> List[ObjectSplit]:
    """Partition a container by replicas and compute parallelism.

    Unlike Hadoop-chunk discovery (a fixed byte size with system-wide
    meaning for HDFS, none for Swift), the split count is derived from
    the deployment: the target is ``parallelism`` concurrent tasks,
    spread proportionally over the objects by size, with at least
    ``replica_count`` splits per object so each replica serves work, and
    no split smaller than ``min_split_bytes``.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1: {parallelism}")
    objects: List[Tuple[str, int]] = []
    for name in connector.client.list_objects(container, prefix=prefix):
        size = int(
            connector.client.head_object(container, name).get(
                "content-length", "0"
            )
        )
        if size > 0:
            objects.append((name, size))
    total = sum(size for _name, size in objects)
    if total == 0:
        return []

    splits: List[ObjectSplit] = []
    index = 0
    for name, size in objects:
        share = max(1, round(parallelism * size / total))
        # At least one split per replica so parallel reads spread over
        # the replica set; beyond that, avoid splits smaller than
        # min_split_bytes.  Never more splits than bytes.
        max_by_size = max(1, size // min_split_bytes)
        count = min(max(share, replica_count), max(max_by_size, replica_count))
        count = max(1, min(count, size))
        base = size // count
        start = 0
        for piece in range(count):
            length = base if piece < count - 1 else size - start
            splits.append(
                ObjectSplit(container, name, start, length, size, index)
            )
            index += 1
            start += length
    return splits


class StorletRDD(RDD[bytes]):
    """An RDD whose partitions are storlet invocations on object ranges.

    Each partition issues one GET tagged ``X-Run-Storlet`` for its byte
    range and yields the invocation's output *lines* -- the distributed
    dataset IS the storlet output.  Successive splits of the same object
    carry ``X-Backend-Replica-Index`` so reads fan out over replicas.
    """

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        splits: Sequence[ObjectSplit],
        storlet_name: str,
        parameters: Dict[str, str],
        replica_count: int = 3,
    ):
        super().__init__(context)
        self.name = "StorletRDD"
        self.connector = connector
        self.splits = list(splits)
        self.storlet_name = storlet_name
        self.parameters = dict(parameters)
        self.replica_count = max(1, replica_count)
        self._replica_for: Dict[int, int] = {}
        per_object: Dict[str, int] = {}
        for split in self.splits:
            replica = per_object.get(split.name, 0)
            self._replica_for[split.index] = replica % self.replica_count
            per_object[split.name] = replica + 1

    def num_partitions(self) -> int:
        return len(self.splits)

    def compute(self, split_index: int) -> Iterator[bytes]:
        split = self.splits[split_index]
        headers = {
            StorletRequestHeaders.RUN: self.storlet_name,
            StorletRequestHeaders.RUN_ON: "object",
            StorletRequestHeaders.RANGE: f"bytes={split.start}-{split.end}",
            "x-backend-replica-index": str(self._replica_for[split.index]),
        }
        StorletRequestHeaders.set_parameters(headers, self.parameters)
        response_headers, body = self.connector.client.get_object(
            split.container, split.name, headers=headers
        )
        if StorletRequestHeaders.INVOKED not in response_headers:
            raise SwiftError(
                f"storlet {self.storlet_name!r} was not executed for "
                f"/{split.container}/{split.name}"
            )
        self.connector.metrics.record(len(body), split.length, pushdown=True)
        return owned_records([body] if body else [])


class StorletCsvRelation(PrunedFilteredScan):
    """The Spark-CSV alternative of Section VII: Hadoop bypassed.

    Same Data Sources contract as
    :class:`~repro.spark.csv_source.CsvRelation`, but the scan is a
    :class:`StorletRDD` over :func:`object_aware_partitions` -- no HDFS
    chunk size anywhere, and pushdown is mandatory (the relation *is*
    storlet-aware).
    """

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        schema: Schema,
        prefix: str = "",
        has_header: bool = False,
        delimiter: str = ",",
        parallelism: Optional[int] = None,
        replica_count: int = 3,
        storlet_name: str = "csvstorlet",
    ):
        self.context = context
        self.connector = connector
        self.container = container
        self.prefix = prefix
        self._schema = schema
        self.has_header = has_header
        self.delimiter = delimiter
        self.replica_count = replica_count
        self.storlet_name = storlet_name
        if parallelism is None:
            parallelism = 2 * len(getattr(context, "workers", [1, 1]))
        self._splits = object_aware_partitions(
            connector,
            container,
            prefix,
            parallelism=parallelism,
            replica_count=replica_count,
        )

    def schema(self) -> Schema:
        return self._schema

    @property
    def splits(self) -> List[ObjectSplit]:
        return list(self._splits)

    def size_in_bytes(self) -> int:
        return sum(split.length for split in self._splits)

    def build_scan_filtered(
        self, required_columns: Sequence[str], filters: Sequence[Filter]
    ) -> RDD:
        import json

        columns = list(required_columns) or self._schema.names
        output_schema = self._schema.select(columns)
        parameters = {
            "schema": self._schema.to_header(),
            "columns": json.dumps(columns),
            "has_header": "true" if self.has_header else "false",
        }
        if self.delimiter != ",":
            parameters["delimiter"] = self.delimiter
        if filters:
            parameters["filters"] = filters_to_json(list(filters))
        raw = StorletRDD(
            self.context,
            self.connector,
            self._splits,
            self.storlet_name,
            parameters,
            self.replica_count,
        )
        delimiter = self.delimiter

        def parse(raw_line: bytes) -> Optional[Row]:
            try:
                return typed_record(raw_line, output_schema, delimiter)[1]
            except ValueError:
                return None

        return raw.map(parse).filter(lambda row: row is not None)

    def build_scan_pruned(self, required_columns: Sequence[str]) -> RDD:
        return self.build_scan_filtered(required_columns, [])

    def build_scan(self) -> RDD:
        return self.build_scan_filtered(self._schema.names, [])
