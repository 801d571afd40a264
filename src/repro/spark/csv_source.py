"""The Spark-CSV relation, extended with object-store pushdown.

This is the paper's modified Spark-CSV library (Section V-A): a
``PrunedFilteredScan`` whose scan RDD has one partition per object-store
byte-range split.  With pushdown enabled, each task's GET request is
tagged with a :class:`~repro.core.pushdown.PushdownTask` so the CSV
storlet filters at the storage node and only matching bytes travel;
with pushdown disabled the full range is ingested and the selection and
projection happen in the scan, on the compute cluster (classic
ingest-then-compute).  The relation, the decision and the scan skeleton
are :mod:`repro.spark.store_source`'s; this module supplies what is CSV:
record-aligned discovery, the framing (header, delimiter), the two
readers and schema inference.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.connector.stocator import ObjectSplit, StocatorConnector
from repro.columnar.batch import ColumnBatch
from repro.csvscan import CsvScan, owned_records, parse_record
from repro.sql.types import DataType, Field, Schema
from repro.spark.store_source import SplitScanRDD, StoreRelation


class CsvScanRDD(SplitScanRDD):
    """One partition per byte-range split of a CSV object."""

    def __init__(self, *scan, has_header: bool = False, delimiter: str = ",", **kwargs):
        super().__init__(*scan, **kwargs)
        self.has_header = has_header
        self.delimiter = delimiter

    def _pushdown_batches(self, split: ObjectSplit) -> Iterator[ColumnBatch]:
        """Stream a split through the pushdown storlet, chunk by chunk.

        The storlet already applied the filters and projected the
        columns, so parsing uses the output schema and no header
        handling is needed.
        """
        chunks = self._pushdown_response(split)
        return CsvScan(chunks, self.output_schema, self.delimiter).batches()

    def _plain_batches(self, split: ObjectSplit) -> Iterator[ColumnBatch]:
        """Read a split without pushdown: plain ranged GET of the split's
        records, selection and projection on the compute side, all
        streaming.  The reader types only the projected columns and the
        filters'; the others are validated, so the drop rule is the same
        whatever is projected.  It applies the filters with the
        storlet's own code, so this row stream is the pushdown stream
        (which mid-stream resume requires)."""
        schema = self.full_schema
        projection = None
        if len(self.output_schema) != len(schema):
            projection = [schema.index_of(name) for name in self.output_schema.names]
        _headers, chunks = self.connector.open_split_stream(split, task=None)
        return CsvScan(
            chunks,
            schema,
            self.delimiter,
            skip_header=self.has_header and split.is_first,
            filters=self.filters,
        ).batches(projection)


class CsvRelation(StoreRelation):
    """CSV data in an object-store container, optionally pushdown-enabled."""

    storlet = "csvstorlet"
    scan_rdd = CsvScanRDD

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        prefix: str = "",
        schema: Optional[Schema] = None,
        has_header: bool = False,
        delimiter: str = ",",
        **decision,
    ):
        self.framing = {"has_header": has_header, "delimiter": delimiter}
        if schema is None:
            schema = infer_csv_schema(
                connector, container, prefix, has_header, delimiter
            )
        # Partition discovery happens at relation creation, before any
        # query is specified (paper Section V-B).  Every split starts at
        # a record start, quoted fields and all, so parallel ranged reads
        # frame exactly their own records.
        splits = connector.discover_partitions(
            container, prefix, record_aligned=True
        )
        super().__init__(
            context, connector, container, prefix, schema, splits, **decision
        )


def infer_csv_schema(
    connector: StocatorConnector,
    container: str,
    prefix: str = "",
    has_header: bool = False,
    delimiter: str = ",",
    sample_rows: int = 100,
) -> Schema:
    """Infer column names/types from the head of the first object that
    is not empty (one sized listing finds it).

    Names come from the header line when present (``_c<i>`` otherwise);
    a type is INT/FLOAT only if every sampled value parses as one.
    """
    listing = connector.client.list_objects_sized(container, prefix=prefix)
    if not listing:
        raise ValueError(
            f"cannot infer schema: no objects under /{container}/{prefix}"
        )
    sample = next((entry for entry in listing if entry["bytes"]), None)
    if sample is None:
        raise ValueError(
            f"cannot infer schema: every object under /{container}/{prefix} is empty"
        )
    name = sample["name"]
    _headers, head = connector.client.get_object(
        container, name, byte_range=(0, 256 * 1024)
    )
    connector.count_discovery_bytes("schema", head)
    # Framed like a scan frames it: a quoted field may hold newlines.
    lines = list(owned_records([head]))
    if len(head) < sample["bytes"]:
        lines.pop()  # the head stops inside its last record
    records = [
        parse_record(line, delimiter)
        for line in lines[: sample_rows + 1]
        if line.strip()
    ]
    records = [record for record in records if record]
    if not records:
        raise ValueError(f"cannot infer schema: /{container}/{name} empty")
    if has_header:
        header, records = records[0], records[1:]
    else:
        header = [f"_c{i}" for i in range(len(records[0]))]
    width = len(header)
    records = [record for record in records if len(record) == width]

    fields = []
    for position, name in enumerate(header):
        values = [record[position] for record in records]
        fields.append(Field(name, _infer_column_type(values)))
    return Schema(fields)


def _infer_column_type(values: List[str]) -> DataType:
    non_empty = [value for value in values if value != ""]
    if not non_empty:
        return DataType.STRING
    if all(_parses_as_int(value) for value in non_empty):
        return DataType.INT
    if all(_parses_as_float(value) for value in non_empty):
        return DataType.FLOAT
    return DataType.STRING


def _parses_as_int(value: str) -> bool:
    try:
        int(value)
        return True
    except ValueError:
        return False


def _parses_as_float(value: str) -> bool:
    try:
        float(value)
        return True
    except ValueError:
        return False
