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
readers, schema inference -- and the GROUP-BY task, which only the CSV
side of the store can run.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, List, Optional, Sequence

from repro.connector.stocator import ObjectSplit, StocatorConnector
from repro.columnar.batch import ColumnBatch
from repro.core.pushdown import PushdownTask
from repro.csvscan import CsvScan, parse_record
from repro.sql.filters import Filter
from repro.sql.types import DataType, Field, Schema
from repro.spark.agg_source import AggregationScanRDD
from repro.spark.rdd import RDD
from repro.spark.store_source import SplitScanRDD, StoreRelation
from repro.storlets.agg_storlet import DEFAULT_MAX_GROUPS


def plain_csv_batches(
    connector: StocatorConnector,
    split: ObjectSplit,
    schema: Schema,
    has_header: bool,
    delimiter: str,
    filters: Sequence[Filter],
    columns: Optional[Sequence[str]] = None,
) -> Iterator[ColumnBatch]:
    """Read a split without pushdown: plain ranged GET, record
    alignment, selection and projection (``columns``, ``None`` = all)
    on the compute side, all streaming.

    Used for pushdown-disabled scans and as the graceful-degradation
    path after a runtime storlet failure.  The reader applies the
    filters with the storlet's own code, so this row stream is the
    pushdown stream (which mid-stream resume requires).
    """
    projection = None
    if columns is not None:
        projection = [schema.index_of(name) for name in columns]
    _headers, chunks = connector.open_split_stream(split, task=None)
    return CsvScan(
        chunks,
        schema,
        delimiter,
        range_start=split.start,
        range_len=split.length,
        skip_header=has_header and split.is_first,
        filters=filters,
    ).batches(projection)


class CsvScanRDD(SplitScanRDD):
    """One partition per byte-range split of a CSV object."""

    def __init__(self, *scan, has_header: bool = False, delimiter: str = ",", **kwargs):
        super().__init__(*scan, **kwargs)
        self.has_header = has_header
        self.delimiter = delimiter

    def _pushdown_batches(self, split: ObjectSplit) -> Iterator[ColumnBatch]:
        """Stream a split through the pushdown storlet, chunk by chunk.

        The storlet already aligned records, applied the filters and
        projected the columns, so parsing uses the output schema and no
        header or split-ownership handling is needed.
        """
        chunks = self._open_pushdown(split, self.task)
        return CsvScan(chunks, self.output_schema, self.delimiter).batches()

    def _plain_batches(self, split: ObjectSplit) -> Iterator[ColumnBatch]:
        columns = None
        if len(self.output_schema) != len(self.full_schema):
            columns = self.output_schema.names
        return plain_csv_batches(
            self.connector,
            split,
            self.full_schema,
            self.has_header,
            self.delimiter,
            self.filters,
            columns,
        )


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
        agg_pushdown: Optional[bool] = None,
        **decision,
    ):
        self.framing = {"has_header": has_header, "delimiter": delimiter}
        if schema is None:
            schema = infer_csv_schema(
                connector, container, prefix, has_header, delimiter
            )
        # Partition discovery happens at relation creation, before any
        # query is specified (paper Section V-B).  Record alignment
        # slides any split boundary that would land inside a quoted
        # field to the next record start (demoting an object whose
        # quoting never closes to a single split), so parallel ranged
        # reads of quoted CSV frame correctly.
        splits = connector.discover_partitions(
            container, prefix, record_aligned=True
        )
        super().__init__(
            context, connector, container, prefix, schema, splits, **decision
        )
        # GROUP-BY pushdown defaults to following the placement engine's
        # presence, since partial aggregation is only worth planning
        # when placement is a decision.
        if agg_pushdown is None:
            agg_pushdown = self.delegator.placement is not None
        self.agg_pushdown = agg_pushdown

    def build_aggregation_scan(
        self, plan, max_groups: int = DEFAULT_MAX_GROUPS
    ) -> Optional[RDD]:
        """Build the tagged-partial aggregation scan for ``plan`` (an
        :class:`~repro.core.agg_pushdown.AggregationPlan`), or ``None``
        when this relation should stay on the ordinary scan path.

        GROUP-BY pushdown is gated on ``agg_pushdown`` (which defaults
        to "a placement engine is present") and rides the same decision
        as filter pushdown: the controller can veto it under storage
        pressure, and the placement engine picks the tier -- including
        sending it compute-side, which also returns ``None``.
        """
        if not (self.pushdown and self.agg_pushdown):
            self.delegator.decline("agg_pushdown_off", self.tenant, self.container)
            return None
        splits = self.connector.catalog_filter_splits(self._splits, list(plan.filters))
        task = self._delegate(
            PushdownTask(
                schema=self._schema,
                filters=list(plan.filters),
                storlet="aggstorlet",
                aggregation=plan.spec.to_json(),
                max_groups=max_groups,
                **self.framing,
            ),
            splits,
        )
        if task is None:
            return None
        # Degradation reads the split plainly under the task's filters:
        # the typed, filtered row stream every other degraded scan sees.
        plain_batches = partial(
            plain_csv_batches,
            self.connector,
            schema=self._schema,
            filters=task.filters,
            **self.framing,
        )
        return AggregationScanRDD(
            self.context, self.connector, splits, plan, task, plain_batches
        )


def infer_csv_schema(
    connector: StocatorConnector,
    container: str,
    prefix: str = "",
    has_header: bool = False,
    delimiter: str = ",",
    sample_rows: int = 100,
) -> Schema:
    """Infer column names/types from the first object's head.

    Names come from the header line when present (``_c<i>`` otherwise);
    a type is INT/FLOAT only if every sampled value parses as one.
    """
    names = connector.client.list_objects(container, prefix=prefix, limit=1)
    if not names:
        raise ValueError(
            f"cannot infer schema: no objects under /{container}/{prefix}"
        )
    _headers, head = connector.client.get_object(
        container, names[0], byte_range=(0, 256 * 1024)
    )
    connector.count_discovery_bytes("schema", head)
    lines = head.split(b"\n")
    records = [
        parse_record(line, delimiter)
        for line in lines[: sample_rows + 1]
        if line.strip()
    ]
    records = [record for record in records if record]
    if not records:
        raise ValueError(f"cannot infer schema: /{container}/{names[0]} empty")
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
