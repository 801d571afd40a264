"""The Spark-CSV relation, extended with object-store pushdown.

This is the paper's modified Spark-CSV library (Section V-A): a
``PrunedFilteredScan`` whose scan RDD has one partition per object-store
byte-range split.  With pushdown enabled, each task's GET request is
tagged with a :class:`~repro.core.pushdown.PushdownTask` so the CSV
storlet filters at the storage node and only matching bytes travel;
with pushdown disabled the full range is ingested and the selection and
projection happen in the scan, on the compute cluster (classic
ingest-then-compute).  Either way the scan returns exactly the rows
passing the filters it was given, projected -- which is what lets the
relation answer for them (``unhandled_filters``) and the planner drop
them, and the columns only they read, from the plan.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import zlib

from repro.connector.stocator import (
    ObjectSplit,
    PushdownError,
    StocatorConnector,
)
from repro.columnar.batch import ColumnBatch, skip_rows
from repro.core.pushdown import PushdownTask
from repro.csvscan import CsvScan, parse_record
from repro.obs.trace import get_collector
from repro.placement.engine import task_signature
from repro.sql.filters import Filter
from repro.sql.types import DataType, Field, Row, Schema
from repro.spark.batch import DEFAULT_BATCH_ROWS, batched
from repro.spark.datasources import PrunedFilteredScan
from repro.spark.rdd import RDD
from repro.storlets.agg_storlet import DEFAULT_MAX_GROUPS


class CsvScanRDD(RDD[Row]):
    """One partition per object split; computes typed column batches.

    ``compute_batches`` is the native surface: one
    :class:`~repro.columnar.batch.ColumnBatch` per block of records the
    reader (:class:`~repro.csvscan.CsvScan`) typed, columns in the
    output schema's order.  ``compute`` flattens those batches to rows
    for row-oriented consumers, so both views describe the same
    deterministic stream.
    """

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        splits: List[ObjectSplit],
        output_schema: Schema,
        full_schema: Schema,
        task: Optional[PushdownTask],
        has_header: bool,
        delimiter: str,
        filters: Sequence[Filter] = (),
    ):
        super().__init__(context)
        self.name = "CsvScan"
        self.connector = connector
        self.splits = splits
        self.output_schema = output_schema
        self.full_schema = full_schema
        self.task = task
        self.has_header = has_header
        self.delimiter = delimiter
        #: The selection every path applies: the storlet when ``task``
        #: travels, :class:`~repro.csvscan.CsvScan` here when it does not
        #: (pushdown off, vetoed, placed compute-side, or degraded).
        self.filters = list(filters)

    def num_partitions(self) -> int:
        return len(self.splits)

    def compute(self, split_index: int) -> Iterator[Row]:
        for batch in self._batches(self.splits[split_index]):
            yield from batch.rows

    def compute_batches(
        self, split_index: int, batch_rows: int = DEFAULT_BATCH_ROWS
    ) -> Iterator[ColumnBatch]:
        """Block-sized column batches (``batch_rows`` only shapes the
        re-chunking of a cached partition, where rows are materialized
        anyway)."""
        if self._cache is not None:
            return batched(self.iterator(split_index), batch_rows)
        return self._batches(self.splits[split_index])

    def _batches(self, split: ObjectSplit) -> Iterator[ColumnBatch]:
        if self.task is None or self.task.is_noop():
            yield from self._plain_batches(split)
            return
        yield from degrading_batches(
            self.connector,
            split.index,
            lambda: self._pushdown_batches(split),
            lambda: self._plain_batches(split),
        )

    def _pushdown_batches(self, split: ObjectSplit) -> Iterator[ColumnBatch]:
        """Stream a split through the pushdown storlet, chunk by chunk.

        The storlet already aligned records, applied the filters and
        projected the columns, so parsing uses the output schema and no
        header or split-ownership handling is needed.
        """
        assert self.task is not None
        _headers, chunks = self.connector.open_split_stream(split, self.task)
        if self.task.compress:
            chunks = _decompress_chunks(chunks)
        return CsvScan(chunks, self.output_schema, self.delimiter).batches()

    def _plain_batches(self, split: ObjectSplit) -> Iterator[ColumnBatch]:
        """Read a split without pushdown: plain ranged GET, record
        alignment, selection and projection on the compute side, all
        streaming.

        Used for pushdown-disabled scans and as the graceful-degradation
        path after a runtime storlet failure.  The reader applies the
        scan's filters with the storlet's own code, so this row stream
        is the pushdown stream (which mid-stream resume requires).
        """
        projection = None
        if len(self.output_schema) != len(self.full_schema):
            projection = [
                self.full_schema.index_of(name)
                for name in self.output_schema.names
            ]
        _headers, chunks = self.connector.open_split_stream(split, task=None)
        return CsvScan(
            chunks,
            self.full_schema,
            self.delimiter,
            range_start=split.start,
            range_len=split.length,
            skip_header=self.has_header and split.is_first,
            filters=self.filters,
        ).batches(projection)


def degrading_batches(
    connector: StocatorConnector,
    split_index: int,
    pushdown: Callable[[], Iterable[ColumnBatch]],
    plain: Callable[[], Iterable[ColumnBatch]],
) -> Iterator[ColumnBatch]:
    """``pushdown()``'s batches, degrading to ``plain()``'s when the
    storlet fails at runtime.

    The failure may come mid-stream (the sandbox charges its budgets
    chunk by chunk) but the stored bytes are intact: ``plain()`` reads
    them without the storlet and selects with the storlet's own code,
    so its row stream is the pushdown stream -- the rows already
    emitted before the failure are skipped, not duplicated (the batch
    the failure fell in is sliced).
    A non-degradable error propagates.
    """
    emitted = 0
    try:
        for batch in pushdown():
            emitted += len(batch)
            yield batch
        return
    except PushdownError as error:
        if not error.degradable:
            raise
        degrade_reason = error.reason
    connector.metrics.record_fallback()
    get_collector().record_event(
        "connector",
        "pushdown_degraded",
        split_index=split_index,
        reason=degrade_reason,
        rows_before_failure=emitted,
    )
    yield from skip_rows(plain(), emitted)


def _decompress_chunks(chunks: Iterator[bytes]) -> Iterator[bytes]:
    """Streaming inverse of the compress-after-filter storlet: expand a
    zlib stream chunk-by-chunk without materializing either side."""
    decompressor = zlib.decompressobj()
    for chunk in chunks:
        data = decompressor.decompress(chunk)
        if data:
            yield data
    tail = decompressor.flush()
    if tail:
        yield tail


class CsvRelation(PrunedFilteredScan):
    """CSV data in an object-store container, optionally pushdown-enabled."""

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        prefix: str = "",
        schema: Optional[Schema] = None,
        has_header: bool = False,
        delimiter: str = ",",
        pushdown: bool = True,
        storlet_name: str = "csvstorlet",
        run_on: str = "object",
        compress_transfer: bool = False,
        controller=None,
        tenant: str = "default",
        placement=None,
        agg_pushdown: Optional[bool] = None,
    ):
        self.context = context
        self.connector = connector
        self.container = container
        self.prefix = prefix
        self.has_header = has_header
        self.delimiter = delimiter
        self.pushdown = pushdown
        self.storlet_name = storlet_name
        self.run_on = run_on
        self.compress_transfer = compress_transfer
        # Optional Crystal-style adaptive controller (Section VII): when
        # set, every scan consults it and may fall back to plain ingest
        # under storage pressure or for ineffective filters.
        self.controller = controller
        self.tenant = tenant
        # Optional cost-based placement engine (repro.placement): when
        # set, every scan asks it which tier should run the pushdown
        # work (object node / proxy / compute side) instead of using the
        # fixed ``run_on`` knob.  GROUP-BY pushdown defaults to
        # following the engine's presence, since partial aggregation is
        # only worth planning when placement is a decision.
        self.placement = placement
        if agg_pushdown is None:
            agg_pushdown = placement is not None
        self.agg_pushdown = agg_pushdown
        if schema is None:
            schema = infer_csv_schema(
                connector, container, prefix, has_header, delimiter
            )
        self._schema = schema
        # Partition discovery happens at relation creation, before any
        # query is specified (paper Section V-B).  Record alignment
        # slides any split boundary that would land inside a quoted
        # field to the next record start (demoting an object whose
        # quoting never closes to a single split), so parallel ranged
        # reads of quoted CSV frame correctly.
        self._splits = connector.discover_partitions(
            container, prefix, record_aligned=True
        )

    def schema(self) -> Schema:
        return self._schema

    def size_in_bytes(self) -> int:
        return sum(split.length for split in self._splits)

    @property
    def splits(self) -> List[ObjectSplit]:
        return list(self._splits)

    def unhandled_filters(self, filters: Sequence[Filter]) -> List[Filter]:
        """None: the CSV storlet and the scan's own reader run the same
        selection code, so every path returns exactly the passing rows.
        A storlet this module does not ship gets no such promise."""
        return [] if self.storlet_name == "csvstorlet" else list(filters)

    def build_scan_filtered(
        self, required_columns: Sequence[str], filters: Sequence[Filter]
    ) -> RDD:
        columns = list(required_columns) or [self.count_column(filters)]
        output_schema = self._schema.select(columns)
        # Object-level data skipping: now that the query's filter
        # conjunction is known, drop every split of every object whose
        # cached catalog entry refutes it -- zero GETs for those
        # objects.  No-op unless the connector's skipping knob is armed.
        splits = self.connector.catalog_filter_splits(
            self._splits, list(filters)
        )
        task: Optional[PushdownTask] = None
        if self.pushdown:
            task = PushdownTask(
                schema=self._schema,
                columns=columns,
                filters=list(filters),
                has_header=self.has_header,
                delimiter=self.delimiter,
                storlet=self.storlet_name,
                run_on=self.run_on,
                compress=self.compress_transfer,
            )
            if (
                self.controller is not None
                and not task.is_noop()
                and not self.controller.decide(self.tenant, task).push_down
            ):
                task = None  # dynamic fallback to plain ingest
            if task is not None and self.placement is not None:
                task = self._place_task(task, splits)
        return CsvScanRDD(
            self.context,
            self.connector,
            splits,
            output_schema,
            self._schema,
            task,
            self.has_header,
            self.delimiter,
            filters=filters,
        )

    def build_scan_pruned(self, required_columns: Sequence[str]) -> RDD:
        return self.build_scan_filtered(required_columns, [])

    def build_scan(self) -> RDD:
        return self.build_scan_filtered(self._schema.names, [])

    # -- cost-based placement ----------------------------------------------

    def _place_task(
        self, task: PushdownTask, splits: Sequence[ObjectSplit]
    ) -> Optional[PushdownTask]:
        """Ask the placement engine which tier should run ``task``.

        Returns the task re-targeted at the chosen tier, or ``None``
        when the engine decides the compute side should do the work
        (plain ingest; the scan filters and projects what it reads).
        """
        column_projection = task.columns is not None and len(
            task.columns
        ) < len(self._schema)
        kept = 1.0
        if column_projection:
            kept *= len(task.columns) / len(self._schema)
        if task.filters:
            kept *= 0.5  # prior; the feedback loop refines this
        decision = self.placement.decide(
            signature=task_signature(self.container, self.prefix, task),
            input_bytes=sum(split.length for split in splits),
            kept_hint=kept,
            row_filtering=bool(task.filters),
            column_projection=column_projection,
            aggregation=task.aggregation is not None,
        )
        if decision.tier == "compute":
            return None
        task.run_on = decision.tier
        return task

    # -- GROUP-BY pushdown -------------------------------------------------

    def build_aggregation_scan(
        self, plan, max_groups: int = DEFAULT_MAX_GROUPS
    ) -> Optional[RDD]:
        """Build the tagged-partial aggregation scan for ``plan`` (an
        :class:`~repro.core.agg_pushdown.AggregationPlan`), or ``None``
        when this relation should stay on the ordinary scan path.

        GROUP-BY pushdown is gated on ``agg_pushdown`` (which defaults
        to "a placement engine is present") and rides the same
        controller / placement decisions as filter pushdown: the
        controller can veto it under storage pressure, and the placement
        engine picks the tier -- including sending it compute-side,
        which also returns ``None``.
        """
        if not (self.pushdown and self.agg_pushdown):
            return None
        splits = self.connector.catalog_filter_splits(
            self._splits, list(plan.filters)
        )
        task = PushdownTask(
            schema=self._schema,
            columns=None,
            filters=list(plan.filters),
            has_header=self.has_header,
            delimiter=self.delimiter,
            storlet="aggstorlet",
            run_on=self.run_on,
            aggregation=plan.spec.to_json(),
            max_groups=max_groups,
        )
        if (
            self.controller is not None
            and not self.controller.decide(self.tenant, task).push_down
        ):
            return None
        if self.placement is not None:
            placed = self._place_task(task, splits)
            if placed is None:
                return None
            task = placed
        # Imported here: agg_source imports CsvScanRDD from this module
        # (its degradation path), so a top-level import would cycle.
        from repro.spark.agg_source import AggregationScanRDD

        return AggregationScanRDD(
            self.context,
            self.connector,
            splits,
            plan,
            self._schema,
            task,
            self.has_header,
            self.delimiter,
            max_groups=max_groups,
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
