"""The columnar (RCF1) relation: segment reads, stripe pruning, batches.

The columnar twin of :mod:`repro.spark.csv_source`, threading
:class:`~repro.columnar.batch.ColumnBatch` through the whole streaming
data plane:

* partition discovery reads object *footers* and groups whole stripes
  into splits (no record alignment needed -- stripes never bisect rows);
* a plain scan fetches **only the column segments the query references**
  as metered, span-traced ranged GETs, so bytes read < object size even
  without pushdown;
* a pushdown scan sends one storlet GET per split carrying the stripe
  descriptors; the storlet decodes only referenced segments, runs the
  compiled filter kernels store-side and ships surviving rows back as
  one block stream per response (decoded by a fresh
  :class:`~repro.columnar.layout.BlockStreamDecoder` each time);
* stripe pruning (footer min/max/null stats) runs on the compute side
  for both modes, skipping whole stripes -- and with them their GETs --
  before any byte moves;
* the plain path runs the storlet's own selection over the segments it
  fetched, so every path returns exactly the rows passing the scan's
  filters, projected (the relation answers for them all,
  ``unhandled_filters``); a runtime storlet failure degrades to it,
  skipping rows already emitted.

Scan output is columnar end to end: ``compute_batches`` yields
``ColumnBatch`` objects that flow through the scheduler untouched (tasks
only take ``len`` and, resuming a retry, ``slice``), dictionary segments
still coded, and the SQL executor's kernels
(:func:`repro.sql.executor.execute_plan`) consume them without ever
materializing per-row tuples until the plan's edge.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Iterator, List, Optional, Sequence

from repro.columnar.batch import ColumnBatch
from repro.columnar.layout import (
    StripeMeta,
    decode_block_stream,
    decode_column,
)
from repro.columnar.pruning import stripe_may_match
from repro.connector.stocator import ColumnarSplit, StocatorConnector
from repro.core.pushdown import PushdownTask
from repro.placement.engine import task_signature
from repro.spark.batch import DEFAULT_BATCH_ROWS, batched
from repro.spark.csv_source import _decompress_chunks, degrading_batches
from repro.spark.datasources import PrunedFilteredScan
from repro.spark.rdd import RDD
from repro.sql.filters import Filter
from repro.sql.kernels import FilterMask
from repro.sql.types import Row, Schema


class ColumnarScanRDD(RDD[Row]):
    """One partition per stripe group; computes columnar batches.

    ``compute_batches`` is the native surface (it yields
    :class:`ColumnBatch` objects, one per surviving stripe or storlet
    block); ``compute`` flattens those batches to rows for row-oriented
    consumers, so both views describe the same deterministic stream.
    """

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        splits: List[ColumnarSplit],
        output_schema: Schema,
        full_schema: Schema,
        task: Optional[PushdownTask],
        filters: Sequence[Filter] = (),
    ):
        super().__init__(context)
        self.name = "ColumnarScan"
        self.connector = connector
        self.splits = splits
        self.output_schema = output_schema
        self.full_schema = full_schema
        self.task = task
        #: The selection every path applies (the storlet when ``task``
        #: travels, ``_assemble`` when it does not), also used for
        #: compute-side stripe pruning in every mode: a pruned stripe
        #: holds no row that passes them.
        self.filters = list(filters)
        self._project = [
            full_schema.index_of(name) for name in output_schema.names
        ]
        filter_refs = set()
        for item in self.filters:
            filter_refs.update(
                full_schema.index_of(name) for name in item.references()
            )
        self._needed = sorted(set(self._project) | filter_refs)
        self._selection = FilterMask(self.filters, full_schema)

    def num_partitions(self) -> int:
        return len(self.splits)

    # -- row views (flattened batches) -------------------------------------

    def compute(self, split_index: int) -> Iterator[Row]:
        for batch in self._batches(split_index):
            yield from batch.rows

    # -- batch views --------------------------------------------------------

    def compute_batches(
        self, split_index: int, batch_rows: int = DEFAULT_BATCH_ROWS
    ) -> Iterator[ColumnBatch]:
        """Stripe-sized column batches (``batch_rows`` only shapes the
        re-chunking of a cached partition, where rows are materialized
        anyway)."""
        if self._cache is not None:
            return batched(self.iterator(split_index), batch_rows)
        return self._batches(split_index)

    # -- the scan ----------------------------------------------------------

    def _pruned_stripes(self, columnar: ColumnarSplit) -> List[StripeMeta]:
        return [
            stripe
            for stripe in columnar.stripes
            if stripe_may_match(stripe, self.filters, self.full_schema)
        ]

    def _batches(self, split_index: int) -> Iterator[ColumnBatch]:
        columnar = self.splits[split_index]
        stripes = self._pruned_stripes(columnar)
        if not stripes:
            return
        if self.task is None or self.task.is_noop():
            yield from self._plain_batches(columnar, stripes)
            return
        # The plain path decodes and selects with the storlet's own code
        # (see _assemble), so the fallback stream is the pushdown stream.
        yield from degrading_batches(
            self.connector,
            columnar.split.index,
            lambda: self._pushdown_batches(columnar, stripes),
            lambda: self._plain_batches(columnar, stripes),
        )

    # -- pushdown path -----------------------------------------------------

    def _split_task(
        self, stripes: Sequence[StripeMeta]
    ) -> PushdownTask:
        """The task for one split: the relation's task plus this split's
        (pruned) stripe descriptors as a storlet parameter."""
        assert self.task is not None
        descriptors = [
            {
                "rows": stripe.rows,
                "cols": [
                    [segment.offset, segment.length]
                    for segment in stripe.columns
                ],
            }
            for stripe in stripes
        ]
        return replace(
            self.task,
            extra_parameters={
                **self.task.extra_parameters,
                "stripes": json.dumps(descriptors, separators=(",", ":")),
            },
        )

    def _reorder(self, batch: ColumnBatch) -> ColumnBatch:
        """Map a storlet block (base-schema column order) to the scan's
        output column order; shares vectors, no copying."""
        if batch.schema.names == self.output_schema.names:
            return batch
        return batch.select(self.output_schema.names)

    def _pushdown_batches(
        self, columnar: ColumnarSplit, stripes: Sequence[StripeMeta]
    ) -> Iterator[ColumnBatch]:
        """One storlet GET for the split; blocks decode incrementally as
        response chunks arrive, so a LIMIT can abandon the stream."""
        task = self._split_task(stripes)
        _headers, chunks = self.connector.open_split_stream(
            columnar.split, task
        )
        if task.compress:
            chunks = _decompress_chunks(chunks)
        for batch in decode_block_stream(chunks):
            yield self._reorder(batch)

    # -- plain (segment-granular) path -------------------------------------

    def _assemble(
        self, stripe: StripeMeta, pieces: Sequence[bytes]
    ) -> Optional[ColumnBatch]:
        """Decode fetched segments into an output batch (None = all rows
        filtered out)."""
        vectors: List[Optional[Sequence]] = [None] * len(self.full_schema)
        for index, data in zip(self._needed, pieces):
            vectors[index] = decode_column(
                data, self.full_schema.fields[index].dtype, stripe.rows
            )
        # The storlet's own selection code, so this stream is the
        # pushdown stream.
        columns, rows = self._selection.select(vectors, stripe.rows, self._project)
        if not rows:
            return None
        return ColumnBatch(self.output_schema, columns, rows)

    def _plain_batches(
        self, columnar: ColumnarSplit, stripes: Sequence[StripeMeta]
    ) -> Iterator[ColumnBatch]:
        """Segment-granular ranged reads of the projected and the
        filtered columns, one batch per stripe that keeps a row."""
        for stripe in stripes:
            ranges = [
                (stripe.columns[index].offset, stripe.columns[index].length)
                for index in self._needed
            ]
            pieces = self.connector.read_byte_ranges(columnar.split, ranges)
            batch = self._assemble(stripe, pieces)
            if batch is not None:
                yield batch


class ColumnarRelation(PrunedFilteredScan):
    """RCF1 data in an object-store container, optionally pushdown-enabled."""

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        prefix: str = "",
        schema: Optional[Schema] = None,
        pushdown: bool = True,
        storlet_name: str = "columnarstorlet",
        run_on: str = "object",
        compress_transfer: bool = False,
        controller=None,
        tenant: str = "default",
        placement=None,
    ):
        self.context = context
        self.connector = connector
        self.container = container
        self.prefix = prefix
        self.pushdown = pushdown
        self.storlet_name = storlet_name
        self.run_on = run_on
        self.compress_transfer = compress_transfer
        self.controller = controller
        self.tenant = tenant
        # Optional cost-based placement engine (repro.placement): picks
        # the tier for the columnar filter/projection pushdown the same
        # way CsvRelation does.
        self.placement = placement
        # Footer-driven discovery at relation creation, before any query
        # is specified -- the columnar twin of CSV partition discovery.
        self._splits = connector.discover_columnar_partitions(
            container, prefix
        )
        if schema is None:
            if not self._splits:
                raise ValueError(
                    f"cannot infer schema: no columnar objects under "
                    f"/{container}/{prefix}"
                )
            schema = self._splits[0].schema
        self._schema = schema

    def schema(self) -> Schema:
        return self._schema

    def size_in_bytes(self) -> int:
        return sum(columnar.split.length for columnar in self._splits)

    @property
    def splits(self) -> List[ColumnarSplit]:
        return list(self._splits)

    def unhandled_filters(self, filters: Sequence[Filter]) -> List[Filter]:
        """None: the columnar storlet and the scan's plain path run the
        same selection code, so every path returns exactly the passing
        rows.  A storlet this module does not ship gets no such promise."""
        return [] if self.storlet_name == "columnarstorlet" else list(filters)

    def count_column(self, filters: Sequence[Filter]) -> str:
        """The column with the fewest stored bytes, by the footers
        discovery already read (ties to schema order)."""
        stored = [0] * len(self._schema)
        for columnar in self._splits:
            for stripe in columnar.stripes:
                for index, segment in enumerate(stripe.columns):
                    stored[index] += segment.length
        return self._schema.names[stored.index(min(stored))]

    def build_scan_filtered(
        self, required_columns: Sequence[str], filters: Sequence[Filter]
    ) -> RDD:
        columns = list(required_columns) or [self.count_column(filters)]
        output_schema = self._schema.select(columns)
        # Object-level data skipping (see CsvRelation): whole objects
        # the cached catalog refutes are dropped before stripe pruning
        # even looks at them -- zero GETs, zero footer work.
        splits = self.connector.catalog_filter_splits(
            self._splits, list(filters)
        )
        task: Optional[PushdownTask] = None
        if self.pushdown:
            task = PushdownTask(
                schema=self._schema,
                columns=columns,
                filters=list(filters),
                has_header=False,
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
                column_projection = len(columns) < len(self._schema)
                kept = 1.0
                if column_projection:
                    kept *= len(columns) / len(self._schema)
                if task.filters:
                    kept *= 0.5  # prior; refined by run feedback
                decision = self.placement.decide(
                    signature=task_signature(
                        self.container, self.prefix, task
                    ),
                    input_bytes=sum(
                        columnar.split.length for columnar in splits
                    ),
                    kept_hint=kept,
                    row_filtering=bool(task.filters),
                    column_projection=column_projection,
                )
                if decision.tier == "compute":
                    task = None
                else:
                    task.run_on = decision.tier
        return ColumnarScanRDD(
            self.context,
            self.connector,
            splits,
            output_schema,
            self._schema,
            task,
            filters=list(filters),
        )

    def build_scan_pruned(self, required_columns: Sequence[str]) -> RDD:
        return self.build_scan_filtered(required_columns, [])

    def build_scan(self) -> RDD:
        return self.build_scan_filtered(self._schema.names, [])
