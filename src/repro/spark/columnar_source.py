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
* a runtime storlet failure degrades to the plain segment path with the
  filters applied compute-side, skipping rows already emitted, so the
  fallback stream is identical to the pushdown stream.

Scan output is columnar end to end: ``compute_batches`` yields
``ColumnBatch`` objects that flow through the scheduler untouched (tasks
only take ``len`` and, resuming a retry, ``slice``), dictionary segments
still coded, and the SQL executor's kernel fast path
(:func:`repro.sql.executor.execute_plan_batches`) consumes them without
ever materializing per-row tuples until the plan's edge.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Iterator, List, Optional, Sequence, Tuple

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
        #: Pushdown-extracted filters, used for compute-side stripe
        #: pruning in every mode (pruning is conservative, and the
        #: executor re-applies the plan's own filter nodes over plain
        #: scans, so skipping provably row-free stripes is always sound).
        self.filters = list(filters)
        self._project = [
            full_schema.index_of(name) for name in output_schema.names
        ]
        filter_refs = set()
        for item in self.filters:
            filter_refs.update(
                full_schema.index_of(name) for name in item.references()
            )
        self._needed_with_filters = sorted(set(self._project) | filter_refs)
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
        # Degradation decodes and selects with the storlet's own code
        # (see _assemble), so the fallback stream is the pushdown stream.
        yield from degrading_batches(
            self.connector,
            columnar.split.index,
            lambda: self._pushdown_batches(columnar, stripes),
            lambda: self._plain_batches(columnar, stripes, apply_task_filters=True),
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

    def _stripe_ranges(
        self, stripe: StripeMeta, needed: Sequence[int]
    ) -> List[Tuple[int, int]]:
        return [
            (stripe.columns[index].offset, stripe.columns[index].length)
            for index in needed
        ]

    def _assemble(
        self,
        stripe: StripeMeta,
        needed: Sequence[int],
        pieces: Sequence[bytes],
        apply_task_filters: bool,
    ) -> Optional[ColumnBatch]:
        """Decode fetched segments into an output batch (None = all rows
        filtered out)."""
        vectors: List[Optional[Sequence]] = [None] * len(self.full_schema)
        for index, data in zip(needed, pieces):
            vectors[index] = decode_column(
                data, self.full_schema.fields[index].dtype, stripe.rows
            )
        rows = stripe.rows
        if apply_task_filters:
            # The storlet's own selection code, so the fallback stream
            # is the pushdown stream.
            columns, rows = self._selection.select(vectors, rows, self._project)
            if not rows:
                return None
        else:
            columns = [vectors[index] for index in self._project]
        return ColumnBatch(self.output_schema, columns, rows)

    def _plain_batches(
        self,
        columnar: ColumnarSplit,
        stripes: Sequence[StripeMeta],
        apply_task_filters: bool = False,
    ) -> Iterator[ColumnBatch]:
        """Segment-granular ranged reads, one batch per surviving stripe.

        For plain scans WHERE filters are NOT applied here (the executor
        re-applies the plan's filter nodes); the degradation path passes
        ``apply_task_filters=True`` so its stream matches the pushdown
        stream exactly.
        """
        needed = (
            self._needed_with_filters if apply_task_filters else self._project
        )
        for stripe in stripes:
            pieces = self.connector.read_byte_ranges(
                columnar.split, self._stripe_ranges(stripe, needed)
            )
            batch = self._assemble(stripe, needed, pieces, apply_task_filters)
            if batch is not None and len(batch):
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

    def build_scan_filtered(
        self, required_columns: Sequence[str], filters: Sequence[Filter]
    ) -> RDD:
        columns = list(required_columns) or self._schema.names
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
