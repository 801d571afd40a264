"""The columnar (RCF1) relation: segment reads, stripe pruning, batches.

What is RCF1 about a :class:`~repro.spark.store_source.StoreRelation`,
threading :class:`~repro.columnar.batch.ColumnBatch` through the whole
streaming data plane:

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
from repro.spark.store_source import SplitScanRDD, StoreRelation
from repro.sql.filters import Filter
from repro.sql.kernels import FilterMask
from repro.sql.types import Schema


class ColumnarScanRDD(SplitScanRDD):
    """One partition per stripe group of an RCF1 object (one batch per
    surviving stripe or storlet block)."""

    def __init__(self, *scan, **kwargs):
        super().__init__(*scan, **kwargs)
        full_schema = self.full_schema
        self._project = [
            full_schema.index_of(name) for name in self.output_schema.names
        ]
        filter_refs = set()
        for item in self.filters:
            filter_refs.update(
                full_schema.index_of(name) for name in item.references()
            )
        self._needed = sorted(set(self._project) | filter_refs)
        self._selection = FilterMask(self.filters, full_schema)

    # -- stripe pruning ----------------------------------------------------

    def _pruned_stripes(self, columnar: ColumnarSplit) -> List[StripeMeta]:
        """The stripes the filters cannot refute from footer stats, in
        every mode: a pruned stripe holds no row that passes them."""
        return [
            stripe
            for stripe in columnar.stripes
            if stripe_may_match(stripe, self.filters, self.full_schema)
        ]

    def _reader_args(
        self, columnar: ColumnarSplit
    ) -> Optional[Tuple[ColumnarSplit, List[StripeMeta]]]:
        stripes = self._pruned_stripes(columnar)
        return (columnar, stripes) if stripes else None

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

    def _pushdown_response(
        self, columnar: ColumnarSplit, stripes: Sequence[StripeMeta]
    ) -> Iterator[bytes]:
        """One storlet GET for the split, naming its stripes."""
        return self._open_pushdown(columnar.split, self._split_task(stripes))

    def _pushdown_batches(
        self, columnar: ColumnarSplit, stripes: Sequence[StripeMeta]
    ) -> Iterator[ColumnBatch]:
        """Blocks decode incrementally as response chunks arrive, so a
        LIMIT can abandon the stream."""
        for batch in decode_block_stream(self._pushdown_response(columnar, stripes)):
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


class ColumnarRelation(StoreRelation):
    """RCF1 data in an object-store container, optionally pushdown-enabled."""

    storlet = "columnarstorlet"
    scan_rdd = ColumnarScanRDD

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        prefix: str = "",
        schema: Optional[Schema] = None,
        **decision,
    ):
        # Footer-driven discovery at relation creation, before any query
        # is specified.
        splits = connector.discover_columnar_partitions(container, prefix)
        if schema is None:
            if not splits:
                raise ValueError(
                    f"cannot infer schema: no columnar objects under "
                    f"/{container}/{prefix}"
                )
            schema = splits[0].schema
        super().__init__(
            context, connector, container, prefix, schema, splits, **decision
        )

    def count_column(self, filters: Sequence[Filter]) -> str:
        """The column with the fewest stored bytes, by the footers
        discovery already read (ties to schema order)."""
        stored = [0] * len(self._schema)
        for columnar in self._splits:
            for stripe in columnar.stripes:
                for index, segment in enumerate(stripe.columns):
                    stored[index] += segment.length
        return self._schema.names[stored.index(min(stored))]
