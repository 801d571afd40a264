"""Data in an object-store container: the relation and the split scan.

What every format stored as objects shares (paper Section V): partition
discovery at relation creation, before any query is known; per query,
object-level skipping over the discovered splits, then *one* pushdown
decision -- the relation builds the task the query asks for and its
:class:`~repro.core.delegator.AnalyticsDelegator` says whether it
travels and to which tier -- and a scan RDD with one partition per
surviving split.  A partition reads through the storlet when a task
travels and plainly when none does; a storlet that fails at runtime
degrades the partition to the plain read, resumed behind what was
already emitted.  A format (:mod:`repro.spark.csv_source`,
:mod:`repro.spark.columnar_source`) supplies how its objects split,
which storlet serves it and the two readers.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.columnar.batch import ColumnBatch, skip_rows
from repro.connector.stocator import PushdownError, StocatorConnector
from repro.core.delegator import AnalyticsDelegator
from repro.core.pushdown import PushdownTask
from repro.obs.trace import get_collector
from repro.spark.batch import DEFAULT_BATCH_ROWS, batched, rows_from_batches
from repro.spark.datasources import PrunedFilteredScan
from repro.spark.rdd import RDD
from repro.sql.filters import Filter
from repro.sql.types import Row, Schema


def degrading(
    connector: StocatorConnector,
    split_index: int,
    pushdown: Callable[[], Iterable],
    plain: Callable[[], Iterable],
    event: str = "pushdown_degraded",
    counted: str = "rows_before_failure",
    size: Callable[[Any], int] = len,
    skip: Callable[[Iterable, int], Iterable] = skip_rows,
) -> Iterator:
    """``pushdown()``'s stream, degrading to ``plain()``'s when the
    storlet fails at runtime.

    The failure may come mid-stream (the sandbox charges its budgets
    chunk by chunk) but the stored bytes are intact: ``plain()`` reads
    them without the storlet and computes with the storlet's own code,
    so its stream is the pushdown stream -- what was emitted before the
    failure is skipped, not duplicated.  ``size`` counts an item's
    units and ``skip`` drops a stream's first ``n``; the defaults are
    rows of column batches (the batch the failure fell in is sliced).
    A non-degradable error propagates.
    """
    emitted = 0
    try:
        for item in pushdown():
            emitted += size(item)
            yield item
        return
    except PushdownError as error:
        if not error.degradable:
            raise
        degrade_reason = error.reason
    connector.metrics.record_fallback()
    get_collector().record_event(
        "connector",
        event,
        split_index=split_index,
        reason=degrade_reason,
        **{counted: emitted},
    )
    yield from skip(plain(), emitted)


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


class SplitScanRDD(RDD[Row]):
    """One partition per split; computes typed column batches.

    ``compute_batches`` is the native surface (one
    :class:`~repro.columnar.batch.ColumnBatch` per block the reader
    produced, columns in the output schema's order); ``compute``
    flattens those batches to rows for row-oriented consumers, so both
    views describe the same deterministic stream.

    A format implements ``_pushdown_batches`` and ``_plain_batches``,
    which must yield the same rows -- exactly those passing ``filters``,
    projected -- and may narrow what they are given of a split by
    overriding ``_reader_args``.
    """

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        splits: List,
        output_schema: Schema,
        full_schema: Schema,
        task: Optional[PushdownTask],
        filters: Sequence[Filter] = (),
    ):
        super().__init__(context)
        self.name = self.name.removesuffix("RDD")
        self.connector = connector
        self.splits = splits
        self.output_schema = output_schema
        self.full_schema = full_schema
        #: What every partition's GET is tagged with; ``None`` reads
        #: plainly (pushdown off, vetoed, no-op or placed compute-side).
        self.task = task
        #: The selection every path applies: the storlet when ``task``
        #: travels, the plain reader when it does not or after a failure.
        self.filters = list(filters)

    def num_partitions(self) -> int:
        return len(self.splits)

    def compute(self, split_index: int) -> Iterator[Row]:
        return rows_from_batches(self._batches(split_index))

    def compute_batches(
        self, split_index: int, batch_rows: int = DEFAULT_BATCH_ROWS
    ) -> Iterator[ColumnBatch]:
        """Reader-sized column batches (``batch_rows`` only shapes the
        re-chunking of a cached partition, where rows are materialized
        anyway)."""
        if self._cache is not None:
            return batched(self.iterator(split_index), batch_rows)
        return self._batches(split_index)

    def _batches(self, split_index: int) -> Iterator[ColumnBatch]:
        split = self.splits[split_index]
        args = self._reader_args(split)
        if args is None:
            return
        if self.task is None:
            yield from self._plain_batches(*args)
            return
        yield from degrading(
            self.connector,
            split.index,
            lambda: self._pushdown_batches(*args),
            lambda: self._plain_batches(*args),
        )

    def _reader_args(self, split) -> Optional[tuple]:
        """What the two readers take for ``split``; ``None`` when
        nothing of it can hold a passing row."""
        return (split,)

    def _open_pushdown(self, split, task: PushdownTask) -> Iterator[bytes]:
        """The response chunks of ``split``'s GET tagged with ``task``,
        inflated when the task had them compressed."""
        _headers, chunks = self.connector.open_split_stream(split, task)
        return _decompress_chunks(chunks) if task.compress else chunks


class StoreRelation(PrunedFilteredScan):
    """Data in an object-store container, optionally pushdown-enabled.

    A format sets :attr:`storlet` and :attr:`scan_rdd` (and
    :attr:`framing`, if it has any) and discovers its splits and, unless
    given, its schema in ``__init__``.
    """

    #: The storlet serving this format's filter / projection task.
    storlet: str
    #: The :class:`SplitScanRDD` subclass reading this format's splits.
    scan_rdd: type
    #: Format framing, as keywords both the task and the scan RDD take.
    framing: Dict[str, Any] = {}

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        prefix: str,
        schema: Schema,
        splits: List,
        pushdown: bool = True,
        compress_transfer: bool = False,
        controller=None,
        tenant: str = "default",
        placement=None,
    ):
        self.context = context
        self.connector = connector
        self.container = container
        self.prefix = prefix
        self._schema = schema
        self._splits = splits
        self.pushdown = pushdown
        self.compress_transfer = compress_transfer
        self.tenant = tenant
        # Takes every scan's pushdown decision: the controller
        # (Section VII) may veto it, the placement engine picks its tier.
        self.delegator = AnalyticsDelegator(controller, placement)

    def schema(self) -> Schema:
        return self._schema

    @property
    def splits(self) -> List:
        return list(self._splits)

    def unhandled_filters(self, filters: Sequence[Filter]) -> List[Filter]:
        """None: the storlet and the scan's plain reader run the same
        selection code, so every path returns exactly the passing rows."""
        return []

    def _delegate(self, task: PushdownTask, splits: Sequence) -> Optional[PushdownTask]:
        input_bytes = sum(split.length for split in splits)
        return self.delegator.delegate(
            task, self.tenant, self.container, self.prefix, input_bytes
        )

    def build_scan_filtered(
        self, required_columns: Sequence[str], filters: Sequence[Filter]
    ) -> RDD:
        columns = list(required_columns) or [self.count_column(filters)]
        # Object-level data skipping: now that the query's filter
        # conjunction is known, drop every split of every object whose
        # cached catalog entry refutes it -- zero GETs for those
        # objects.  No-op unless the connector's skipping knob is armed.
        splits = self.connector.catalog_filter_splits(self._splits, list(filters))
        task: Optional[PushdownTask] = None
        if self.pushdown:
            task = self._delegate(
                PushdownTask(
                    schema=self._schema,
                    columns=columns,
                    filters=list(filters),
                    storlet=self.storlet,
                    compress=self.compress_transfer,
                    **self.framing,
                ),
                splits,
            )
        else:
            self.delegator.decline("pushdown_off", self.tenant, self.container)
        return self.scan_rdd(
            self.context,
            self.connector,
            splits,
            self._schema.select(columns),
            self._schema,
            task,
            filters=filters,
            **self.framing,
        )

    def build_scan_pruned(self, required_columns: Sequence[str]) -> RDD:
        return self.build_scan_filtered(required_columns, [])

    def build_scan(self) -> RDD:
        return self.build_scan_filtered(self._schema.names, [])
