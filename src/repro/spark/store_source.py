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

GROUP-BY pushdown is the same scan with one more stage
(:class:`AggregationScanRDD`): the task carries an ``aggregation``, the
format's storlet runs partial aggregation over the batches it keeps, and
a degraded partition runs the same stage over the plain reader's.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.columnar.batch import ColumnBatch, skip_rows
from repro.connector.stocator import PushdownError, StocatorConnector
from repro.core.delegator import AnalyticsDelegator
from repro.core.pushdown import PushdownTask
from repro.csvscan import owned_records
from repro.spark.datasources import PrunedFilteredScan
from repro.spark.rdd import RDD
from repro.sql.filters import Filter
from repro.sql.types import Schema
from repro.storlets.aggregation import (
    DEFAULT_MAX_GROUPS,
    AggregationSpec,
    partial_aggregate,
)


#: Records per list an aggregation partition hands the scheduler.
_RECORDS_PER_BATCH = 1024


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
    connector.tracer.record_event(
        "connector",
        event,
        split_index=split_index,
        reason=degrade_reason,
        **{counted: emitted},
    )
    yield from skip(plain(), emitted)


class SplitScanRDD(RDD):
    """One partition per split; computes typed column batches (one
    :class:`~repro.columnar.batch.ColumnBatch` per block the reader
    produced, columns in the output schema's order).

    A format implements ``_pushdown_batches`` and ``_plain_batches``,
    which must yield the same rows -- exactly those passing ``filters``,
    projected -- and may narrow what they are given of a split by
    overriding ``_reader_args`` and what its GET carries by overriding
    ``_pushdown_response``.
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

    def compute_batches(self, split_index: int) -> Iterator[ColumnBatch]:
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

    def _pushdown_response(self, split, *_rest) -> Iterator[bytes]:
        """The response chunks of the storlet GET for the readers'
        arguments: ``split``'s GET tagged with :attr:`task`."""
        return self._open_pushdown(split, self.task)

    def _open_pushdown(self, split, task: PushdownTask) -> Iterator[bytes]:
        """The response chunks of ``split``'s GET tagged with ``task``."""
        return self.connector.open_split_stream(split, task)[1]


class AggregationScanRDD(RDD):
    """A scan's partitions through partial aggregation: yields lists of
    ``(split, ordinal, key, states)`` records
    (:func:`~repro.storlets.aggregation.partial_aggregate`'s, stamped
    with the split index -- the storlet does not know which split it
    served, and the index is what orders group creation points across
    partitions).  The session hands the record stream to the executor,
    whose Aggregate merges it
    (:meth:`~repro.sql.grouping.GroupTable.add_records`).

    ``scan`` is the format's scan RDD, its task carrying the
    aggregation: a partition reads through the scan's own hooks, so
    pruning, the per-split task and the plain reader are the scan's.
    The storlet runs the stage over the batches its scan keeps; a
    degraded partition runs it over the plain reader's, which are the
    same rows, so the record stream is the same -- which is what makes
    resuming behind the records already emitted sound here too.
    """

    def __init__(self, scan: SplitScanRDD, spec: AggregationSpec):
        super().__init__(scan.context)
        self.name = "AggregationScan"
        self.scan = scan
        self.spec = spec
        self.splits = scan.splits
        self.task = scan.task

    def num_partitions(self) -> int:
        return len(self.splits)

    def compute_batches(self, split_index: int) -> Iterator[List[tuple]]:
        args = self.scan._reader_args(self.splits[split_index])
        if args is None:
            return iter(())
        records = degrading(
            self.scan.connector,
            args[0].index,
            lambda: self._pushdown_records(*args),
            lambda: self._fallback_records(*args),
            event="agg_pushdown_degraded",
            counted="records_before_failure",
            size=lambda record: 1,
            skip=lambda records, count: islice(records, count, None),
        )
        return iter(lambda: list(islice(records, _RECORDS_PER_BATCH)), [])

    def _pushdown_records(self, split, *rest) -> Iterator[tuple]:
        for raw_line in owned_records(self.scan._pushdown_response(split, *rest)):
            if raw_line.strip():
                yield (split.index, *json.loads(raw_line))

    def _fallback_records(self, split, *rest) -> Iterator[tuple]:
        scan = self.scan
        for record in partial_aggregate(
            scan._plain_batches(split, *rest),
            self.spec,
            scan.output_schema,
            self.task.max_groups,
        ):
            yield (split.index, *record)


class StoreRelation(PrunedFilteredScan):
    """Data in an object-store container, optionally pushdown-enabled.

    A format sets :attr:`storlet` and :attr:`scan_rdd` (and
    :attr:`framing`, if it has any) and discovers its splits and, unless
    given, its schema in ``__init__``.  GROUP-BY pushdown
    (``agg_pushdown``) defaults to following the placement engine's
    presence, since partial aggregation is only worth planning when
    placement is a decision.
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
        tenant: str = "default",
        placement=None,
        agg_pushdown: Optional[bool] = None,
    ):
        self.context = context
        self.connector = connector
        self.container = container
        self.prefix = prefix
        self._schema = schema
        self._splits = splits
        self.pushdown = pushdown
        self.tenant = tenant
        # Takes every scan's pushdown decision: the placement engine may
        # veto it (Section VII) or picks its tier.
        self.delegator = AnalyticsDelegator(placement, context.registry)
        if agg_pushdown is None:
            agg_pushdown = self.delegator.placement is not None
        self.agg_pushdown = agg_pushdown

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
                    **self.framing,
                ),
                splits,
            )
        else:
            self.delegator.decline("pushdown_off", self.tenant, self.container)
        return self._scan(splits, columns, task, filters)

    def _scan(
        self,
        splits: List,
        columns: Sequence[str],
        task: Optional[PushdownTask],
        filters: Sequence[Filter],
    ) -> "SplitScanRDD":
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

    @property
    def aggregates_at_store(self) -> bool:
        """Whether this relation offers GROUP-BY pushdown at all (a scan
        may still be declined by the placement engine)."""
        return self.pushdown and self.agg_pushdown

    def build_aggregation_scan(
        self,
        spec: AggregationSpec,
        filters: Sequence[Filter],
        max_groups: int = DEFAULT_MAX_GROUPS,
    ) -> Optional[RDD]:
        """The partial-aggregation scan running ``spec`` over the rows
        passing ``filters``, or ``None`` when this relation should stay
        on the ordinary scan path.

        GROUP-BY pushdown is gated on ``agg_pushdown`` and rides the
        same decision as filter pushdown: the placement engine can veto
        it under storage pressure, or picks the tier -- including
        sending it compute-side, which also returns ``None``.  The scan
        reads the columns the spec references (the cheapest one for a
        global ``COUNT(*)``), skipping and pruning as any scan does.
        """
        if not self.aggregates_at_store:
            self.delegator.decline("agg_pushdown_off", self.tenant, self.container)
            return None
        columns = spec.columns(self._schema) or [self.count_column(filters)]
        splits = self.connector.catalog_filter_splits(self._splits, list(filters))
        task = self._delegate(
            PushdownTask(
                schema=self._schema,
                columns=columns,
                filters=list(filters),
                storlet=self.storlet,
                aggregation=spec.to_json(),
                max_groups=max_groups,
                **self.framing,
            ),
            splits,
        )
        if task is None:
            return None
        return AggregationScanRDD(self._scan(splits, columns, task, filters), spec)
