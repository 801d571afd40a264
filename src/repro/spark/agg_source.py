"""The aggregation scan RDD: GROUP BY partials through the scheduler.

The aggregating storlet runs on the normal partition-task path, so
aggregation pushdown inherits everything scans already have: bounded
thread pools, task retry with mid-stream resume, and graceful
degradation to compute-side work when a storlet fails at runtime.

Each partition yields *tagged records* (not rows): accumulator states
per group and spill-to-compute raw rows, in the deterministic order
:func:`~repro.storlets.agg_storlet.tagged_partial_aggregate` defines.
The scan is a source like any other: the session hands its
partition-ordered record stream to the executor, whose Aggregate
operator folds it in (:meth:`~repro.sql.grouping.GroupTable.add_records`).

Degradation is the scans' own (:func:`~repro.spark.store_source.degrading`):
the relation hands in its plain reader, which filters as the storlet
does, and the *same* bounded partial-aggregation generator runs over
it, so the fallback record stream is identical to the pushdown stream
by construction -- which is what makes resuming behind the records
already emitted sound here too.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Callable, Iterable, Iterator, List

from repro.columnar.batch import ColumnBatch
from repro.connector.stocator import ObjectSplit, StocatorConnector
from repro.core.pushdown import PushdownTask
from repro.csvscan import owned_records
from repro.spark.batch import rows_from_batches
from repro.spark.rdd import RDD
from repro.spark.store_source import degrading
from repro.storlets.agg_storlet import AggregationSpec, tagged_partial_aggregate


class AggregationScanRDD(RDD):
    """One partition per object split; yields tagged agg records.

    ``plain_batches(split)`` is the relation's pushdown-free reader: the
    typed rows of ``split`` passing the task's filters, all columns.
    """

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        splits: List[ObjectSplit],
        spec: AggregationSpec,
        task: PushdownTask,
        plain_batches: Callable[[ObjectSplit], Iterable[ColumnBatch]],
    ):
        super().__init__(context)
        self.name = "AggregationScan"
        self.connector = connector
        self.splits = splits
        self.spec = spec
        self.task = task
        self.plain_batches = plain_batches

    def num_partitions(self) -> int:
        return len(self.splits)

    def compute(self, split_index: int) -> Iterator[tuple]:
        split = self.splits[split_index]
        return degrading(
            self.connector,
            split.index,
            lambda: self._pushdown_records(split),
            lambda: self._fallback_records(split),
            event="agg_pushdown_degraded",
            counted="records_before_failure",
            size=lambda record: 1,
            skip=lambda records, count: islice(records, count, None),
        )

    # -- pushdown: the storlet streams tagged JSON lines -------------------

    def _pushdown_records(self, split: ObjectSplit) -> Iterator[tuple]:
        _headers, chunks = self.connector.open_split_stream(split, self.task)
        for raw_line in owned_records(chunks):
            if raw_line.strip():
                yield self._stamp(json.loads(raw_line), split.index)

    # -- degradation: same aggregation, computed from plain reads ----------

    def _fallback_records(self, split: ObjectSplit) -> Iterator[tuple]:
        rows = rows_from_batches(self.plain_batches(split))
        for record in tagged_partial_aggregate(
            rows, self.spec, self.task.schema, max_groups=self.task.max_groups
        ):
            yield self._stamp(record, split.index)

    @staticmethod
    def _stamp(record, split_index: int) -> tuple:
        """Insert the split index after the tag: the storlet does not
        know which split it served, and the index is what orders group
        creation points globally across partitions."""
        return (record[0], split_index, *record[1:])
