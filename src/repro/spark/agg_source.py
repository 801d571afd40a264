"""The aggregation scan RDD: GROUP BY partials through the scheduler.

The aggregating storlet runs on the normal partition-task path, so
aggregation pushdown inherits everything scans already have: bounded
thread pools, task retry with mid-stream resume, and graceful
degradation to compute-side work when a storlet fails at runtime.

Each partition yields *tagged records* (not rows): accumulator states
per group and spill-to-compute raw rows, in the deterministic order
:func:`~repro.storlets.agg_storlet.tagged_partial_aggregate` defines.
The session merges the partition-ordered record stream with
:func:`~repro.core.agg_pushdown.merge_tagged_records`.

Degradation reuses :class:`~repro.spark.csv_source.CsvScanRDD`'s plain
reader (which filters as the storlet does) and runs the *same* bounded
partial-aggregation generator over it, so the fallback record stream is
identical to the pushdown stream by construction -- which is what makes
the scheduler's skip-``emitted`` resume arithmetic sound here too.
"""

from __future__ import annotations

import json
from typing import Iterator, List

from repro.connector.stocator import (
    ObjectSplit,
    PushdownError,
    StocatorConnector,
)
from repro.core.agg_pushdown import AggregationPlan
from repro.core.pushdown import PushdownTask
from repro.csvscan import owned_records
from repro.obs.trace import get_collector
from repro.sql.types import Schema
from repro.spark.csv_source import CsvScanRDD
from repro.spark.rdd import RDD
from repro.storlets.agg_storlet import (
    DEFAULT_MAX_GROUPS,
    tagged_partial_aggregate,
)


class AggregationScanRDD(RDD):
    """One partition per object split; yields tagged agg records."""

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        splits: List[ObjectSplit],
        plan: AggregationPlan,
        full_schema: Schema,
        task: PushdownTask,
        has_header: bool,
        delimiter: str,
        max_groups: int = DEFAULT_MAX_GROUPS,
    ):
        super().__init__(context)
        self.name = "AggregationScan"
        self.connector = connector
        self.splits = splits
        self.plan = plan
        self.full_schema = full_schema
        self.task = task
        self.has_header = has_header
        self.delimiter = delimiter
        self.max_groups = max_groups
        # The degradation twin: a plain CSV scan over the same splits
        # under the task's filters.  Reusing CsvScanRDD's plain reader
        # keeps the fallback's typed filtered row stream single-sourced
        # with every other degradation path.
        self._fallback = CsvScanRDD(
            context,
            connector,
            splits,
            full_schema,
            full_schema,
            task,
            has_header,
            delimiter,
            filters=task.filters,
        )

    def num_partitions(self) -> int:
        return len(self.splits)

    def compute(self, split_index: int) -> Iterator[tuple]:
        split = self.splits[split_index]
        emitted = 0
        try:
            for record in self._pushdown_records(split):
                emitted += 1
                yield record
            return
        except PushdownError as error:
            if not error.degradable:
                raise
            degrade_reason = error.reason
        self.connector.metrics.record_fallback()
        get_collector().record_event(
            "connector",
            "agg_pushdown_degraded",
            split_index=split.index,
            reason=degrade_reason,
            records_before_failure=emitted,
        )
        skipped = 0
        for record in self._fallback_records(split):
            if skipped < emitted:
                skipped += 1
                continue
            yield record

    # -- pushdown: the storlet streams tagged JSON lines -------------------

    def _pushdown_records(self, split: ObjectSplit) -> Iterator[tuple]:
        _headers, chunks = self.connector.open_split_stream(split, self.task)
        for raw_line in owned_records(chunks):
            if raw_line.strip():
                yield self._stamp(json.loads(raw_line), split.index)

    # -- degradation: same aggregation, computed from plain reads ----------

    def _fallback_records(self, split: ObjectSplit) -> Iterator[tuple]:
        batches = self._fallback._plain_batches(split)
        rows = (row for batch in batches for row in batch.rows)
        for record in tagged_partial_aggregate(
            rows, self.plan.spec, self.full_schema, max_groups=self.max_groups
        ):
            yield self._stamp(record, split.index)

    @staticmethod
    def _stamp(record, split_index: int) -> tuple:
        """Insert the split index after the tag: the storlet does not
        know which split it served, and the index is what orders group
        creation points globally across partitions."""
        return (record[0], split_index, *record[1:])
