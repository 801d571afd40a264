"""Aggregation pushdown's gate: which GROUP BY queries the store may run.

Filter pushdown (the paper's proof of concept) moves *matching rows*;
aggregation pushdown moves *partial group states* -- usually orders of
magnitude less.  Section IV-A explicitly includes "a partial computation
to be executed on object request (e.g., aggregations, statistics)" in
the pushdown-task definition.  Here that is a scan, not a second engine:

1. :func:`plan_aggregation_pushdown` asks one question of a query's
   optimized plan -- is every aggregate mergeable and not DISTINCT, and
   does the source answer for every WHERE conjunct exactly (all
   *handled*, see :func:`~repro.sql.catalyst.extract_pushdown`)? -- and
   answers with the :class:`~repro.storlets.aggregation.AggregationSpec`
   the store runs, or a stable refusal code;
2. each partition task of an
   :class:`~repro.spark.store_source.AggregationScanRDD` invokes the
   format's own storlet with it, which runs partial aggregation over
   the batches its scan keeps;
3. the scan's records are a source the executor's Aggregate operator
   folds in (:meth:`~repro.sql.grouping.GroupTable.add_records`), and
   HAVING, post-aggregate expressions, DISTINCT, ORDER BY and LIMIT run
   above it as they do for every other query.
"""

from __future__ import annotations

from typing import Union

from repro.sql.catalyst import AggregateNode, LogicalPlan, PushdownSpec
from repro.sql.executor import aggregate_calls
from repro.sql.expressions import Star
from repro.storlets.aggregation import MERGEABLE_AGGREGATES, AggregationSpec


def plan_aggregation_pushdown(
    plan: LogicalPlan, pushdown: PushdownSpec
) -> Union[AggregationSpec, str]:
    """The spec the store aggregates ``plan`` with, or why it cannot:
    ``not_aggregate``, ``residual_filter``, ``distinct_aggregate`` or
    ``unmergeable:<fn>`` (an aggregate without a mergeable state).

    ``pushdown`` is the query's handshake with its source.  The spec's
    aggregates are the executor's own aggregate calls in accumulator
    order (:func:`~repro.sql.executor.aggregate_calls`, HAVING-only
    ones included), so shipped state ``j`` merges into accumulator ``j``
    by construction.
    """
    node = plan
    while node is not None and not isinstance(node, AggregateNode):
        node = node.child
    if node is None:
        return "not_aggregate"
    # The states are merged as they come: nothing re-applies WHERE
    # below the Aggregate, so the source must answer for every conjunct.
    if pushdown.compute_filter is not None:
        return "residual_filter"
    calls = aggregate_calls(node)
    for call in calls:
        if call.distinct:
            return "distinct_aggregate"
        if call.name not in MERGEABLE_AGGREGATES:
            return f"unmergeable:{call.name}"
    return AggregationSpec(
        [expression.to_sql() for expression in node.group_by],
        [(call.name, "*" if isinstance(call.arg, Star) else call.arg.to_sql()) for call in calls],
    )
