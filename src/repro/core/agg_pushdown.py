"""Aggregation pushdown planner: whole GROUP BY queries at the store.

Filter pushdown (the paper's proof of concept) moves *matching rows*;
aggregation pushdown moves *partial group states* -- usually orders of
magnitude less.  Section IV-A explicitly includes "a partial computation
to be executed on object request (e.g., aggregations, statistics)" in
the pushdown-task definition; this module implements that path end to
end:

1. :func:`plan_aggregation_pushdown` decides whether a parsed query is
   *fully mergeable* -- every select item is either a grouping
   expression or a mergeable aggregate, and the source answers for
   every WHERE conjunct exactly (all *handled*, see
   :func:`~repro.sql.catalyst.extract_pushdown`);
2. each partition task of an
   :class:`~repro.spark.agg_source.AggregationScanRDD` invokes the
   :class:`~repro.storlets.agg_storlet.AggregatingStorlet` with the
   serialized :class:`~repro.storlets.agg_storlet.AggregationSpec`;
3. :func:`merge_tagged_records` merges the accumulator states (and folds
   in spilled rows) and applies ORDER BY / LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sql.catalyst import extract_pushdown, fold_constants
from repro.sql.executor import _aggregate_type, _NullsFirst, _NullsLast, infer_type
from repro.sql.expressions import Aggregate, Column, Expression, Star
from repro.sql.filters import Filter
from repro.sql.parser import Query
from repro.sql.types import Field, Row, Schema
from repro.storlets.agg_storlet import MERGEABLE_AGGREGATES, AggregationSpec


@dataclass
class AggregationPlan:
    """A query compiled for store-side aggregation."""

    spec: AggregationSpec
    filters: List[Filter]
    output_schema: Schema
    #: position of each select item in the merged (key..., agg...) tuple
    output_positions: List[int]
    order_by: List[Tuple[int, bool]] = field(default_factory=list)
    limit: Optional[int] = None


def plan_aggregation_pushdown(
    query: Query, schema: Schema, source=None
) -> Optional[AggregationPlan]:
    """Compile ``query`` for aggregation pushdown, or None if it is not
    fully mergeable (the caller then falls back to filter pushdown).

    The output schema uses the executor's own aggregate result types
    (``SUM`` over INT stays INT), so merged results match the
    compute-side answer's schema exactly.
    """
    if not query.group_by and not any(
        item.expression.contains_aggregate() for item in query.items
    ):
        return None
    if query.distinct:
        return None
    if query.having is not None:
        # HAVING filters *merged* groups; a storlet sees only its own
        # byte range, so applying it there would drop groups that
        # survive globally.  Not mergeable.
        return None

    # The store's partial states are merged as they come: nothing
    # re-applies WHERE above them, so every conjunct must be handled.
    pushdown = extract_pushdown(query, schema, source)
    if pushdown.compute_filter is not None:
        return None
    filters = pushdown.filters

    group_exprs = [fold_constants(e) for e in query.group_by]
    group_sql = [e.to_sql() for e in group_exprs]
    aggregates: List[Aggregate] = []
    output_positions: List[int] = []
    key_count = len(group_exprs)

    for item in query.items:
        expression = fold_constants(item.expression)
        if isinstance(expression, Aggregate):
            if expression.name not in MERGEABLE_AGGREGATES:
                return None
            if expression.distinct:
                return None
            if expression not in aggregates:
                aggregates.append(expression)
            output_positions.append(key_count + aggregates.index(expression))
        else:
            matched = None
            for index, group_expression in enumerate(group_exprs):
                if expression == group_expression:
                    matched = index
                    break
            if matched is None:
                return None  # expression over aggregates: not mergeable
            output_positions.append(matched)

    aggregate_pairs = [
        (agg.name, "*" if isinstance(agg.arg, Star) else agg.arg.to_sql())
        for agg in aggregates
    ]
    spec = AggregationSpec(group_sql, aggregate_pairs)

    key_types = [infer_type(e, schema) for e in group_exprs]
    output_fields = []
    for item, position in zip(query.items, output_positions):
        if position < key_count:
            dtype = key_types[position]
        else:
            dtype = _aggregate_type(aggregates[position - key_count], schema)
        output_fields.append(Field(item.output_name, dtype))
    output_schema = Schema(output_fields)

    order_by: List[Tuple[int, bool]] = []
    for expression, ascending in query.order_by:
        expression = fold_constants(expression)
        position = _resolve_order_position(
            expression, group_exprs, aggregates, query, key_count
        )
        if position is None:
            return None
        order_by.append((position, ascending))

    return AggregationPlan(
        spec=spec,
        filters=filters,
        output_schema=output_schema,
        output_positions=output_positions,
        order_by=order_by,
        limit=query.limit,
    )


def _resolve_order_position(
    expression: Expression,
    group_exprs: List[Expression],
    aggregates: List[Aggregate],
    query: Query,
    key_count: int,
) -> Optional[int]:
    for index, group_expression in enumerate(group_exprs):
        if expression == group_expression:
            return index
    if isinstance(expression, Aggregate) and expression in aggregates:
        return key_count + aggregates.index(expression)
    if isinstance(expression, Column):
        for item in query.items:
            if item.alias and item.alias.lower() == expression.name.lower():
                target = fold_constants(item.expression)
                return _resolve_order_position(
                    target, group_exprs, aggregates, query, key_count
                )
    return None


def merge_tagged_records(
    plan: AggregationPlan, records, schema: Schema
) -> Tuple[Schema, List[Row]]:
    """Merge a tagged record stream into final, ordered result rows.

    ``records`` is the partition-ordered stream an
    :class:`~repro.spark.agg_source.AggregationScanRDD` yields through
    the scheduler: ``("p", split, first_ordinal, key, states)`` partial
    groups (one accumulator state per aggregate) and ``("r", split,
    ordinal, row)`` rows the bounded storlet hash table spilled to the
    compute side.  Spilled rows are folded through the same expression
    bindings the storlet used, so a group is aggregated identically
    wherever its rows were seen.

    Output-row order reproduces the compute-side oracle's: each group
    records the earliest ``(split, ordinal)`` that saw it, and groups
    are emitted sorted by that creation point -- exactly the oracle's
    first-seen order over the globally ordered row stream -- before
    ORDER BY (executor NULL semantics: last in both directions) and
    LIMIT apply.
    """
    key_evals, input_evals = plan.spec.bind(schema)
    groups: dict = {}
    creation: dict = {}
    for record in records:
        tag, split, ordinal, payload = record[:4]
        if tag == "p":
            key = tuple(payload)
        elif tag == "r":
            row = tuple(payload)
            key = tuple(evaluate(row) for evaluate in key_evals)
        else:
            raise ValueError(f"unknown tagged record kind {tag!r}")
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = groups[key] = plan.spec.accumulators()
            creation[key] = (split, ordinal)
        else:
            creation[key] = min(creation[key], (split, ordinal))
        if tag == "p":
            for accumulator, state in zip(accumulators, record[4]):
                accumulator.merge(state)
        else:
            for accumulator, evaluate in zip(accumulators, input_evals):
                accumulator.add(evaluate(row))

    if not groups and not plan.spec.group_by:
        # Global aggregate over empty input still yields one row, same
        # as the executor's _finalize_groups.
        groups[()] = plan.spec.accumulators()
        creation[()] = (0, 0)

    ordered_keys = sorted(groups, key=creation.__getitem__)
    full_rows = [
        key + tuple(accumulator.result() for accumulator in groups[key])
        for key in ordered_keys
    ]
    rows = [
        tuple(full_row[position] for position in plan.output_positions)
        for full_row in full_rows
    ]
    if plan.order_by:
        pairs = list(zip(full_rows, rows))
        for position, ascending in reversed(plan.order_by):
            if ascending:
                pairs.sort(
                    key=lambda pair: _NullsLast(pair[0][position])
                )
            else:
                pairs.sort(
                    key=lambda pair: _NullsFirst(pair[0][position]),
                    reverse=True,
                )
        rows = [row for _full, row in pairs]
    if plan.limit is not None:
        rows = rows[: plan.limit]
    return plan.output_schema, rows
