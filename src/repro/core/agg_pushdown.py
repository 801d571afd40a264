"""Aggregation pushdown planner: whole GROUP BY queries at the store.

Filter pushdown (the paper's proof of concept) moves *matching rows*;
aggregation pushdown moves *partial group states* -- usually orders of
magnitude less.  Section IV-A explicitly includes "a partial computation
to be executed on object request (e.g., aggregations, statistics)" in
the pushdown-task definition; this module implements that path end to
end:

1. :func:`plan_aggregation_pushdown` decides whether a parsed query is
   *fully mergeable* -- every select item is either a grouping
   expression or a mergeable aggregate, and the WHERE clause converts
   entirely to source filters;
2. each partition GET invokes the
   :class:`~repro.storlets.agg_storlet.AggregatingStorlet` with the
   serialized :class:`~repro.storlets.agg_storlet.AggregationSpec`;
3. the compute side merges partial rows and applies ORDER BY / LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.connector.stocator import StocatorConnector
from repro.csvscan import owned_records, parse_record
from repro.sql.catalyst import (
    expression_to_filter,
    fold_constants,
    split_conjuncts,
)
from repro.sql.errors import SqlAnalysisError
from repro.sql.executor import _aggregate_type, _NullsFirst, _NullsLast, infer_type
from repro.sql.expressions import Aggregate, Column, Expression, Star
from repro.sql.filters import Filter, filters_to_json
from repro.sql.parser import Query, parse_query
from repro.sql.types import DataType, Field, Row, Schema
from repro.storlets.agg_storlet import (
    DEFAULT_MAX_GROUPS,
    MERGEABLE_AGGREGATES,
    AggregationSpec,
    _PartialState,
    merge_partials,
)
from repro.storlets.engine import StorletRequestHeaders


@dataclass
class AggregationPlan:
    """A query compiled for store-side aggregation."""

    spec: AggregationSpec
    filters: List[Filter]
    output_schema: Schema
    #: position of each select item in the merged (key..., agg...) tuple
    output_positions: List[int]
    key_types: List[DataType]
    order_by: List[Tuple[int, bool]] = field(default_factory=list)
    limit: Optional[int] = None


def plan_aggregation_pushdown(
    query: Query, schema: Schema, exact_types: bool = False
) -> Optional[AggregationPlan]:
    """Compile ``query`` for aggregation pushdown, or None if it is not
    fully mergeable (the caller then falls back to filter pushdown).

    With ``exact_types`` the output schema uses the executor's own
    aggregate result types (``SUM`` over INT stays INT) instead of the
    legacy text-partial types -- the integrated scheduler path sets this
    so merged results match the compute-side oracle's schema exactly.
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

    # WHERE must convert entirely to source filters.
    filters: List[Filter] = []
    if query.where is not None:
        folded = fold_constants(query.where)
        for conjunct in split_conjuncts(folded):
            converted = expression_to_filter(conjunct)
            if converted is None:
                return None
            filters.append(converted)

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
            if exact_types and expression.name in ("sum", "avg") and (
                not isinstance(expression.arg, Star)
            ):
                # Float addition is not associative: per-partition
                # partial sums group the additions differently from the
                # oracle's sequential left-to-right accumulation, so the
                # merged total can drift in the last ulp.  Exact (INT)
                # inputs merge bit-identically; FLOAT sums stay
                # compute-side on the byte-identical scheduler path
                # (``exact_types``).  The legacy standalone API keeps
                # them: its contract is approximate, not bit-exact.
                if infer_type(expression.arg, schema) is DataType.FLOAT:
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
        elif exact_types:
            dtype = _aggregate_type(aggregates[position - key_count], schema)
        else:
            dtype = _merged_type(aggregates[position - key_count], schema)
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
        key_types=key_types,
        order_by=order_by,
        limit=query.limit,
    )


def _merged_type(aggregate: Aggregate, schema: Schema) -> DataType:
    """Merged results come back as floats/ints/strings (partial states
    are text); counts are INT, everything numeric is FLOAT."""
    if aggregate.name == "count":
        return DataType.INT
    if aggregate.name in ("first_value", "last_value"):
        return DataType.STRING
    return DataType.FLOAT


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


class AggregationPushdownRunner:
    """Executes an :class:`AggregationPlan` over a container's splits."""

    def __init__(
        self,
        connector: StocatorConnector,
        schema: Schema,
        has_header: bool = False,
        delimiter: str = ",",
        storlet_name: str = "aggstorlet",
    ):
        self.connector = connector
        self.schema = schema
        self.has_header = has_header
        self.delimiter = delimiter
        self.storlet_name = storlet_name

    def run(
        self, plan: AggregationPlan, container: str, prefix: str = ""
    ) -> Tuple[Schema, List[Row]]:
        partial_records: List[List[str]] = []
        for split in self.connector.discover_partitions(container, prefix):
            headers = {
                StorletRequestHeaders.RUN: self.storlet_name,
                StorletRequestHeaders.RUN_ON: "object",
                StorletRequestHeaders.RANGE: (
                    f"bytes={split.start}-{split.end}"
                ),
            }
            parameters = {
                "schema": self.schema.to_header(),
                "aggregation": plan.spec.to_json(),
                "has_header": "true" if self.has_header else "false",
            }
            if self.delimiter != ",":
                parameters["delimiter"] = self.delimiter
            if plan.filters:
                parameters["filters"] = filters_to_json(plan.filters)
            StorletRequestHeaders.set_parameters(headers, parameters)
            response_headers, body = self.connector.client.get_object(
                split.container, split.name, headers=headers
            )
            if StorletRequestHeaders.INVOKED not in response_headers:
                raise SqlAnalysisError(
                    "aggregation pushdown requested but the store did not "
                    f"run {self.storlet_name!r}"
                )
            self.connector.metrics.record(
                len(body), split.length, pushdown=True
            )
            for raw_line in owned_records([body] if body else []):
                record = parse_record(raw_line, self.delimiter)
                if record is not None:
                    partial_records.append(record)

        merged = merge_partials(plan.spec, partial_records, plan.key_types)
        rows = [
            tuple(full_row[position] for position in plan.output_positions)
            for full_row in merged
        ]

        if plan.order_by:
            ordered = [
                (full_row, row) for full_row, row in zip(merged, rows)
            ]
            for position, ascending in reversed(plan.order_by):
                ordered.sort(
                    key=lambda pair: _null_safe_key(pair[0][position]),
                    reverse=not ascending,
                )
            rows = [row for _full, row in ordered]
        if plan.limit is not None:
            rows = rows[: plan.limit]
        return plan.output_schema, rows


class _NullKey:
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_NullKey") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value


def _null_safe_key(value: Any) -> _NullKey:
    return _NullKey(value)


def run_aggregation_query(
    connector: StocatorConnector,
    sql: str,
    schema: Schema,
    container: str,
    prefix: str = "",
    has_header: bool = False,
) -> Tuple[Schema, List[Row]]:
    """One-call aggregation pushdown; raises if the query is not fully
    mergeable (use the normal filter-pushdown path instead)."""
    query = parse_query(sql)
    plan = plan_aggregation_pushdown(query, schema)
    if plan is None:
        raise SqlAnalysisError(
            "query is not fully mergeable for aggregation pushdown"
        )
    runner = AggregationPushdownRunner(connector, schema, has_header)
    return runner.run(plan, container, prefix)


# --------------------------------------------------------------------------
# v2 tagged protocol: typed partials + spill-to-compute raw rows
# --------------------------------------------------------------------------


def merge_tagged_records(
    plan: AggregationPlan, records, schema: Schema
) -> Tuple[Schema, List[Row]]:
    """Merge a v2 tagged record stream into final, ordered result rows.

    ``records`` is the partition-ordered stream an
    :class:`~repro.spark.agg_source.AggregationScanRDD` yields through
    the scheduler: ``("p", split, first_ordinal, key, states)`` typed
    partial groups and ``("r", split, ordinal, row)`` rows the bounded
    storlet hash table spilled to the compute side.  Spilled rows are
    folded through the same expression bindings the storlet used, so a
    group is aggregated identically wherever its rows were seen.

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
        tag = record[0]
        if tag == "p":
            _tag, split, ordinal, key, states = record
            key = tuple(key)
            state = groups.get(key)
            if state is None:
                state = _PartialState(plan.spec)
                groups[key] = state
                creation[key] = (split, ordinal)
            else:
                creation[key] = min(creation[key], (split, ordinal))
            state.merge_typed(states)
        elif tag == "r":
            _tag, split, ordinal, raw = record
            row = tuple(raw)
            key = tuple(evaluate(row) for evaluate in key_evals)
            state = groups.get(key)
            if state is None:
                state = _PartialState(plan.spec)
                groups[key] = state
                creation[key] = (split, ordinal)
            else:
                creation[key] = min(creation[key], (split, ordinal))
            state.add([evaluate(row) for evaluate in input_evals])
        else:
            raise ValueError(f"unknown tagged record kind {tag!r}")

    if not groups and not plan.spec.group_by:
        # Global aggregate over empty input still yields one row, same
        # as the executor's _finalize_groups.
        groups[()] = _PartialState(plan.spec)
        creation[()] = (0, 0)

    ordered_keys = sorted(groups, key=creation.__getitem__)
    full_rows = [
        key + tuple(groups[key].typed_results()) for key in ordered_keys
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


def decode_tagged_line(raw_line: bytes, split_index: int):
    """Decode one storlet v2 JSON line into a scheduler record.

    The storlet does not know which split it served, so the split index
    is stamped here -- it is what makes group creation points globally
    ordered across partitions.
    """
    import json as _json

    payload = _json.loads(raw_line)
    tag = payload[0]
    if tag == "r":
        return ("r", split_index, payload[1], tuple(payload[2]))
    if tag == "p":
        return (
            "p",
            split_index,
            payload[1],
            tuple(payload[2]),
            tuple(tuple(part) for part in payload[3]),
        )
    raise ValueError(f"unknown tagged record kind {tag!r}")
