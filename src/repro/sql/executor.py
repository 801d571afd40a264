"""Physical execution of logical plans: one pipeline, over batches.

Every plan is Scan -> [Filter] -> (Project | Aggregate) -> [Distinct] ->
[Sort] -> [Limit] (:func:`repro.sql.catalyst.build_logical_plan`).  The
scan arrives as ``ColumnBatch``es and the prefix up to the projection or
the aggregate runs on them as compile-once kernels
(:mod:`repro.sql.kernels`): a selection vector per batch, then either
output vectors or one :meth:`~repro.sql.grouping.GroupTable.add_batch`.
What comes out is rows, and Distinct / Sort / Limit are row operators
over them.  The same pipeline runs on both sides of the pushdown
boundary: the Spark workers run the part of the query that was *not*
pushed down with it.

An expression the kernel compiler cannot prove total still gets a
kernel -- its own ``bind`` evaluator looped over the batch -- so there is
no second executor to fall back to.  What such an expression changes is
*when* its error surfaces: a batch at a time.  A satisfied LIMIT never
pulls a batch behind it, but a raising row behind the limit in the
*same* batch raises; and when a filter row and a projection row of one
batch both raise, which message wins is not pinned (the ``SqlError``
subclass is).

Aggregation notes: GROUP BY keys may be arbitrary expressions (the
GridPocket queries group by ``SUBSTRING(date, 0, 7)``); output
expressions may mix aggregates with grouping expressions.  ORDER BY above
an aggregate may reference either select aliases or grouping expressions;
the aggregate operator therefore appends its group-key values as hidden
trailing columns which the sort resolves against and the top level strips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.columnar.batch import ColumnBatch, as_column_batch
from repro.sql.catalyst import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    LimitNode,
    LogicalPlan,
    Optimizer,
    ProjectNode,
    ScanNode,
    SortNode,
    build_logical_plan,
)
from repro.sql.errors import SqlAnalysisError
from repro.sql.expressions import (
    Aggregate,
    BinaryOp,
    Column,
    Expression,
    FunctionCall,
    Literal,
    SelectItem,
    Star,
)
from repro.sql.functions import make_accumulator
from repro.sql.grouping import GroupTable
from repro.sql.kernels import (
    compile_expression,
    compile_predicate,
    compile_projection,
)
from repro.sql.parser import parse_query
from repro.sql.types import DataType, Field, Row, Schema

BatchSource = Callable[[], Iterable[Any]]

#: Rows per batch when :func:`execute_query` chunks in-memory rows.
_QUERY_BATCH_ROWS = 1024


@dataclass
class Compiled:
    """An operator's output: schema, row iterator factory, hidden cols.

    ``group_exprs`` records, for aggregate outputs, which GROUP BY
    expression each hidden ``__group_i`` column carries -- ORDER BY above
    an aggregate resolves repeated grouping expressions through it.
    """

    schema: Schema
    rows: Callable[[], Iterator[Row]]
    hidden: int = 0
    group_exprs: Optional[List[Expression]] = None

    def visible_schema(self) -> Schema:
        if not self.hidden:
            return self.schema
        return Schema(self.schema.fields[: -self.hidden])


def execute_plan(
    plan: LogicalPlan, batch_source: BatchSource, scan_schema: Schema
) -> Tuple[Schema, List[Row]]:
    """Run ``plan`` over the batches ``batch_source()`` yields
    (``ColumnBatch``es of ``scan_schema``, or row sequences, which are
    transposed); returns the visible output schema and rows.  The source
    is called once and pulled lazily: a satisfied LIMIT stops it."""
    compiled = _compile(plan, batch_source, scan_schema)
    rows = list(compiled.rows())
    if compiled.hidden:
        rows = [row[: -compiled.hidden] for row in rows]
    return compiled.visible_schema(), rows


def execute_query(
    text: str, schema: Schema, rows: Iterable[Row]
) -> Tuple[Schema, List[Row]]:
    """Parse, optimize and execute SQL over in-memory rows (chunked
    lazily into ``ColumnBatch``es)."""
    plan = Optimizer().optimize(build_logical_plan(parse_query(text), schema))

    def batches() -> Iterator[ColumnBatch]:
        remaining = iter(rows)
        while chunk := tuple(itertools.islice(remaining, _QUERY_BATCH_ROWS)):
            yield ColumnBatch.from_rows(schema, chunk)

    return execute_plan(plan, batches, schema)


# --------------------------------------------------------------------------
# Compilation
# --------------------------------------------------------------------------


def _linearize(plan: LogicalPlan) -> List[LogicalPlan]:
    """Flatten the (always linear) plan chain, scan first."""
    nodes: List[LogicalPlan] = []
    node = plan
    while not isinstance(node, ScanNode):
        nodes.append(node)
        node = node.child  # type: ignore[attr-defined]
    nodes.append(node)
    nodes.reverse()
    return nodes


def _compile(
    plan: LogicalPlan, batch_source: BatchSource, scan_schema: Schema
) -> Compiled:
    """Kernels for Scan -> [Filter] -> (Project | Aggregate), the row
    operators for what sits above."""
    rest = _linearize(plan)[1:]  # drop the ScanNode
    selection = None
    if rest and isinstance(rest[0], FilterNode):
        selection = compile_predicate(rest.pop(0).condition, scan_schema)

    def filtered_batches() -> Iterator[ColumnBatch]:
        for batch in batch_source():
            columnar = as_column_batch(batch, scan_schema)
            if selection is not None:
                n = len(columnar)
                picked = selection(columnar.columns, n)
                if not picked:
                    continue
                if len(picked) != n:
                    columnar = columnar.take(picked)
            yield columnar

    node = rest.pop(0) if rest else None
    if isinstance(node, ProjectNode):
        compiled = _compile_project(node, filtered_batches, scan_schema)
    elif isinstance(node, AggregateNode):
        compiled = _compile_aggregate(node, filtered_batches, scan_schema)
    else:
        raise SqlAnalysisError(
            f"expected a projection or an aggregate above the scan, got "
            f"{type(node).__name__}"
        )
    for node in rest:
        if isinstance(node, DistinctNode):
            compiled = _compile_distinct(compiled)
        elif isinstance(node, SortNode):
            compiled = _compile_sort(node, compiled)
        elif isinstance(node, LimitNode):
            compiled = _compile_limit(node, compiled)
        else:
            raise SqlAnalysisError(f"unknown plan node {type(node).__name__}")
    return compiled


def _compile_project(
    node: ProjectNode, batches: Callable[[], Iterator[ColumnBatch]], scan_schema: Schema
) -> Compiled:
    schema = Schema(
        [
            Field(item.output_name, infer_type(item.expression, scan_schema))
            for item in node.items
        ]
    )
    project = compile_projection([item.expression for item in node.items], scan_schema)

    def rows() -> Iterator[Row]:
        for batch in batches():
            yield from zip(*project(batch.columns, len(batch)))

    return Compiled(schema, rows)


@dataclass
class _AggregateSpec:
    """The schema-level analysis of one AggregateNode."""

    group_by: List[Expression]
    aggregates: List[Aggregate]
    output_evals: List[Callable]
    having_eval: Optional[Callable]
    schema: Schema


def _analyze_aggregate(node: AggregateNode, input_schema: Schema) -> _AggregateSpec:
    """Resolve aggregates, post-agg rewrites and output schema."""
    # Collect the distinct aggregate calls across all output items, plus
    # any aggregates the HAVING clause references but the items do not.
    aggregates: List[Aggregate] = []
    for item in node.items:
        for aggregate in item.expression.aggregates():
            if aggregate not in aggregates:
                aggregates.append(aggregate)
    if node.having is not None:
        for aggregate in node.having.aggregates():
            if aggregate not in aggregates:
                aggregates.append(aggregate)

    # Post-aggregation row layout: [key_0..key_k, agg_0..agg_m].
    post_fields = [
        Field(f"__key_{i}", infer_type(e, input_schema))
        for i, e in enumerate(node.group_by)
    ] + [
        Field(f"__agg_{j}", _aggregate_type(agg, input_schema))
        for j, agg in enumerate(aggregates)
    ]
    post_schema = Schema(post_fields)

    rewritten_items = [
        SelectItem(
            _rewrite_post_agg(item.expression, node.group_by, aggregates),
            item.alias,
        )
        for item in node.items
    ]
    for item in rewritten_items:
        leftover = item.expression.columns() - {
            field.name.lower() for field in post_fields
        }
        if leftover:
            raise SqlAnalysisError(
                f"column(s) {sorted(leftover)} are neither grouped nor "
                f"aggregated in {item.to_sql()!r}"
            )
    output_evals = [
        item.expression.bind(post_schema) for item in rewritten_items
    ]

    having_eval = None
    if node.having is not None:
        rewritten_having = _rewrite_post_agg(
            node.having, node.group_by, aggregates
        )
        leftover = rewritten_having.columns() - {
            field.name.lower() for field in post_fields
        }
        if leftover:
            raise SqlAnalysisError(
                f"HAVING references non-grouped column(s) {sorted(leftover)}"
            )
        having_eval = rewritten_having.bind(post_schema)
    visible_fields = [
        Field(
            node.items[i].output_name,
            infer_type(node.items[i].expression, input_schema),
        )
        for i in range(len(node.items))
    ]
    hidden_key_fields = [
        Field(f"__group_{i}", infer_type(e, input_schema))
        for i, e in enumerate(node.group_by)
    ]
    schema = Schema(visible_fields + hidden_key_fields)
    return _AggregateSpec(
        group_by=list(node.group_by),
        aggregates=aggregates,
        output_evals=output_evals,
        having_eval=having_eval,
        schema=schema,
    )


def _new_group(spec: _AggregateSpec) -> list:
    """Fresh state for one group, one accumulator per aggregate."""
    return [make_accumulator(agg.name, agg.distinct) for agg in spec.aggregates]


def _finalize_groups(spec: _AggregateSpec, groups: dict) -> Iterator[Row]:
    """Turn accumulated groups (a dict in first-seen order) into output
    rows (HAVING applied)."""
    if not groups and not spec.group_by:
        # Global aggregate over empty input still yields one row.
        groups[()] = _new_group(spec)
    for key, accumulators in groups.items():
        post_row = key + tuple(acc.result() for acc in accumulators)
        if spec.having_eval is not None and spec.having_eval(post_row) is not True:
            continue
        outputs = tuple(evaluate(post_row) for evaluate in spec.output_evals)
        yield outputs + key


def _compile_aggregate(
    node: AggregateNode, batches: Callable[[], Iterator[ColumnBatch]], scan_schema: Schema
) -> Compiled:
    """Key and input vectors via kernels, then one
    :meth:`~repro.sql.grouping.GroupTable.add_batch` per batch (rows
    bucketed by group, each accumulator fed a group at a time)."""
    key_kernels = [
        compile_expression(expression, scan_schema) for expression in node.group_by
    ]
    spec = _analyze_aggregate(node, scan_schema)
    # COUNT(*) has no input vector: the group table counts rows.
    input_kernels = [
        None
        if isinstance(aggregate.arg, Star)
        else compile_expression(aggregate.arg, scan_schema)
        for aggregate in spec.aggregates
    ]

    def rows() -> Iterator[Row]:
        table = GroupTable(lambda: _new_group(spec))
        for batch in batches():
            n = len(batch)
            if n == 0:
                continue
            cols = batch.columns
            table.add_batch(
                [kernel(cols, n) for kernel in key_kernels],
                [
                    None if kernel is None else kernel(cols, n)
                    for kernel in input_kernels
                ],
                n,
            )
        yield from _finalize_groups(spec, table.groups)

    return Compiled(
        spec.schema,
        rows,
        hidden=len(node.group_by),
        group_exprs=list(node.group_by),
    )


def _rewrite_post_agg(
    expression: Expression,
    group_by: List[Expression],
    aggregates: List[Aggregate],
) -> Expression:
    """Replace grouping subtrees / aggregate calls with post-agg columns."""
    for index, group_expression in enumerate(group_by):
        if expression == group_expression:
            return Column(f"__key_{index}")
    if isinstance(expression, Aggregate):
        return Column(f"__agg_{aggregates.index(expression)}")
    from repro.sql.catalyst import _rewrite_children  # reuse child walker

    return _rewrite_children(
        expression, lambda child: _rewrite_post_agg(child, group_by, aggregates)
    )


def _compile_distinct(child: Compiled) -> Compiled:
    def rows() -> Iterator[Row]:
        seen = set()
        for row in child.rows():
            visible = row[: len(row) - child.hidden] if child.hidden else row
            if visible not in seen:
                seen.add(visible)
                yield row

    return Compiled(child.schema, rows, child.hidden, child.group_exprs)


class _NullsLast:
    """Sort key wrapper ordering None after every value (ascending)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_NullsLast") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullsLast) and self.value == other.value


class _NullsFirst:
    """Sort key wrapper ordering None before every value; used with
    ``reverse=True`` so that NULLs still land last in DESC order."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_NullsFirst") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullsFirst) and self.value == other.value


def _compile_sort(node: SortNode, child: Compiled) -> Compiled:
    evaluators: List[Tuple[Callable, bool]] = []
    for expression, ascending in node.order_by:
        evaluators.append((_resolve_sort_key(expression, child), ascending))

    def rows() -> Iterator[Row]:
        materialized = list(child.rows())
        # Stable sorts compose: apply keys right-to-left.  NULLs sort
        # last in both directions.
        for evaluate, ascending in reversed(evaluators):
            if ascending:
                materialized.sort(key=lambda row: _NullsLast(evaluate(row)))
            else:
                materialized.sort(
                    key=lambda row: _NullsFirst(evaluate(row)), reverse=True
                )
        return iter(materialized)

    return Compiled(child.schema, rows, child.hidden, child.group_exprs)


def _resolve_sort_key(expression: Expression, child: Compiled) -> Callable:
    """Bind an ORDER BY expression against the child's full schema.

    Resolution order: output column / alias name, then hidden group key
    (for aggregates, any expression textually equal to a GROUP BY key has
    been exposed as ``__group_i``), then a direct bind (projection over
    base columns).
    """
    if child.group_exprs:
        for index, group_expression in enumerate(child.group_exprs):
            if expression == group_expression:
                return Column(f"__group_{index}").bind(child.schema)
    if isinstance(expression, Column) and expression.name in child.schema:
        return expression.bind(child.schema)
    try:
        return expression.bind(child.schema)
    except SqlAnalysisError:
        pass
    raise SqlAnalysisError(
        f"cannot resolve ORDER BY expression {expression.to_sql()!r} "
        f"against columns {child.visible_schema().names}"
    )


def _compile_limit(node: LimitNode, child: Compiled) -> Compiled:
    def rows() -> Iterator[Row]:
        return itertools.islice(child.rows(), node.count)

    return Compiled(child.schema, rows, child.hidden, child.group_exprs)


# --------------------------------------------------------------------------
# Output type inference
# --------------------------------------------------------------------------

_INT_FUNCTIONS = {"length", "year", "month", "day", "hour", "floor", "ceil", "int"}
_STRING_FUNCTIONS = {"substring", "substr", "upper", "lower", "trim", "concat"}


def infer_type(expression: Expression, schema: Schema) -> DataType:
    """Best-effort output type of an expression (STRING when unsure)."""
    if isinstance(expression, Column):
        if expression.name in schema:
            return schema.field(expression.name).dtype
        return DataType.STRING
    if isinstance(expression, Literal):
        if isinstance(expression.value, bool):
            return DataType.BOOL
        if isinstance(expression.value, int):
            return DataType.INT
        if isinstance(expression.value, float):
            return DataType.FLOAT
        return DataType.STRING
    if isinstance(expression, Aggregate):
        return _aggregate_type(expression, schema)
    if isinstance(expression, FunctionCall):
        if expression.name in _INT_FUNCTIONS:
            return DataType.INT
        if expression.name in _STRING_FUNCTIONS:
            return DataType.STRING
        if expression.name in ("round", "float"):
            return DataType.FLOAT
        return DataType.STRING
    if isinstance(expression, BinaryOp):
        if expression.op in ("and", "or"):
            return DataType.BOOL
        if expression.op in ("=", "<>", "!=", "<", "<=", ">", ">="):
            return DataType.BOOL
        if expression.op == "||":
            return DataType.STRING
        left = infer_type(expression.left, schema)
        right = infer_type(expression.right, schema)
        if DataType.FLOAT in (left, right) or expression.op == "/":
            return DataType.FLOAT
        return DataType.INT
    return DataType.STRING


def _aggregate_type(aggregate: Aggregate, schema: Schema) -> DataType:
    if aggregate.name == "count":
        return DataType.INT
    if aggregate.name == "avg":
        return DataType.FLOAT
    if isinstance(aggregate.arg, Star):
        return DataType.INT
    return infer_type(aggregate.arg, schema)
