"""Physical execution of logical plans (volcano-style iterators).

The executor turns a logical plan into nested Python iterators: scan ->
filter -> hash aggregate / project -> distinct -> sort -> limit.  It is
used on both sides of the pushdown boundary: the Spark workers run the
part of the query that was *not* pushed down, and tests use it as the
reference implementation that pushdown results must match.

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
)
from repro.sql.functions import make_accumulator
from repro.sql.parser import Query, parse_query
from repro.sql.types import DataType, Field, Row, Schema

RowSource = Callable[[], Iterable[Row]]


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
    plan: LogicalPlan, source: RowSource, scan_schema: Schema
) -> Tuple[Schema, List[Row]]:
    """Run ``plan`` over rows from ``source`` (which must match
    ``scan_schema``); returns the visible output schema and rows."""
    compiled = _compile(plan, source, scan_schema)
    rows = list(compiled.rows())
    if compiled.hidden:
        rows = [row[: -compiled.hidden] for row in rows]
    return compiled.visible_schema(), rows


def execute_query(
    text: str, schema: Schema, rows: Iterable[Row]
) -> Tuple[Schema, List[Row]]:
    """Parse, optimize and execute SQL over in-memory rows."""
    query = parse_query(text)
    plan = Optimizer().optimize(build_logical_plan(query, schema))
    # A plan's compiled tree calls its source factory exactly once per
    # execution, so a one-shot iterator is a valid (and lazy) source.
    return execute_plan(plan, lambda: iter(rows), schema)


# --------------------------------------------------------------------------
# Compilation
# --------------------------------------------------------------------------


def _compile(plan: LogicalPlan, source: RowSource, scan_schema: Schema) -> Compiled:
    if isinstance(plan, ScanNode):
        return Compiled(scan_schema, lambda: iter(source()))
    if isinstance(plan, FilterNode):
        return _compile_filter(plan, _compile(plan.child, source, scan_schema))
    if isinstance(plan, ProjectNode):
        return _compile_project(plan, _compile(plan.child, source, scan_schema))
    if isinstance(plan, AggregateNode):
        return _compile_aggregate(plan, _compile(plan.child, source, scan_schema))
    if isinstance(plan, DistinctNode):
        return _compile_distinct(_compile(plan.child, source, scan_schema))
    if isinstance(plan, SortNode):
        return _compile_sort(plan, _compile(plan.child, source, scan_schema))
    if isinstance(plan, LimitNode):
        return _compile_limit(plan, _compile(plan.child, source, scan_schema))
    raise SqlAnalysisError(f"unknown plan node {type(plan).__name__}")


def _compile_filter(node: FilterNode, child: Compiled) -> Compiled:
    predicate = node.condition.bind(child.schema)

    def rows() -> Iterator[Row]:
        for row in child.rows():
            if predicate(row) is True:
                yield row

    return Compiled(child.schema, rows, child.hidden)


def _compile_project(node: ProjectNode, child: Compiled) -> Compiled:
    schema = Schema(
        [
            Field(item.output_name, infer_type(item.expression, child.schema))
            for item in node.items
        ]
    )
    evaluators = [item.expression.bind(child.schema) for item in node.items]

    def rows() -> Iterator[Row]:
        for row in child.rows():
            yield tuple(evaluate(row) for evaluate in evaluators)

    return Compiled(schema, rows, 0)


@dataclass
class _AggregateSpec:
    """The schema-level analysis of one AggregateNode, shared by the
    row-at-a-time operator and the batch (vectorized) operator so both
    raise identical analysis errors and produce identical layouts."""

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


def _compile_aggregate(node: AggregateNode, child: Compiled) -> Compiled:
    input_schema = child.schema
    spec = _analyze_aggregate(node, input_schema)
    key_evals = [expression.bind(input_schema) for expression in node.group_by]
    aggregate_inputs = [agg.bind_input(input_schema) for agg in spec.aggregates]

    def rows() -> Iterator[Row]:
        groups: dict = {}
        for row in child.rows():
            key = tuple(evaluate(row) for evaluate in key_evals)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = _new_group(spec)
            for accumulator, input_eval in zip(accumulators, aggregate_inputs):
                accumulator.add(input_eval(row))
        yield from _finalize_groups(spec, groups)

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
# The columnar (batch-at-a-time) fast path
# --------------------------------------------------------------------------

BatchSource = Callable[[], Iterable[Any]]


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


def _compile_above(node: LogicalPlan, child: Compiled) -> Compiled:
    """Compile one remaining plan node with the row operators."""
    if isinstance(node, FilterNode):
        return _compile_filter(node, child)
    if isinstance(node, ProjectNode):
        return _compile_project(node, child)
    if isinstance(node, AggregateNode):
        return _compile_aggregate(node, child)
    if isinstance(node, DistinctNode):
        return _compile_distinct(child)
    if isinstance(node, SortNode):
        return _compile_sort(node, child)
    if isinstance(node, LimitNode):
        return _compile_limit(node, child)
    raise SqlAnalysisError(f"unknown plan node {type(node).__name__}")


def _compile_aggregate_batches(
    node: AggregateNode, batches: Callable[[], Iterator[Any]], scan_schema: Schema
) -> Optional[Compiled]:
    """Vectorized aggregation: key/input vectors via kernels, then one
    :meth:`~repro.sql.grouping.GroupTable.add_batch` per batch (rows
    bucketed by group, each accumulator fed a group at a time); shared
    finalization.

    Returns None when a grouping or input expression is not provably
    total -- the caller then aggregates row-at-a-time instead.
    """
    from repro.sql.expressions import Star
    from repro.sql.grouping import GroupTable
    from repro.sql.kernels import compile_expression

    key_kernels = []
    for expression in node.group_by:
        kernel = compile_expression(expression, scan_schema)
        if kernel is None:
            return None
        key_kernels.append(kernel)
    spec = _analyze_aggregate(node, scan_schema)
    input_kernels = []
    for aggregate in spec.aggregates:
        if isinstance(aggregate.arg, Star):
            input_kernels.append(None)  # the group table counts rows
            continue
        kernel = compile_expression(aggregate.arg, scan_schema)
        if kernel is None:
            return None
        input_kernels.append(kernel)

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


def compile_plan_batches(
    plan: LogicalPlan, batch_source: BatchSource, scan_schema: Schema
) -> Optional[Compiled]:
    """Compile a plan against a *batch* source, staying columnar for the
    maximal Scan -> Filter -> (Project | Aggregate) prefix.

    The prefix runs as compile-once kernels over ``ColumnBatch`` column
    vectors; any remaining operators (Distinct/Sort/Limit, or a
    projection/aggregation that did not prove total) reuse the row
    operators above the kernel pipeline, so results -- including which
    queries raise and when -- are byte-identical to the row path.

    Returns None when the WHERE predicate cannot be proven total; the
    caller must then fall back to :func:`execute_plan` over rows.
    """
    from repro.columnar.batch import as_column_batch
    from repro.sql.kernels import compile_predicate, compile_projection

    nodes = _linearize(plan)
    rest = nodes[1:]  # drop the ScanNode
    consumed = 0
    selection = None
    if rest and isinstance(rest[0], FilterNode):
        selection = compile_predicate(rest[0].condition, scan_schema)
        if selection is None:
            # The predicate could raise; only the row path preserves
            # exactly *where* in the stream it does.
            return None
        consumed = 1

    def filtered_batches() -> Iterator[Any]:
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

    base: Optional[Compiled] = None
    next_node = rest[consumed] if consumed < len(rest) else None
    if isinstance(next_node, ProjectNode):
        project = compile_projection(
            [item.expression for item in next_node.items], scan_schema
        )
        if project is not None:
            out_schema = Schema(
                [
                    Field(item.output_name, infer_type(item.expression, scan_schema))
                    for item in next_node.items
                ]
            )

            def project_rows() -> Iterator[Row]:
                for batch in filtered_batches():
                    yield from zip(*project(batch.columns, len(batch)))

            base = Compiled(out_schema, project_rows)
            consumed += 1
    elif isinstance(next_node, AggregateNode):
        base = _compile_aggregate_batches(next_node, filtered_batches, scan_schema)
        if base is not None:
            consumed += 1

    if base is None:

        def scan_rows() -> Iterator[Row]:
            for batch in filtered_batches():
                yield from batch.rows

        base = Compiled(scan_schema, scan_rows)

    compiled = base
    for node in rest[consumed:]:
        compiled = _compile_above(node, compiled)
    return compiled


def execute_plan_batches(
    plan: LogicalPlan, batch_source: BatchSource, scan_schema: Schema
) -> Optional[Tuple[Schema, List[Row]]]:
    """Run ``plan`` over a batch source via the columnar fast path.

    Returns None when the plan does not compile to kernels (the caller
    falls back to :func:`execute_plan` over a row source).
    """
    compiled = compile_plan_batches(plan, batch_source, scan_schema)
    if compiled is None:
        return None
    rows = list(compiled.rows())
    if compiled.hidden:
        rows = [row[: -compiled.hidden] for row in rows]
    return compiled.visible_schema(), rows


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
    from repro.sql.expressions import Star

    if isinstance(aggregate.arg, Star):
        return DataType.INT
    return infer_type(aggregate.arg, schema)
