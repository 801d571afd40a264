"""Physical execution of logical plans: one pipeline, over batches.

Every plan is Scan -> [Filter] -> (Project | Aggregate) -> [Distinct] ->
[Sort] -> [Limit] (:func:`repro.sql.catalyst.build_logical_plan`).  The
scan arrives as ``ColumnBatch``es and the prefix up to the projection or
the aggregate runs on them as compile-once kernels
(:mod:`repro.sql.kernels`): a selection vector per batch, then either
output vectors or one :meth:`~repro.sql.grouping.GroupTable.add_batch`.
What comes out is rows, and Distinct / Sort / Limit are row operators
over them; HAVING and the outputs above an aggregate run as kernels
over the finalized groups' columns, sort keys over the rows a sort
materialized.  The same pipeline runs on both sides of the pushdown
boundary: the Spark workers run the part of the query that was *not*
pushed down with it.  A GROUP-BY pushdown scan is one more source: its
records -- the store's partial group states -- fill the Aggregate's
table directly (:meth:`~repro.sql.grouping.GroupTable.add_records`),
and everything above the Aggregate runs as for any other query.

An expression the kernel compiler cannot prove total still gets a
kernel -- the unproven operations guarded, one call per row -- so there
is no second evaluator to fall back to.  What such an expression
changes is *when* its error surfaces: a batch at a time.  A satisfied
LIMIT never pulls a batch behind it, but a raising row behind the limit
in the *same* batch raises; and when a filter row and a projection row
of one batch both raise, which message wins is not pinned (the
``SqlError`` subclass is).

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

from repro.columnar.batch import ColumnBatch, take_column
from repro.obs.metrics import MetricsRegistry
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
    Star,
)
from repro.sql.functions import make_accumulator
from repro.sql.grouping import GroupTable
from repro.sql.kernels import (
    VectorKernel,
    compile_expression,
    compile_predicate,
    compile_projection,
    compile_untyped,
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
    plan: LogicalPlan,
    batch_source: BatchSource,
    scan_schema: Schema,
    partials: bool = False,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Schema, List[Row]]:
    """Run ``plan`` over the ``ColumnBatch``es of ``scan_schema`` that
    ``batch_source()`` yields; returns the visible output schema and
    rows.  The source
    is called once and pulled lazily: a satisfied LIMIT stops it.

    With ``partials`` the source yields a GROUP-BY pushdown scan's
    records instead, and the plan's Aggregate, directly above its scan,
    merges them.
    Every expression over the scan that has an operation the kernel
    compiler cannot prove total -- it runs guarded -- is counted in
    ``registry`` (``sql.kernel_refusals``), and so is each aggregate
    input a batch fed, by how the group table read it
    (``sql.aggregate_inputs{how=}``)."""
    compiled = _compile(plan, batch_source, scan_schema, partials, registry)
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
    plan: LogicalPlan, batch_source: BatchSource, scan_schema: Schema, partials: bool,
    registry: Optional[MetricsRegistry],
) -> Compiled:
    """Kernels for Scan -> [Filter] -> (Project | Aggregate), the row
    operators for what sits above."""
    rest = _linearize(plan)[1:]  # drop the ScanNode
    if partials and not (rest and isinstance(rest[0], AggregateNode)):
        raise SqlAnalysisError(
            "partial aggregate states feed an Aggregate directly above the scan"
        )
    selection = None
    if rest and isinstance(rest[0], FilterNode):
        selection = compile_predicate(rest.pop(0).condition, scan_schema, registry)

    def filtered_batches() -> Iterator[ColumnBatch]:
        for batch in batch_source():
            if selection is not None:
                n = len(batch)
                picked = selection(batch.columns, n)
                if not picked:
                    continue
                if len(picked) != n:
                    batch = batch.take(picked)
            yield batch

    node = rest.pop(0) if rest else None
    if isinstance(node, ProjectNode):
        compiled = _compile_project(node, filtered_batches, scan_schema, registry)
    elif isinstance(node, AggregateNode):
        source = batch_source if partials else filtered_batches
        compiled = _compile_aggregate(node, source, scan_schema, partials, registry)
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
    node: ProjectNode, batches: Callable[[], Iterator[ColumnBatch]], scan_schema: Schema,
    registry: Optional[MetricsRegistry],
) -> Compiled:
    schema = Schema(
        [
            Field(item.output_name, infer_type(item.expression, scan_schema))
            for item in node.items
        ]
    )
    expressions = [item.expression for item in node.items]
    project = compile_projection(expressions, scan_schema, registry)

    def rows() -> Iterator[Row]:
        for batch in batches():
            yield from zip(*project(batch.columns, len(batch)))

    return Compiled(schema, rows)


@dataclass
class _AggregateSpec:
    """The schema-level analysis of one AggregateNode."""

    group_by: List[Expression]
    aggregates: List[Aggregate]
    outputs: List[VectorKernel]
    having: Optional[VectorKernel]
    schema: Schema


def aggregate_calls(node: AggregateNode) -> List[Aggregate]:
    """The distinct aggregate calls across all output items, plus any
    aggregates the HAVING clause references but the items do not.
    Accumulator ``j`` of every group computes call ``j``: a GROUP-BY
    pushdown spec ships its states in this order."""
    expressions = [item.expression for item in node.items]
    if node.having is not None:
        expressions.append(node.having)
    calls: List[Aggregate] = []
    for expression in expressions:
        for aggregate in expression.aggregates():
            if aggregate not in calls:
                calls.append(aggregate)
    return calls


def _analyze_aggregate(node: AggregateNode, input_schema: Schema) -> _AggregateSpec:
    """Resolve aggregates, post-agg rewrites and output schema."""
    aggregates = aggregate_calls(node)

    # Post-aggregation columns: [key_0..key_k, agg_0..agg_m].
    post_schema = Schema(
        [Field(f"__key_{i}") for i in range(len(node.group_by))]
        + [Field(f"__agg_{j}") for j in range(len(aggregates))]
    )

    def post_kernel(expression: Expression, complaint: str) -> VectorKernel:
        rewritten = _rewrite_post_agg(expression, node.group_by, aggregates)
        leftover = rewritten.columns() - {name.lower() for name in post_schema.names}
        if leftover:
            raise SqlAnalysisError(complaint.format(sorted(leftover), rewritten.to_sql()))
        return compile_untyped(rewritten, post_schema)

    outputs = [
        post_kernel(item.expression, "column(s) {} are neither grouped nor aggregated in {!r}")
        for item in node.items
    ]
    having = None
    if node.having is not None:
        having = post_kernel(node.having, "HAVING references non-grouped column(s) {}")
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
        outputs=outputs,
        having=having,
        schema=schema,
    )


def _new_group(spec: _AggregateSpec) -> list:
    """Fresh state for one group, one accumulator per aggregate."""
    return [make_accumulator(agg.name, agg.distinct) for agg in spec.aggregates]


def _finalize_groups(spec: _AggregateSpec, groups: dict) -> Iterator[Row]:
    """Turn accumulated groups (a dict in first-seen order) into output
    rows: HAVING and the outputs run as kernels over the groups'
    columns, the outputs only over the groups HAVING keeps."""
    if not groups and not spec.group_by:
        # Global aggregate over empty input still yields one row.
        groups[()] = _new_group(spec)
    posts = [
        key + tuple(accumulator.result() for accumulator in accumulators)
        for key, accumulators in groups.items()
    ]
    columns, n = list(zip(*posts)), len(posts)
    if spec.having is not None and n:
        kept = [row for row, verdict in enumerate(spec.having(columns, n)) if verdict is True]
        columns = [take_column(column, kept) for column in columns]
        n = len(kept)
    if n:
        keys = columns[: len(spec.group_by)]
        yield from zip(*[kernel(columns, n) for kernel in spec.outputs], *keys)


def _compile_aggregate(
    node: AggregateNode, source: Callable[[], Iterable], scan_schema: Schema, partials: bool,
    registry: Optional[MetricsRegistry],
) -> Compiled:
    """Key and input vectors via kernels, then one
    :meth:`~repro.sql.grouping.GroupTable.add_batch` per batch (rows
    bucketed by group, each accumulator fed a group at a time).  With
    ``partials`` the source is a GROUP-BY pushdown scan's records
    (:meth:`~repro.sql.grouping.GroupTable.add_records`): states merge
    into the accumulators."""
    key_kernels = [compile_expression(key, scan_schema, registry) for key in node.group_by]
    spec = _analyze_aggregate(node, scan_schema)
    # COUNT(*) has no input vector: the group table counts rows.
    input_kernels = [
        None
        if isinstance(aggregate.arg, Star)
        else compile_expression(aggregate.arg, scan_schema, registry)
        for aggregate in spec.aggregates
    ]

    def rows() -> Iterator[Row]:
        table = GroupTable(lambda: _new_group(spec))
        if partials:
            table.add_records(source())
        else:
            for batch in source():
                n, columns = len(batch), batch.columns
                if n:
                    table.add_batch(
                        [kernel(columns, n) for kernel in key_kernels],
                        [None if kernel is None else kernel(columns, n) for kernel in input_kernels],
                        n,
                    )
            if registry is not None:
                for how, count in table.inputs.items():
                    if count:
                        registry.inc("sql.aggregate_inputs", count, how=how)
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


def _compile_sort(node: SortNode, child: Compiled) -> Compiled:
    keys = [
        (_resolve_sort_key(expression, child), ascending)
        for expression, ascending in node.order_by
    ]

    def rows() -> Iterator[Row]:
        materialized = list(child.rows())
        if not materialized:
            return iter(())
        columns, n = list(zip(*materialized)), len(materialized)
        vectors = [kernel(columns, n) for kernel, _ascending in keys]
        order = list(range(n))
        # Stable sorts compose: apply keys right-to-left.  NULLs sort
        # first under ASC and last under DESC, as in Spark: the key
        # leads with "is not NULL", so a NULL is never compared with a
        # value, and reverse=True keeps ties in order.
        for vector, (_kernel, ascending) in reversed(list(zip(vectors, keys))):
            order.sort(
                key=lambda row: ((value := vector[row]) is not None, value),
                reverse=not ascending,
            )
        return (materialized[row] for row in order)

    return Compiled(child.schema, rows, child.hidden, child.group_exprs)


def _resolve_sort_key(expression: Expression, child: Compiled) -> VectorKernel:
    """Compile an ORDER BY expression against the child's full schema.

    Resolution order: hidden group key (for aggregates, any expression
    textually equal to a GROUP BY key has been exposed as
    ``__group_i``), then output column / alias names.
    """
    if child.group_exprs and expression in child.group_exprs:
        expression = Column(f"__group_{child.group_exprs.index(expression)}")
    try:
        return compile_untyped(expression, child.schema)
    except SqlAnalysisError:
        raise SqlAnalysisError(
            f"cannot resolve ORDER BY expression {expression.to_sql()!r} "
            f"against columns {child.visible_schema().names}"
        ) from None


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
        if expression.name == "avg":
            return DataType.FLOAT
        if expression.name == "count" or isinstance(expression.arg, Star):
            return DataType.INT
        return infer_type(expression.arg, schema)
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
