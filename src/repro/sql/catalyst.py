"""Logical plans and the Catalyst-style optimizer.

"Given a SQL query, the optimizer extracts the projection and selection
filters implied by the query.  These extracted filters are then used by
Spark SQL with the customized flavors of the data source API" (paper
Section III-A).  This module provides exactly that:

* :func:`build_logical_plan` -- Query AST to logical plan
  (Scan -> Filter -> Aggregate/Project -> Distinct -> Sort -> Limit).
* :class:`Optimizer` -- rule-based rewrites: constant folding, boolean
  simplification, conjunct splitting and LIKE decomposition.
* :func:`extract_pushdown` -- the Data-Sources-API handshake: the source
  filters (selection), which of them the source answers for exactly
  (*handled*: they leave the plan), the predicate that must still run
  in the compute cluster, and the columns (projection) that predicate
  and the rest of the query read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.sql import filters as f
from repro.sql.errors import SqlAnalysisError
from repro.sql.expressions import (
    Aggregate,
    Between,
    BinaryOp,
    Column,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    SelectItem,
    Star,
    UnaryOp,
)
from repro.sql.parser import Query
from repro.sql.types import DataType, Schema


# --------------------------------------------------------------------------
# Logical plan nodes
# --------------------------------------------------------------------------


class LogicalPlan:
    """Base class for logical plan nodes."""

    child: Optional["LogicalPlan"] = None

    def describe(self, indent: int = 0) -> str:
        line = " " * indent + self._label()
        if self.child is not None:
            return line + "\n" + self.child.describe(indent + 2)
        return line

    def _label(self) -> str:
        return type(self).__name__


class ScanNode(LogicalPlan):
    def __init__(self, table: str, schema: Schema):
        self.table = table
        self.schema = schema
        self.child = None

    def _label(self) -> str:
        return f"Scan({self.table}: {', '.join(self.schema.names)})"


class FilterNode(LogicalPlan):
    def __init__(self, condition: Expression, child: LogicalPlan):
        self.condition = condition
        self.child = child

    def _label(self) -> str:
        return f"Filter({self.condition.to_sql()})"


class ProjectNode(LogicalPlan):
    def __init__(self, items: List[SelectItem], child: LogicalPlan):
        self.items = items
        self.child = child

    def _label(self) -> str:
        return "Project(" + ", ".join(i.to_sql() for i in self.items) + ")"


class AggregateNode(LogicalPlan):
    def __init__(
        self,
        group_by: List[Expression],
        items: List[SelectItem],
        child: LogicalPlan,
        having: Optional[Expression] = None,
    ):
        self.group_by = group_by
        self.items = items
        self.child = child
        self.having = having

    def _label(self) -> str:
        keys = ", ".join(e.to_sql() for e in self.group_by)
        outs = ", ".join(i.to_sql() for i in self.items)
        having = (
            f", having={self.having.to_sql()}" if self.having is not None else ""
        )
        return f"Aggregate(keys=[{keys}], out=[{outs}]{having})"


class DistinctNode(LogicalPlan):
    def __init__(self, child: LogicalPlan):
        self.child = child


class SortNode(LogicalPlan):
    def __init__(
        self, order_by: List[Tuple[Expression, bool]], child: LogicalPlan
    ):
        self.order_by = order_by
        self.child = child

    def _label(self) -> str:
        keys = ", ".join(
            e.to_sql() + ("" if asc else " DESC") for e, asc in self.order_by
        )
        return f"Sort({keys})"


class LimitNode(LogicalPlan):
    def __init__(self, count: int, child: LogicalPlan):
        self.count = count
        self.child = child

    def _label(self) -> str:
        return f"Limit({self.count})"


def build_logical_plan(query: Query, schema: Schema) -> LogicalPlan:
    """Translate a parsed query into the canonical logical plan."""
    plan: LogicalPlan = ScanNode(query.table, schema)
    if query.where is not None:
        if query.where.contains_aggregate():
            raise SqlAnalysisError("aggregates are not allowed in WHERE")
        plan = FilterNode(query.where, plan)

    items = _expand_star(query.items, schema)
    has_aggregates = bool(query.group_by) or any(
        item.expression.contains_aggregate() for item in items
    )
    if has_aggregates:
        plan = AggregateNode(
            list(query.group_by), items, plan, having=query.having
        )
    elif query.having is not None:
        raise SqlAnalysisError("HAVING requires GROUP BY or aggregates")
    else:
        plan = ProjectNode(items, plan)
    if query.distinct:
        plan = DistinctNode(plan)
    if query.order_by:
        plan = SortNode(list(query.order_by), plan)
    if query.limit is not None:
        plan = LimitNode(query.limit, plan)
    return plan


def _expand_star(
    items: Sequence[SelectItem], schema: Schema
) -> List[SelectItem]:
    expanded: List[SelectItem] = []
    for item in items:
        if isinstance(item.expression, Star):
            expanded.extend(SelectItem(Column(name)) for name in schema.names)
        else:
            expanded.append(item)
    return expanded


# --------------------------------------------------------------------------
# Expression rewriting rules
# --------------------------------------------------------------------------


def fold_constants(expression: Expression) -> Expression:
    """Evaluate literal-only subtrees and simplify boolean algebra."""
    rewritten = _rewrite_children(expression, fold_constants)

    if isinstance(rewritten, BinaryOp):
        left, right = rewritten.left, rewritten.right
        if rewritten.op == "and":
            if _is_literal(left, True):
                return right
            if _is_literal(right, True):
                return left
            if _is_literal(left, False) or _is_literal(right, False):
                return Literal(False)
        elif rewritten.op == "or":
            if _is_literal(left, False):
                return right
            if _is_literal(right, False):
                return left
            if _is_literal(left, True) or _is_literal(right, True):
                return Literal(True)
        if isinstance(left, Literal) and isinstance(right, Literal):
            return _evaluate_constant(rewritten)
    elif isinstance(rewritten, UnaryOp):
        if rewritten.op == "not" and isinstance(rewritten.operand, UnaryOp):
            inner = rewritten.operand
            if inner.op == "not":
                return inner.operand
        if isinstance(rewritten.operand, Literal):
            return _evaluate_constant(rewritten)
    elif isinstance(rewritten, FunctionCall):
        if all(isinstance(arg, Literal) for arg in rewritten.args):
            return _evaluate_constant(rewritten)
    return rewritten


def _rewrite_children(expression: Expression, rule) -> Expression:
    if isinstance(expression, BinaryOp):
        return BinaryOp(expression.op, rule(expression.left), rule(expression.right))
    if isinstance(expression, UnaryOp):
        return UnaryOp(expression.op, rule(expression.operand))
    if isinstance(expression, Like):
        return Like(rule(expression.operand), expression.pattern, expression.negated)
    if isinstance(expression, InList):
        return InList(
            rule(expression.operand),
            [rule(item) for item in expression.items],
            expression.negated,
        )
    if isinstance(expression, Between):
        return Between(
            rule(expression.operand),
            rule(expression.low),
            rule(expression.high),
            expression.negated,
        )
    if isinstance(expression, IsNull):
        return IsNull(rule(expression.operand), expression.negated)
    if isinstance(expression, FunctionCall):
        return FunctionCall(expression.name, [rule(arg) for arg in expression.args])
    if isinstance(expression, Aggregate):
        return Aggregate(expression.name, rule(expression.arg), expression.distinct)
    return expression


def _is_literal(expression: Expression, value) -> bool:
    return isinstance(expression, Literal) and expression.value is value


def _evaluate_constant(expression: Expression) -> Expression:
    empty_schema = Schema([])
    try:
        return Literal(expression.bind(empty_schema)(()))
    except Exception:
        return expression


def split_conjuncts(expression: Expression) -> List[Expression]:
    """Flatten a tree of top-level ANDs into its conjuncts."""
    if isinstance(expression, BinaryOp) and expression.op == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild an AND-tree from a conjunct list (None when empty)."""
    result: Optional[Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("and", result, conjunct)
    return result


# --------------------------------------------------------------------------
# Expression -> source-filter conversion (the pushdown boundary)
# --------------------------------------------------------------------------

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>", "!=": "!="}
_COMPARE_FILTERS = {
    "=": f.EqualTo,
    ">": f.GreaterThan,
    ">=": f.GreaterThanOrEqual,
    "<": f.LessThan,
    "<=": f.LessThanOrEqual,
}


def decompose_like(attribute: str, pattern: str) -> f.Filter:
    """Rewrite a LIKE pattern into the cheapest equivalent source filter.

    ``abc`` -> EqualTo, ``abc%`` -> StartsWith, ``%abc`` -> EndsWith,
    ``%abc%`` -> Contains, anything else -> general LikePattern.
    """
    has_underscore = "_" in pattern
    body = pattern.strip("%")
    if not has_underscore and "%" not in body:
        starts = not pattern.startswith("%")
        ends = not pattern.endswith("%")
        if starts and ends:
            return f.EqualTo(attribute, body)
        if starts:
            return f.StringStartsWith(attribute, body)
        if ends:
            return f.StringEndsWith(attribute, body)
        return f.StringContains(attribute, body)
    return f.LikePattern(attribute, pattern)


def expression_to_filter(
    expression: Expression, schema: Optional[Schema] = None
) -> Optional[f.Filter]:
    """Convert one predicate expression to a source filter, or None if it
    cannot be pushed (references computed values, non-literal operands...).

    The filter never rejects a row the expression accepts.  LIKE matches
    the *text* of a cell, so its cheaper decompositions (``abc`` ->
    EqualTo compares values) hold only on a STRING column: given the
    ``schema``, LIKE on any other column stays a general LikePattern.
    """
    if isinstance(expression, BinaryOp):
        if expression.op in ("and", "or"):
            left = expression_to_filter(expression.left, schema)
            right = expression_to_filter(expression.right, schema)
            if left is None or right is None:
                return None
            return (f.And if expression.op == "and" else f.Or)(left, right)
        if expression.op in _COMPARE_FILTERS or expression.op in ("<>", "!="):
            column, literal, op = _normalize_comparison(expression)
            if column is None:
                return None
            if op in ("<>", "!="):
                return f.Not(f.EqualTo(column, literal))
            return _COMPARE_FILTERS[op](column, literal)
        return None
    if isinstance(expression, UnaryOp) and expression.op == "not":
        inner = expression_to_filter(expression.operand, schema)
        return f.Not(inner) if inner is not None else None
    if isinstance(expression, Like):
        if not isinstance(expression.operand, Column):
            return None
        name = expression.operand.name
        if schema is None or _is_string_column(name, schema):
            converted = decompose_like(name, expression.pattern)
        else:
            converted = f.LikePattern(name, expression.pattern)
        return f.Not(converted) if expression.negated else converted
    if isinstance(expression, InList):
        if not isinstance(expression.operand, Column):
            return None
        values = []
        for item in expression.items:
            if not isinstance(item, Literal):
                return None
            values.append(item.value)
        converted: f.Filter = f.In(expression.operand.name, values)
        return f.Not(converted) if expression.negated else converted
    if isinstance(expression, Between):
        if not isinstance(expression.operand, Column):
            return None
        if not (
            isinstance(expression.low, Literal)
            and isinstance(expression.high, Literal)
        ):
            return None
        name = expression.operand.name
        converted = f.And(
            f.GreaterThanOrEqual(name, expression.low.value),
            f.LessThanOrEqual(name, expression.high.value),
        )
        return f.Not(converted) if expression.negated else converted
    if isinstance(expression, IsNull):
        if not isinstance(expression.operand, Column):
            return None
        if expression.negated:
            return f.IsNotNull(expression.operand.name)
        return f.IsNull(expression.operand.name)
    return None


def _is_string_column(name: str, schema: Schema) -> bool:
    return name in schema and schema.field(name).dtype is DataType.STRING


def _normalize_comparison(expression: BinaryOp):
    """Orient ``column op literal``; returns (name, value, op) or Nones."""
    left, right, op = expression.left, expression.right, expression.op
    if isinstance(left, Column) and isinstance(right, Literal):
        return left.name, right.value, op
    if isinstance(left, Literal) and isinstance(right, Column):
        return right.name, left.value, _FLIPPED.get(op, op)
    return None, None, op


# --------------------------------------------------------------------------
# Pushdown extraction
# --------------------------------------------------------------------------


#: Why the compute side still evaluates a WHERE conjunct (stable codes).
#: ``untranslatable`` conjuncts are not pushed at all; the rest are
#: pushed best-effort and re-applied upstream.
UNHANDLED_REASONS = (
    "untranslatable",
    "not_total",
    "negation",
    "text_filter_on_non_string",
    "source_declined",
)


@dataclass(frozen=True)
class PushedConjunct:
    """One top-level WHERE conjunct and what became of it.

    ``filter`` is its source filter (None: not pushed).  ``reason`` is
    None when the source answers for it -- the conjunct is *handled* and
    leaves the plan -- else one of :data:`UNHANDLED_REASONS`.
    """

    conjunct: Expression
    filter: Optional[f.Filter] = None
    reason: Optional[str] = None


@dataclass
class PushdownSpec:
    """What the data source is asked to do (projection + selection).

    ``filters`` is the conjunctive list the scan is given; it returns
    exactly the rows passing them.  A filter is *handled* when that is
    also exactly the rows its conjunct accepts: the conjunct then leaves
    the plan, and a column only handled filters mention leaves
    ``required_columns`` (base-schema order, never empty).  Every other
    conjunct stays in ``compute_filter``, which the executor evaluates
    over the scan's rows; ``residual`` is the part of it that was never
    pushed.
    """

    required_columns: List[str]
    conjuncts: List[PushedConjunct] = field(default_factory=list)

    @property
    def filters(self) -> List[f.Filter]:
        return [item.filter for item in self.conjuncts if item.filter is not None]

    @property
    def handled(self) -> List[f.Filter]:
        return [item.filter for item in self.conjuncts if item.reason is None]

    @property
    def unhandled(self) -> List[Tuple[f.Filter, str]]:
        """Pushed best-effort, re-applied upstream: (filter, reason)."""
        return [
            (item.filter, item.reason)
            for item in self.conjuncts
            if item.filter is not None and item.reason is not None
        ]

    @property
    def residual(self) -> Optional[Expression]:
        return conjoin(
            [item.conjunct for item in self.conjuncts if item.filter is None]
        )

    @property
    def compute_filter(self) -> Optional[Expression]:
        """residual AND unhandled, in WHERE order: the plan's FilterNode."""
        return conjoin(
            [item.conjunct for item in self.conjuncts if item.reason is not None]
        )

    def describe(self) -> str:
        filters = ", ".join(repr(item) for item in self.filters) or "none"
        residual = self.residual.to_sql() if self.residual else "none"
        handled = ", ".join(repr(item) for item in self.handled)
        unhandled = ", ".join(
            (item.conjunct.to_sql() if item.filter is None else repr(item.filter))
            + f" ({item.reason})"
            for item in self.conjuncts
            if item.reason is not None
        )
        return (
            f"columns=[{', '.join(self.required_columns)}] "
            f"filters=[{filters}] residual={residual} "
            f"handled=[{handled}] unhandled=[{unhandled}]"
        )


def required_columns(query: Query, schema: Schema) -> List[str]:
    """All base columns the query touches, in schema order."""
    referenced = _output_references(query, schema)
    if query.where is not None:
        referenced |= query.where.columns()
    return [name for name in schema.names if name.lower() in referenced]


def _output_references(query: Query, schema: Schema) -> Set[str]:
    """Columns referenced anywhere but WHERE (lower-cased)."""
    referenced: Set[str] = set()
    for item in _expand_star(query.items, schema):
        referenced |= item.expression.columns()
    for expression in query.group_by:
        referenced |= expression.columns()
    for expression, _ascending in query.order_by:
        referenced |= expression.columns()
    # ORDER BY / GROUP BY may also name select aliases; those resolve to
    # the aliased expressions whose base columns are already in the select
    # items' reference set, so filtering against schema names suffices.
    return referenced


def count_column(schema: Schema, filters: Sequence[f.Filter]) -> str:
    """The column to ship when a query reads none (``count(*)``): one
    the filters already make the source read, else the first."""
    referenced: Set[str] = set()
    for item in filters:
        referenced |= item.references()
    names = schema.names
    return next((name for name in names if name.lower() in referenced), names[0])


def _inexact_reason(
    conjunct: Expression, converted: f.Filter, schema: Schema
) -> Optional[str]:
    """Why ``converted`` may answer differently from ``conjunct`` on
    some row of ``schema`` (None: never).

    A source filter answers False for NULL and for incomparable values.
    That is the conjunct's own answer-as-WHERE exactly when the conjunct
    cannot raise (the kernels' totality proof) and no ``Not`` sits in
    the filter tree (``NOT`` of NULL is NULL; ``Not`` of False is True).
    """
    from repro.sql.kernels import proves_total

    if not proves_total(conjunct, schema):
        return "not_total"
    if _has_not(converted):
        return "negation"
    if any(
        isinstance(node, Like) and not _is_string_column(node.operand.name, schema)
        for node in _walk(conjunct)
    ):
        return "text_filter_on_non_string"
    return None


def _walk(expression: Expression):
    yield expression
    for child in expression.children():
        yield from _walk(child)


def _has_not(item: f.Filter) -> bool:
    if isinstance(item, f.Not):
        return True
    if isinstance(item, (f.And, f.Or)):
        return _has_not(item.left) or _has_not(item.right)
    return False


def extract_pushdown(query: Query, schema: Schema, source=None) -> PushdownSpec:
    """The PrunedFilteredScan handshake for a query against ``schema``.

    ``source`` is the relation being asked
    (:class:`~repro.spark.datasources.BaseRelation`): the filters it
    returns from ``unhandled_filters`` are ``source_declined``, and it
    names the column to ship when the query needs none.  Without one,
    the source is taken to evaluate every filter as
    :mod:`repro.sql.filters` defines it, as both pushdown storlets do.
    """
    conjuncts: List[PushedConjunct] = []
    if query.where is not None:
        folded = fold_constants(query.where)
        for conjunct in split_conjuncts(folded):
            converted = expression_to_filter(conjunct, schema)
            known = conjunct.columns() <= {n.lower() for n in schema.names}
            if converted is None or not known:
                conjuncts.append(PushedConjunct(conjunct, None, "untranslatable"))
                continue
            reason = _inexact_reason(conjunct, converted, schema)
            conjuncts.append(PushedConjunct(conjunct, converted, reason))
    if source is not None:
        exact = [item.filter for item in conjuncts if item.reason is None]
        declined = source.unhandled_filters(exact)
        conjuncts = [
            PushedConjunct(item.conjunct, item.filter, "source_declined")
            if item.reason is None and item.filter in declined
            else item
            for item in conjuncts
        ]
    spec = PushdownSpec([], conjuncts)
    referenced = _output_references(query, schema)
    for item in conjuncts:
        if item.reason is not None:
            referenced |= item.conjunct.columns()
    columns = [name for name in schema.names if name.lower() in referenced]
    if not columns and schema.names:
        columns = [
            count_column(schema, spec.handled)
            if source is None
            else source.count_column(spec.handled)
        ]
    spec.required_columns = columns
    return spec


class Optimizer:
    """Rule-based logical optimizer.

    Rules applied (in order): constant folding on every expression,
    removal of always-true filters, replacement of always-false filters'
    subtree results at execution time (the executor short-circuits), and
    column pruning via :func:`extract_pushdown` when the consumer asks.
    """

    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        return self._rewrite(plan)

    def _rewrite(self, plan: LogicalPlan) -> LogicalPlan:
        if plan.child is not None:
            plan.child = self._rewrite(plan.child)
        if isinstance(plan, FilterNode):
            condition = fold_constants(plan.condition)
            if _is_literal(condition, True):
                return plan.child  # type: ignore[return-value]
            plan.condition = condition
        if isinstance(plan, ProjectNode):
            plan.items = [
                SelectItem(fold_constants(item.expression), item.alias)
                for item in plan.items
            ]
        if isinstance(plan, AggregateNode):
            plan.group_by = [fold_constants(e) for e in plan.group_by]
            plan.items = [
                SelectItem(fold_constants(item.expression), item.alias)
                for item in plan.items
            ]
            if plan.having is not None:
                plan.having = fold_constants(plan.having)
        return plan
