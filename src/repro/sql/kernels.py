"""Compile-once batch kernels for expressions and pushdown filters.

This module is the SQL engine's one evaluator.  It lowers ASTs *once
per query* into kernels that run *per batch*: a kernel takes the input
column vectors and the row count and returns a result vector, built
with list comprehensions (one bytecode loop per node per batch); a
single row is a batch of one.

Two compilers live here:

* :func:`compile_expression` / :func:`compile_predicate` /
  :func:`compile_projection` (and :func:`compile_untyped`, for cells of
  no declared type) lower :class:`repro.sql.expressions` trees, node by
  node.  A node is **fused** when static typing proves its own
  operation total over the kinds of its operands (ordered comparisons
  between comparable kinds, arithmetic over numerics, the text
  functions that are total over any first argument when the rest are
  integer literals, ...), and **guarded** otherwise: one call per row
  that keeps NULL propagation, yields NULL for division by zero and
  raises any other failure as ``SqlTypeError`` -- a batch at a time,
  which is the one thing a refusal changes besides speed.  Inside AND,
  OR, CASE and IN an operand that is not proven total runs only on the
  rows it can decide, so a row stops, and raises, where row-at-a-time
  evaluation would.  An expression over the scan with a guarded node is
  counted, with a reason code and the innermost refused sub-expression,
  in ``sql.kernel_refusals``.  Semantics are SQL's three-valued logic:
  Kleene AND/OR, NULL propagation, division by zero yielding NULL, and
  ``%`` taking the dividend's sign.  A fused kernel that maps one
  vector cell by cell maps a dictionary-coded vector
  (:class:`~repro.columnar.batch.DictColumn`) entry by entry and keeps
  its codes.
* :class:`FilterMask` lowers the :class:`repro.sql.filters` source
  hierarchy (the storlet wire format) into a byte mask per batch.  It
  is the one evaluator of a pushed filter: both pushdown storlets run
  it next to the data and both plain reads run it at the compute side.
  A row passes where the filter is True under SQL's three-valued
  logic, ``Not`` being SQL's NOT: a leaf on a NULL cell, a NULL
  literal or an incomparable cell is neither True nor False, so it
  passes in neither polarity.  That makes the compiler total (it always
  succeeds and never raises) and a pushed filter exactly its SQL
  conjunct wherever that conjunct cannot raise.  It judges once per
  dictionary entry where a column is dictionary-coded, and a
  comparison (against a number or a string) or a prefix / suffix /
  substring test without a Python frame per row: on the byte planes of
  a packed narrow-int column
  (:class:`~repro.columnar.batch.PackedColumn`), in one C-level pass
  over any other vector.

Kernel calling convention: ``kernel(columns, n) -> vector`` where
``columns`` are the scan-schema-aligned input vectors.  Kernels may
return an input vector unchanged (column references do); callers must
treat result vectors as immutable.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.columnar.batch import DictColumn, PackedColumn, compress_columns, take_column
from repro.obs.metrics import MetricsRegistry
from repro.sql.catalyst import split_conjuncts
from repro.sql.errors import SqlAnalysisError, SqlTypeError
from repro.sql.expressions import (
    Aggregate,
    Between,
    BinaryOp,
    CaseWhen,
    Column,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    UnaryOp,
    like_pattern_to_regex,
)
from repro.sql.filters import (
    And,
    EqualTo,
    Filter,
    GreaterThan,
    GreaterThanOrEqual,
    In,
    IsNotNull,
    LessThan,
    LessThanOrEqual,
    LikePattern,
    Not,
    Or,
    StringContains,
    StringEndsWith,
    StringStartsWith,
    _AttributeFilter,
)
from repro.sql.filters import IsNull as FilterIsNull
from repro.sql.functions import lookup_scalar
from repro.sql.types import DataType, Schema

Columns = Sequence[Sequence[Any]]
VectorKernel = Callable[[Columns, int], Sequence[Any]]
#: ``kernel(columns, n, tally) -> bytes``: one 0/1 byte per row.
MaskKernel = Callable[[Columns, int, Optional[Dict[str, int]]], bytes]
SelectionKernel = Callable[[Columns, int], List[int]]

# ---------------------------------------------------------------------------
# Static typing: prove an operation total before fusing it.
# ---------------------------------------------------------------------------

_NUM = "num"  # int / float / bool -- mutually order-comparable in Python
_STR = "str"
_NULL = "null"  # the literal NULL: every operation on it yields NULL
_ANY = "any"  # unproven: a guarded result, or a column of no declared type

_DTYPE_KIND = {
    DataType.INT: _NUM,
    DataType.FLOAT: _NUM,
    DataType.BOOL: _NUM,
    DataType.STRING: _STR,
}

_ORDERED_OPS = ("<", "<=", ">", ">=")

#: Scalar functions that cannot raise whatever their first argument is,
#: once the remaining arguments are integer literals -> result kind.
_TOTAL_FUNCTIONS = {
    "substring": _STR,
    "substr": _STR,
    "upper": _STR,
    "lower": _STR,
    "trim": _STR,
    "length": _NUM,
}


class KernelRefusal(Exception):
    """Why ``expression``'s own operation cannot be proven total over
    the kinds of its operands: ``reason`` is one of the stable codes
    ``incomparable_types``, ``non_numeric_arithmetic`` and
    ``function_not_total``."""

    def __init__(self, reason: str, expression: Expression):
        super().__init__(f"{reason}: {expression.to_sql()}")
        self.reason = reason
        self.expression = expression


def _node_kind(expr: Expression, kinds: List[str]) -> str:
    """The provable value kind of ``expr`` whose children have
    ``kinds``; certifies that its own operation can never raise.

    Raises :class:`KernelRefusal` when it cannot, and
    :class:`SqlAnalysisError` for what cannot be evaluated at all.
    """
    if isinstance(expr, BinaryOp):
        left, right = kinds
        if expr.op in ("and", "or", "=", "<>", "!="):
            return _NUM  # Python ==/!= never raise across builtin types
        if expr.op == "||":
            return _STR
        if expr.op in _ORDERED_OPS:
            if _NULL in kinds or left == right != _ANY:
                return _NUM
            raise KernelRefusal("incomparable_types", expr)
        if expr.op in ("+", "-", "*", "/", "%"):
            if _NULL in kinds:
                return _NULL
            if left == right == _NUM:
                return _NUM
            if expr.op == "+" and left == right == _STR:
                return _STR
            raise KernelRefusal("non_numeric_arithmetic", expr)
        raise SqlAnalysisError(f"unknown operator {expr.op!r}")
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return _NUM
        if expr.op != "-":
            raise SqlAnalysisError(f"unknown unary operator {expr.op!r}")
        if kinds[0] in (_NUM, _NULL):
            return _NUM
        raise KernelRefusal("non_numeric_arithmetic", expr)
    if isinstance(expr, (Like, InList, IsNull)):
        return _NUM
    if isinstance(expr, Between):
        concrete = {kind for kind in kinds if kind != _NULL}
        if concrete <= {_NUM} or concrete <= {_STR}:
            return _NUM
        raise KernelRefusal("incomparable_types", expr)
    if isinstance(expr, CaseWhen):
        concrete = {kind for kind in kinds if kind != _NULL}
        return concrete.pop() if len(concrete) == 1 else _ANY
    if isinstance(expr, FunctionCall):
        lookup_scalar(expr.name, len(expr.args))  # an unknown name or arity raises
        if expr.name in _TOTAL_FUNCTIONS and all(
            isinstance(arg, Literal) and type(arg.value) is int
            for arg in expr.args[1:]
        ):
            return _NULL if kinds[0] == _NULL else _TOTAL_FUNCTIONS[expr.name]
        raise KernelRefusal("function_not_total", expr)
    raise SqlAnalysisError(f"cannot evaluate {expr.to_sql()}")


def proves_total(expr: Expression, schema: Schema) -> bool:
    """Can evaluating ``expr`` over rows of ``schema`` never raise?"""
    try:
        return _lower(expr, schema, True, []).total
    except SqlAnalysisError:
        return False


# ---------------------------------------------------------------------------
# Fused comparison / arithmetic builders (one comprehension per op).
# ---------------------------------------------------------------------------


CellMap = Callable[[Sequence[Any]], List[Any]]


def _map_cells(inner: VectorKernel, cells: CellMap) -> VectorKernel:
    """``cells`` over the vector ``inner`` yields.  ``cells`` maps a
    value run to one result per value, so over a dictionary-coded
    vector it runs once per *entry* and the codes are kept: the result
    is a :class:`DictColumn` whose entries may repeat."""

    def kernel(cols: Columns, n: int) -> Sequence[Any]:
        values = inner(cols, n)
        if isinstance(values, DictColumn):
            return DictColumn(cells(values.entries), values.codes)
        return cells(values)

    return kernel


def _cmp_col_lit(op: str, v: Any) -> Optional[CellMap]:
    """Fused ``cell <op> literal`` comparison over one vector."""
    if op == "=":
        return lambda cells: [None if c is None else c == v for c in cells]
    if op in ("<>", "!="):
        return lambda cells: [None if c is None else c != v for c in cells]
    if op == "<":
        return lambda cells: [None if c is None else c < v for c in cells]
    if op == "<=":
        return lambda cells: [None if c is None else c <= v for c in cells]
    if op == ">":
        return lambda cells: [None if c is None else c > v for c in cells]
    if op == ">=":
        return lambda cells: [None if c is None else c >= v for c in cells]
    return None


#: ``literal <op> cell`` is ``cell <mirrored op> literal``.
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _cmp_vec(op: str, lk: VectorKernel, rk: VectorKernel) -> Optional[VectorKernel]:
    """Generic vector-vector comparison with NULL propagation."""
    if op == "=":
        return lambda cols, n: [
            None if a is None or b is None else a == b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    if op in ("<>", "!="):
        return lambda cols, n: [
            None if a is None or b is None else a != b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    if op == "<":
        return lambda cols, n: [
            None if a is None or b is None else a < b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    if op == "<=":
        return lambda cols, n: [
            None if a is None or b is None else a <= b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    if op == ">":
        return lambda cols, n: [
            None if a is None or b is None else a > b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    if op == ">=":
        return lambda cols, n: [
            None if a is None or b is None else a >= b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    return None


def _modulo(a: Any, b: Any) -> Any:
    """``a % b`` with the sign of the dividend, as in Spark and sqlite:
    ``-7 % 3`` is -1, ``7 % -3`` is 1, ``-7.5 % 2`` is -1.5.  Raises
    ``ZeroDivisionError`` when ``b`` is 0 (SQL: NULL)."""
    remainder = a % b
    if isinstance(a, float) or isinstance(b, float):
        return math.fmod(a, b) if math.isfinite(a) else remainder
    return remainder - b if remainder and (a < 0) != (b < 0) else remainder


def _arith_vec(op: str, lk: VectorKernel, rk: VectorKernel) -> Optional[VectorKernel]:
    """Generic vector-vector arithmetic; division by zero yields NULL."""
    if op == "+":
        return lambda cols, n: [
            None if a is None or b is None else a + b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    if op == "-":
        return lambda cols, n: [
            None if a is None or b is None else a - b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    if op == "*":
        return lambda cols, n: [
            None if a is None or b is None else a * b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    if op == "/":
        return lambda cols, n: [
            None if a is None or b is None or b == 0 else a / b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    if op == "%":
        return lambda cols, n: [
            None if a is None or b is None or b == 0 else _modulo(a, b)
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    return None


# ---------------------------------------------------------------------------
# Guarded evaluation: an operation that is not proven total.
# ---------------------------------------------------------------------------

#: The binary operators a refusal can leave unproven -> one cell pair's
#: function.
_GUARDED_BINARY: Dict[str, Callable[[Any, Any], Any]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": _modulo,
}


def _between(value: Any, lo: Any, hi: Any, negated: bool) -> Any:
    """``value [NOT] BETWEEN lo AND hi``: ``value >= lo AND value <= hi``
    under Kleene AND, so beside a NULL bound the other comparison still
    answers False (``10 NOT BETWEEN NULL AND 5`` is True)."""
    if value is None or (lo is None and hi is None):
        return None
    if lo is None:
        return None if value <= hi else negated
    if hi is None:
        return None if value >= lo else negated
    return (lo <= value <= hi) is not negated


def _guarded(expr: Expression, inputs: List[VectorKernel]) -> VectorKernel:
    """``expr``'s own operation, not proven total, as one call per row
    over its operands' vectors.  NULL propagates (a scalar function and
    BETWEEN judge it themselves), division by zero yields NULL, and any
    other failure is a :class:`SqlTypeError` naming the operator and the
    operands: the one place where a row's failure becomes an error.  A
    dictionary-coded operand is read row by row, so no entry that no
    row holds is evaluated."""
    # ``strict``: any NULL operand answers NULL before ``cell`` runs.
    if isinstance(expr, FunctionCall):
        name, strict = expr.name.upper(), False
        cell = lookup_scalar(expr.name, len(expr.args))
    elif isinstance(expr, Between):
        name, strict, negated = "BETWEEN", False, expr.negated
        cell = lambda v, lo, hi: _between(v, lo, hi, negated)
    elif isinstance(expr, UnaryOp):
        name, strict, cell = "-", True, operator.neg
    else:
        name, strict = expr.op, True  # type: ignore[attr-defined]
        cell = _GUARDED_BINARY[name]

    def apply(*values: Any) -> Any:
        if strict and None in values:
            return None
        try:
            return cell(*values)
        except ZeroDivisionError:
            return None
        except (TypeError, ValueError, ArithmeticError) as error:
            operands = ", ".join(map(repr, values))
            raise SqlTypeError(f"cannot apply {name} to {operands}") from error

    return lambda cols, n: list(map(apply, *[kernel(cols, n) for kernel in inputs]))


Reach = Callable[[Columns, int, List[int]], Sequence[Any]]


def _narrowed(cols: Columns, needed: Sequence[int], rows: List[int]) -> List[Any]:
    """The columns at ``needed`` gathered to ``rows``; the others None."""
    narrowed: List[Any] = [None] * len(cols)
    for index in needed:
        narrowed[index] = take_column(cols[index], rows)
    return narrowed


def _reach(node: Expression, lowered: "_Lowered", schema: Schema) -> Reach:
    """``(cols, n, rows) -> vector``: an operand evaluated where its
    parent reaches it, ``rows``.  A proven operand runs over the whole
    batch (it cannot raise, so the rows it did not need cost only
    time); one that is not runs on ``rows`` alone, the columns ``node``
    reads gathered to them, and its cells are spread back over all
    ``n`` rows, NULL elsewhere."""
    kernel = lowered.kernel
    if lowered.total:
        return lambda cols, n, rows: kernel(cols, n)
    needed = [schema.index_of(name) for name in node.columns()]

    def run(cols: Columns, n: int, rows: List[int]) -> Sequence[Any]:
        if len(rows) == n:
            return kernel(cols, n)
        out: List[Any] = [None] * n
        for row, value in zip(rows, kernel(_narrowed(cols, needed, rows), len(rows))):
            out[row] = value
        return out

    return run


# ---------------------------------------------------------------------------
# The expression compiler.
# ---------------------------------------------------------------------------


class _Lowered(NamedTuple):
    """One compiled sub-expression."""

    kernel: VectorKernel
    kind: str
    total: bool  # can evaluating the whole subtree never raise?


def _lower(
    expr: Expression, schema: Schema, typed: bool, refusals: List[KernelRefusal]
) -> _Lowered:
    """Compile ``expr`` bottom-up: each node fused when its own
    operation is proven total over its children's kinds, guarded
    (:func:`_guarded`, the refusal appended to ``refusals``) when it is
    not.  A column has its declared type's kind when ``typed``, none
    otherwise."""
    if isinstance(expr, Literal):
        value = expr.value
        kind = _NULL if value is None else _STR if isinstance(value, str) else _NUM
        return _Lowered(lambda cols, n: [value] * n, kind, True)
    if isinstance(expr, Column):
        index = schema.index_of(expr.name)
        kind = _DTYPE_KIND[schema.fields[index].dtype] if typed else _ANY
        return _Lowered(lambda cols, n: cols[index], kind, True)
    if isinstance(expr, Star):
        raise SqlAnalysisError("'*' cannot be evaluated as a scalar")
    if isinstance(expr, Aggregate):
        raise SqlAnalysisError(
            f"aggregate {expr.name.upper()} outside an aggregation context"
        )
    children = [_lower(child, schema, typed, refusals) for child in expr.children()]
    try:
        kind = _node_kind(expr, [child.kind for child in children])
    except KernelRefusal as refusal:
        refusals.append(refusal)
        return _Lowered(_guarded(expr, [child.kernel for child in children]), _ANY, False)
    total = all(child.total for child in children)
    return _Lowered(_fused(expr, children, schema), kind, total)


def _lowered(
    expr: Expression, schema: Schema, registry: Optional[MetricsRegistry]
) -> _Lowered:
    """:func:`_lower` over the scan schema's types; a refused expression
    is counted in ``registry`` (if any) as
    ``sql.kernel_refusals{reason=,expression=}``, naming the innermost
    refused node."""
    refusals: List[KernelRefusal] = []
    lowered = _lower(expr, schema, True, refusals)
    if refusals and registry is not None:
        registry.inc(
            "sql.kernel_refusals",
            reason=refusals[0].reason,
            expression=refusals[0].expression.to_sql(),
        )
    return lowered


def compile_expression(
    expr: Expression, schema: Schema, registry: Optional[MetricsRegistry] = None
) -> VectorKernel:
    """Lower one expression into a batch kernel over the scan schema.

    Each node is fused when its own operation is proven total over the
    kinds its operands have, and guarded otherwise; an expression with a
    guarded node is counted as refused.  Analysis errors (an unknown
    column or function, ``*``, an aggregate outside an aggregation)
    raise here, at compile time.
    """
    return _lowered(expr, schema, registry).kernel


def compile_untyped(expr: Expression, schema: Schema) -> VectorKernel:
    """:func:`compile_expression` over cells whose types ``schema`` does
    not declare -- an aggregate's finalized groups, the rows a sort
    materialized.  No column has a kind, so only the operations total
    over any value fuse; nothing is counted."""
    return _lower(expr, schema, False, []).kernel


def _fused(expr: Expression, children: List[_Lowered], schema: Schema) -> VectorKernel:
    """``expr``'s own operation, proven total, over its children's
    kernels (which need not be)."""
    if isinstance(expr, BinaryOp):
        return _fused_binary(expr, children[0], children[1], schema)
    if isinstance(expr, InList):
        return _fused_in_list(expr, children, schema)
    if isinstance(expr, Between):
        return _fused_between(expr, *[child.kernel for child in children])
    if isinstance(expr, CaseWhen):
        return _fused_case(expr, children, schema)
    # What is left maps its one vector operand cell by cell.
    inner = children[0].kernel
    if isinstance(expr, FunctionCall):
        return _map_cells(inner, _function_cells(expr, children[0].kind))
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return _map_cells(
                inner, lambda cells: [None if v is None else not v for v in cells]
            )
        return _map_cells(inner, lambda cells: [None if v is None else -v for v in cells])
    if isinstance(expr, Like):
        match = like_pattern_to_regex(expr.pattern).match
        if expr.negated:
            return _map_cells(
                inner,
                lambda cells: [
                    None if v is None else match(str(v)) is None for v in cells
                ],
            )
        return _map_cells(
            inner,
            lambda cells: [
                None if v is None else match(str(v)) is not None for v in cells
            ],
        )
    if isinstance(expr, IsNull):
        if expr.negated:
            return _map_cells(inner, lambda cells: [v is not None for v in cells])
        return _map_cells(inner, lambda cells: [v is None for v in cells])
    raise AssertionError(f"unreachable: {type(expr).__name__}")


def _function_cells(expr: FunctionCall, first_kind: str) -> CellMap:
    """One of :data:`_TOTAL_FUNCTIONS` over its first argument's cells,
    the other arguments being integer literals."""
    function = lookup_scalar(expr.name, len(expr.args))
    rest = [arg.value for arg in expr.args[1:]]  # type: ignore[attr-defined]
    if expr.name in ("substring", "substr") and min(rest) >= 0:
        # Table I's shape: the slice bounds do not depend on the text.
        start = max(rest[0] - 1, 0)
        stop = start + rest[1] if len(rest) > 1 else None
        if first_kind == _STR:
            return lambda cells: [
                None if v is None else v[start:stop] for v in cells
            ]
        return lambda cells: [
            None if v is None else str(v)[start:stop] for v in cells
        ]
    return lambda cells: [function(v, *rest) for v in cells]


def _fused_binary(
    expr: BinaryOp, left: _Lowered, right: _Lowered, schema: Schema
) -> VectorKernel:
    op = expr.op
    if op in ("and", "or"):
        return _kleene(expr, left, right, schema)
    null = _NULL in (left.kind, right.kind)
    if null and left.total and right.total:
        # One side is always NULL: comparisons, arithmetic and
        # concatenation all propagate it unconditionally.
        return lambda cols, n: [None] * n
    # Fused vector-vs-literal comparisons: the hot shape of WHERE clauses.
    if op in ("=", "<>", "!=", *_ORDERED_OPS) and not null:
        if isinstance(expr.right, Literal):
            cells = _cmp_col_lit(op, expr.right.value)
            if cells is not None:
                return _map_cells(left.kernel, cells)
        if isinstance(expr.left, Literal):
            cells = _cmp_col_lit(_MIRRORED.get(op, op), expr.left.value)
            if cells is not None:
                return _map_cells(right.kernel, cells)
    lk, rk = left.kernel, right.kernel
    if op == "||":
        return lambda cols, n: [
            None if a is None or b is None else str(a) + str(b)
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    kernel = _cmp_vec(op, lk, rk) or _arith_vec(op, lk, rk)
    if kernel is None:
        raise AssertionError(f"unreachable operator {op!r}")
    return kernel


def _kleene(expr: BinaryOp, left: _Lowered, right: _Lowered, schema: Schema) -> VectorKernel:
    """Kleene AND / OR.  A right operand that is not proven total runs
    only on the rows the left one leaves undecided -- not False for AND
    (NULL included), not True for OR."""
    if expr.op == "and":

        def combine(a: Sequence[Any], b: Sequence[Any]) -> List[Any]:
            return [
                False
                if x is False or y is False
                else (None if x is None or y is None else bool(x) and bool(y))
                for x, y in zip(a, b)
            ]

    else:

        def combine(a: Sequence[Any], b: Sequence[Any]) -> List[Any]:
            return [
                True
                if x is True or y is True
                else (None if x is None or y is None else bool(x) or bool(y))
                for x, y in zip(a, b)
            ]

    lk, rk = left.kernel, right.kernel
    if right.total:
        return lambda cols, n: combine(lk(cols, n), rk(cols, n))
    reach, decided = _reach(expr.right, right, schema), expr.op == "or"

    def kernel(cols: Columns, n: int) -> List[Any]:
        a = lk(cols, n)
        undecided = [row for row, value in enumerate(a) if value is not decided]
        return combine(a, reach(cols, n, undecided))

    return kernel


def _fused_in_list(expr: InList, children: List[_Lowered], schema: Schema) -> VectorKernel:
    """``x [NOT] IN (...)``: a member answers ``hit``; a non-member
    ``miss``, which is NULL when the list holds a NULL (``x = NULL``
    might have been the match).  A NULL ``x`` answers NULL before any
    item is evaluated, so an item that is not proven total runs only on
    the other rows."""
    inner = children[0].kernel
    hit, negated = not expr.negated, expr.negated
    if all(isinstance(item, Literal) for item in expr.items):
        values = [item.value for item in expr.items]  # type: ignore[attr-defined]
        members = frozenset(value for value in values if value is not None)
        miss = None if None in values else negated
        return _map_cells(
            inner,
            lambda cells: [
                None if v is None else hit if v in members else miss for v in cells
            ],
        )
    reaches = [_reach(node, item, schema) for node, item in zip(expr.items, children[1:])]
    proven = all(item.total for item in children[1:])

    def kernel(cols: Columns, n: int) -> List[Any]:
        operands = inner(cols, n)
        rows = [] if proven else [row for row, v in enumerate(operands) if v is not None]
        return [
            None
            if value is None
            else hit
            if value in items
            else (None if None in items else negated)
            for value, *items in zip(operands, *(reach(cols, n, rows) for reach in reaches))
        ]

    return kernel


def _fused_between(
    expr: Between, inner: VectorKernel, low: VectorKernel, high: VectorKernel
) -> VectorKernel:
    """``x >= lo AND x <= hi`` under Kleene AND (then NOT): beside a
    NULL bound the other comparison still answers False."""
    negated = expr.negated
    if isinstance(expr.low, Literal) and isinstance(expr.high, Literal):
        lo, hi = expr.low.value, expr.high.value
        if lo is None or hi is None:  # rare: no comprehension of its own
            return _map_cells(
                inner,
                lambda cells: [_between(v, lo, hi, negated) for v in cells],
            )
        if negated:
            return _map_cells(
                inner,
                lambda cells: [None if v is None else not lo <= v <= hi for v in cells],
            )
        return _map_cells(
            inner, lambda cells: [None if v is None else lo <= v <= hi for v in cells]
        )
    return lambda cols, n: [
        _between(v, lo, hi, negated)
        for v, lo, hi in zip(inner(cols, n), low(cols, n), high(cols, n))
    ]


def _fused_case(expr: CaseWhen, children: List[_Lowered], schema: Schema) -> VectorKernel:
    """The first branch whose condition is True answers.  When every
    part is proven total each runs over the whole batch; otherwise a
    condition runs only on the rows no earlier branch took, a result on
    the rows its branch took and ELSE on the rest."""
    count = 2 * len(expr.branches)
    if all(child.total for child in children):
        kernels = [child.kernel for child in children]
        branches = list(zip(kernels[0:count:2], kernels[1:count:2]))
        default = kernels[count] if expr.otherwise is not None else None

        def kernel(cols: Columns, n: int) -> List[Any]:
            out = default(cols, n) if default is not None else [None] * n
            # Last branch first, so the first true condition of a row is
            # the one whose result stays.
            for condition, result in reversed(branches):
                out = [
                    chosen if flag is True else kept
                    for flag, chosen, kept in zip(condition(cols, n), result(cols, n), out)
                ]
            return out

        return kernel
    reaches = [
        _reach(node, child, schema) for node, child in zip(expr.children(), children)
    ]

    def short_circuit(cols: Columns, n: int) -> List[Any]:
        out: List[Any] = [None] * n
        undecided = list(range(n))
        for condition, result in zip(reaches[0:count:2], reaches[1:count:2]):
            flags = condition(cols, n, undecided)
            taken = [row for row in undecided if flags[row] is True]
            values = result(cols, n, taken)
            for row in taken:
                out[row] = values[row]
            undecided = [row for row in undecided if flags[row] is not True]
        if expr.otherwise is not None:
            values = reaches[count](cols, n, undecided)
            for row in undecided:
                out[row] = values[row]
        return out

    return short_circuit


def compile_predicate(
    expr: Expression, schema: Schema, registry: Optional[MetricsRegistry] = None
) -> SelectionKernel:
    """Lower a WHERE condition into a selection-vector kernel.

    The kernel returns the indices of rows whose condition evaluates to
    exactly ``True`` (SQL WHERE semantics: NULL and False both drop the
    row).  Every refused conjunct is counted.

    While every top-level conjunct is proven total they run left to
    right over a narrowing selection: each one sees only the rows that
    passed those before it, gathered from the columns it references (a
    skipped evaluation cannot hide an error).  ``a AND b`` is ``True``
    exactly when both are neither NULL nor falsy.  A conjunct that is
    not proven total must also run on the rows an earlier conjunct left
    NULL -- a row's AND stops only at False -- so the condition then
    runs as the one kernel of its AND tree, whose nodes apply that rule.
    """
    conjuncts = split_conjuncts(expr)
    lowered = [_lowered(conjunct, schema, registry) for conjunct in conjuncts]
    if not all(item.total for item in lowered):
        whole = _lower(expr, schema, True, []).kernel
        return lambda cols, n: _passing(whole(cols, n), n, exact=True)
    kernels = [item.kernel for item in lowered]
    if len(kernels) == 1:
        only = kernels[0]
        return lambda cols, n: _passing(only(cols, n), n, exact=True)
    references = [
        [schema.index_of(name) for name in conjunct.columns()]
        for conjunct in conjuncts
    ]

    def selection(cols: Columns, n: int) -> List[int]:
        picked = _passing(kernels[0](cols, n), n)
        for kernel, needed in zip(kernels[1:], references[1:]):
            if not picked:
                break
            if len(picked) == n:
                picked = _passing(kernel(cols, n), n)
                continue
            passing = _passing(kernel(_narrowed(cols, needed, picked), len(picked)), len(picked))
            if len(passing) != len(picked):
                picked = list(take_column(picked, passing))
        return picked

    return selection


def _passing(values: Sequence[Any], n: int, exact: bool = False) -> List[int]:
    """Positions of the ``n`` values that are ``True`` (``exact``) or
    truthy; judged once per entry of a dictionary-coded vector."""
    if isinstance(values, DictColumn):
        entries = values.entries
        flags = [entry is True for entry in entries] if exact else map(bool, entries)
        values = values.translate(flags)
    elif exact:
        return [index for index, value in enumerate(values) if value is True]
    return list(itertools.compress(range(n), values))


def compile_projection(
    expressions: Sequence[Expression],
    schema: Schema,
    registry: Optional[MetricsRegistry] = None,
) -> Callable[[Columns, int], List[Sequence[Any]]]:
    """Lower a projection list into a kernel producing output vectors.

    Column references pass their input vector through by reference.
    """
    kernels = [compile_expression(item, schema, registry) for item in expressions]
    return lambda cols, n: [kernel(cols, n) for kernel in kernels]


# ---------------------------------------------------------------------------
# Source-filter compiler (always total): what the storlets and the plain
# reads run.
# ---------------------------------------------------------------------------


def _cell_mask(index: int, cells: Callable[[Sequence[Any]], Sequence[bool]]) -> MaskKernel:
    """A one-column filter as a mask kernel.

    ``cells`` maps a value vector to one verdict per value.  Over a
    dictionary-coded column it runs once per dictionary *entry* and the
    verdicts are mapped over the codes; over a plain vector once per
    row.  ``tally`` (when given) counts the evaluations by that domain.
    """

    def kernel(cols: Columns, n: int, tally: Optional[Dict[str, int]]) -> bytes:
        column = cols[index]
        if isinstance(column, DictColumn):
            if tally is not None:
                tally["dictionary"] = tally.get("dictionary", 0) + len(column.entries)
            return column.translate(cells(column.entries))
        if tally is not None:
            tally["rows"] = tally.get("rows", 0) + n
        return bytes(cells(column))

    return kernel


def _no_cell(values: Sequence[Any]) -> bytes:
    """The verdicts of a leaf that is never True: all 0."""
    return bytes(len(values))


def _combine(op: Callable[[int, int], int], left: MaskKernel, right: MaskKernel) -> MaskKernel:
    """AND / OR two masks as big integers (one C-level pass each)."""

    def kernel(cols: Columns, n: int, tally: Optional[Dict[str, int]]) -> bytes:
        a = int.from_bytes(left(cols, n, tally), "little")
        b = int.from_bytes(right(cols, n, tally), "little")
        return op(a, b).to_bytes(n, "little")

    return kernel


#: ``mask.translate(_FLIP)`` negates a 0/1 byte mask.
_FLIP = bytes((1, 0)) + bytes(254)

#: Comparison filter -> ``cell <op> value`` as ``judge(value, cell)``
#: (the mirrored operator, so the literal binds first and
#: ``functools.partial`` makes a C-level callable of the cell alone).
_JUDGES: Dict[type, Callable[[Any, Any], bool]] = {
    EqualTo: operator.eq,
    LessThan: operator.gt,
    LessThanOrEqual: operator.ge,
    GreaterThan: operator.lt,
    GreaterThanOrEqual: operator.le,
}

#: String filter -> the unbound ``str`` method judging ``(cell, value)``,
#: which raises ``TypeError`` on a cell that is not a ``str``.
_STR_METHODS: Dict[type, Callable[[str, str], bool]] = {
    StringStartsWith: str.startswith,
    StringEndsWith: str.endswith,
    StringContains: str.__contains__,
}


def _guarded_check(item: _AttributeFilter, negated: bool) -> Callable[[Any], bool]:
    """``cell -> bool``: is ``item`` (``Not(item)`` when ``negated``)
    True of the cell?  A comparison judges by :data:`_JUDGES`, a string
    filter by :data:`_STR_METHODS` over the text of any cell,
    ``str(cell)``.  A NULL cell, and a cell the judge raises
    ``TypeError`` on (incomparable; a string filter's non-``str``
    literal), is True in neither polarity."""
    value = item.value
    method = _STR_METHODS.get(type(item))
    judge = (
        (lambda cell: method(str(cell), value))
        if method is not None
        else functools.partial(_JUDGES[type(item)], value)
    )

    def check(cell: Any) -> bool:
        if cell is None:
            return False
        try:
            return judge(cell) is not negated
        except TypeError:
            return False

    return check


def _plane_mask(column: PackedColumn, kind: type, value: int) -> bytes:
    """``cell <kind> value`` over a packed narrow-int column, judged on
    the byte planes of its offsets (ByteSlice).

    Plane ``j`` is byte ``j`` of every offset, ``payload[j::width]``.
    Every ordered comparison is ``offset < bound`` or its negation, and
    that is decided by the most significant plane where an offset
    differs from ``bound``: each plane is mapped through two 256-entry
    tables (its byte below / equal to the bound's) and the verdicts are
    folded, least significant plane first, as big integers.  A bound
    outside what the offset width can hold needs no plane at all.
    """
    view = column.view
    n, width = len(view), view.itemsize
    bound = value - column.base
    equal = kind is EqualTo
    if kind in (LessThanOrEqual, GreaterThan):
        bound += 1  # ``<= v`` is ``< v + 1``
    if not 0 <= bound < 1 << 8 * width:
        verdict = b"\x01" if bound > 0 and not equal else b"\x00"
        mask = verdict * n
    else:
        raw = view.tobytes()
        verdict = int.from_bytes(b"\x01" * n, "little") if equal else 0
        for j, digit in enumerate(bound.to_bytes(width, "little")):
            plane = raw[j::width]
            same = plane.translate(bytes(digit) + b"\x01" + bytes(255 - digit))
            same = int.from_bytes(same, "little")
            if equal:
                verdict &= same
            else:
                below = plane.translate(b"\x01" * digit + bytes(256 - digit))
                verdict = int.from_bytes(below, "little") | (same & verdict)
        mask = verdict.to_bytes(n, "little")
    if kind in (GreaterThan, GreaterThanOrEqual):
        return mask.translate(_FLIP)
    return mask


def _comparison_mask(
    index: int, item: _AttributeFilter, negated: bool, slow: MaskKernel
) -> MaskKernel:
    """A comparison against an ``int``, ``float`` or ``str``, or a
    string filter against a ``str``, as a mask kernel that makes no
    Python call per row.

    A packed narrow-int column against an ``int`` is judged on its byte
    planes (:func:`_plane_mask`, tallied under ``planes``); any other
    vector (a decimal one's cells divided out first) in one C-level
    pass, ``bytes(map(judge, cells))`` or the ``str`` method mapped
    over the cells (``rows_c``) -- which a NULL or
    an incomparable (for a string filter: a non-``str``) cell stops with
    ``TypeError``, and the whole vector then goes to ``slow``, the
    guarded per-cell check, as a dictionary-coded column does from the
    start.  Under ``negated`` the mask is flipped: exact, because a
    carrier holds no NULL and the pass admits none -- ``==`` is the one
    judge a NULL does not stop, so a vector holding one goes to
    ``slow`` first.
    """
    kind, value = type(item), item.value
    if kind in _STR_METHODS:
        method = _STR_METHODS[kind]
        verdicts = lambda column: map(method, column, itertools.repeat(value))
    else:
        verdicts = functools.partial(map, functools.partial(_JUDGES[kind], value))
    unequal = negated and kind is EqualTo

    def kernel(cols: Columns, n: int, tally: Optional[Dict[str, int]]) -> bytes:
        column = cols[index]
        packed = isinstance(column, PackedColumn)
        if isinstance(column, DictColumn) or (
            unequal and not packed and None in column
        ):
            return slow(cols, n, tally)
        if (
            type(value) is int
            and packed
            and column.view.itemsize < 8
            and column.exponent is None
        ):
            domain, mask = "planes", _plane_mask(column, kind, value)
        else:
            try:
                domain, mask = "rows_c", bytes(verdicts(column))
            except TypeError:
                return slow(cols, n, tally)
        if tally is not None:
            tally[domain] = tally.get(domain, 0) + n
        return mask.translate(_FLIP) if negated else mask

    return kernel


def _filter_mask(item: Filter, schema: Schema, negated: bool = False) -> MaskKernel:
    """Lower one source filter -- ``Not(item)`` when ``negated`` -- into
    a byte-mask kernel: a row passes where the filter is True under
    SQL's three-valued logic.

    ``Not`` flips ``negated`` on its way down; under it ``And`` and
    ``Or`` swap (De Morgan, exact under Kleene logic), ``IsNull`` and
    ``IsNotNull`` swap, and every other leaf answers
    ``cell is not None and not P(cell)``.  A leaf that is neither True
    nor False -- a NULL cell, a NULL literal, an incomparable cell, a
    non-member of an ``In`` list holding NULL -- passes in neither
    polarity.
    """
    if isinstance(item, Not):
        return _filter_mask(item.child, schema, not negated)
    if isinstance(item, (And, Or)):
        either = isinstance(item, Or) is not negated
        return _combine(
            int.__or__ if either else int.__and__,
            _filter_mask(item.left, schema, negated),
            _filter_mask(item.right, schema, negated),
        )
    index = schema.index_of(item.attribute)
    if isinstance(item, (FilterIsNull, IsNotNull)):
        null = isinstance(item, FilterIsNull) is not negated
        return _cell_mask(index, lambda values: [(c is None) is null for c in values])
    if isinstance(item, In):
        members = set(item.value)
        if negated and None in members:
            return _cell_mask(index, _no_cell)
        return _cell_mask(
            index,
            lambda values: [
                c is not None and (c in members) is not negated for c in values
            ],
        )
    if isinstance(item, LikePattern):
        match = like_pattern_to_regex(item.value).match
        return _cell_mask(
            index,
            lambda values: [
                c is not None and (match(str(c)) is None) is negated for c in values
            ],
        )
    if item.value is None:
        return _cell_mask(index, _no_cell)
    check = _guarded_check(item, negated)
    guarded = _cell_mask(index, lambda values: list(map(check, values)))
    kind, value_type = type(item), type(item.value)
    if (kind in _JUDGES and value_type in (int, float, str)) or (
        kind in _STR_METHODS and value_type is str
    ):
        return _comparison_mask(index, item, negated, guarded)
    return guarded


class FilterMask:
    """A source-filter conjunction lowered to one byte-mask kernel.

    Unlike the expression compiler this never declines: a leaf that is
    neither True nor False (a NULL cell, a NULL literal, an incomparable
    value) passes in neither polarity, so every shape lowers.  ``mask(columns, n)`` is a ``bytes``
    of ``n`` 0/1 flags, one per row; :meth:`select` gathers by it.  Both
    take an optional ``tally`` mapping whose counts grow by the filter
    evaluations made, by domain: ``"dictionary"`` entries, rows judged
    on byte ``"planes"``, rows judged in a C-level pass (``"rows_c"``)
    and row cells judged one Python call each (``"rows"``).
    """

    def __init__(self, filters: Sequence[Filter], schema: Schema):
        kernels = [_filter_mask(item, schema) for item in filters]
        self._kernel: Optional[MaskKernel] = (
            functools.reduce(functools.partial(_combine, int.__and__), kernels)
            if kernels
            else None
        )

    def mask(
        self, columns: Columns, n: int, tally: Optional[Dict[str, int]] = None
    ) -> bytes:
        """One 0/1 byte per row: does the row pass every filter?"""
        if self._kernel is None:
            return b"\x01" * n
        return self._kernel(columns, n, tally)

    def select(
        self,
        columns: Columns,
        n: int,
        keep: Sequence[int],
        tally: Optional[Dict[str, int]] = None,
        gathers: Optional[Dict[str, int]] = None,
    ) -> Tuple[List[Sequence[Any]], int]:
        """The ``keep`` columns restricted to the passing rows, and how
        many rows pass.  Columns are gathered by
        :func:`~repro.columnar.batch.compress_columns` (which counts
        them in ``gathers``, by kind), so a carrier stays a carrier;
        when every row passes the input vectors are returned as they
        are."""
        mask = self.mask(columns, n, tally)
        kept = mask.count(1)
        if not kept:
            return [], 0
        wanted = [columns[index] for index in keep]
        if kept == n:
            return wanted, n
        return compress_columns(wanted, mask, gathers), kept
