"""Compile-once batch kernels for expressions and pushdown filters.

The row path binds each expression node into a per-row closure and pays
a Python call per node per row.  This module lowers the same ASTs *once
per query* into kernels that run *per batch*: a kernel takes the input
column vectors and the row count and returns a result vector, built with
fused list comprehensions (one bytecode loop per node per batch instead
of a closure chain per row).

Two compilers live here:

* :func:`compile_expression` / :func:`compile_predicate` /
  :func:`compile_projection` lower :class:`repro.sql.expressions`
  trees.  They are **partial**: a kernel is produced only when static
  typing over the scan schema proves evaluation can never raise
  (ordered comparisons between provably comparable types, arithmetic
  over numerics, ...).  Anything unprovable returns ``None`` and the
  caller stays on the row path -- this is what keeps the fast path
  byte-identical, including *which* queries raise ``SqlTypeError`` and
  when.  Fused kernels replicate the interpreter's semantics exactly:
  SQL three-valued logic, Kleene AND/OR, NULL propagation, and
  division-by-zero yielding NULL.
* :class:`FilterMask` lowers the :class:`repro.sql.filters` source
  hierarchy (the storlet wire format) into a byte mask per batch.
  Source-filter evaluation is total by contract (NULL never matches,
  incomparable never matches), so this compiler always succeeds and is
  what the columnar storlet runs next to the data -- once per
  dictionary entry where a column is dictionary-coded.
  :func:`compile_filters` is its index-list view.

Kernel calling convention: ``kernel(columns, n) -> vector`` where
``columns`` are the scan-schema-aligned input vectors.  Kernels may
return an input vector unchanged (column references do); callers must
treat result vectors as immutable.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.columnar.batch import DictColumn, compress_column
from repro.sql.expressions import (
    Aggregate,
    Between,
    BinaryOp,
    CaseWhen,
    Column,
    Expression,
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
    Filter,
    In,
    IsNotNull,
    LikePattern,
    Not,
    Or,
    _AttributeFilter,
)
from repro.sql.filters import IsNull as FilterIsNull
from repro.sql.types import DataType, Schema

Columns = Sequence[Sequence[Any]]
VectorKernel = Callable[[Columns, int], Sequence[Any]]
#: ``kernel(columns, n, tally) -> bytes``: one 0/1 byte per row.
MaskKernel = Callable[[Columns, int, Optional[Dict[str, int]]], bytes]
SelectionKernel = Callable[[Columns, int], List[int]]

# ---------------------------------------------------------------------------
# Static typing: prove an expression total before fusing it.
# ---------------------------------------------------------------------------

_NUM = "num"  # int / float / bool -- mutually order-comparable in Python
_STR = "str"
_NULL = "null"  # the literal NULL: every operation on it yields NULL
_ANY = "any"

_DTYPE_KIND = {
    DataType.INT: _NUM,
    DataType.FLOAT: _NUM,
    DataType.BOOL: _NUM,
    DataType.STRING: _STR,
}

_ORDERED_OPS = ("<", "<=", ">", ">=")


def _static_kind(expr: Expression, schema: Schema) -> Optional[str]:
    """The provable value kind of ``expr``, or None if not total.

    ``None`` means "cannot prove this expression never raises"; the
    caller must then decline to compile.  A returned kind additionally
    certifies totality of the whole subtree.
    """
    if isinstance(expr, Literal):
        if expr.value is None:
            return _NULL
        return _STR if isinstance(expr.value, str) else _NUM
    if isinstance(expr, Column):
        if expr.name not in schema:
            return None
        return _DTYPE_KIND[schema.field(expr.name).dtype]
    if isinstance(expr, BinaryOp):
        left = _static_kind(expr.left, schema)
        right = _static_kind(expr.right, schema)
        if left is None or right is None:
            return None
        if expr.op in ("and", "or"):
            return _NUM
        if expr.op == "||":
            return _STR
        if expr.op in ("=", "<>", "!="):
            return _NUM  # Python ==/!= never raise across builtin types
        if expr.op in _ORDERED_OPS:
            if _NULL in (left, right) or left == right != _ANY:
                return _NUM
            return None
        if expr.op in ("+", "-", "*", "/", "%"):
            if _NULL in (left, right):
                return _NULL
            if left == right == _NUM:
                return _NUM
            if expr.op == "+" and left == right == _STR:
                return _STR
            return None
        return None
    if isinstance(expr, UnaryOp):
        inner = _static_kind(expr.operand, schema)
        if inner is None:
            return None
        if expr.op == "not":
            return _NUM
        if expr.op == "-":
            return _NUM if inner in (_NUM, _NULL) else None
        return None
    if isinstance(expr, Like):
        return _NUM if _static_kind(expr.operand, schema) else None
    if isinstance(expr, InList):
        kinds = [_static_kind(child, schema) for child in expr.children()]
        return _NUM if all(kinds) else None
    if isinstance(expr, Between):
        kinds = [_static_kind(child, schema) for child in expr.children()]
        if not all(kinds):
            return None
        concrete = {kind for kind in kinds if kind != _NULL}
        if concrete <= {_NUM} or concrete <= {_STR}:
            return _NUM
        return None
    if isinstance(expr, IsNull):
        return _NUM if _static_kind(expr.operand, schema) else None
    if isinstance(expr, CaseWhen):
        kinds = [_static_kind(child, schema) for child in expr.children()]
        if not all(kinds):
            return None
        concrete = {kind for kind in kinds if kind != _NULL}
        return concrete.pop() if len(concrete) == 1 else _ANY
    if isinstance(expr, (Star, Aggregate)):
        return None  # never scalar-evaluable; row path rejects these too
    return None  # FunctionCall and anything unknown: stay on the row path


# ---------------------------------------------------------------------------
# Fused comparison / arithmetic builders (one comprehension per op).
# ---------------------------------------------------------------------------


def _cmp_col_lit(op: str, index: int, v: Any) -> Optional[VectorKernel]:
    """Fused ``column <op> literal`` comparison over one vector."""
    if op == "=":
        return lambda cols, n: [None if c is None else c == v for c in cols[index]]
    if op in ("<>", "!="):
        return lambda cols, n: [None if c is None else c != v for c in cols[index]]
    if op == "<":
        return lambda cols, n: [None if c is None else c < v for c in cols[index]]
    if op == "<=":
        return lambda cols, n: [None if c is None else c <= v for c in cols[index]]
    if op == ">":
        return lambda cols, n: [None if c is None else c > v for c in cols[index]]
    if op == ">=":
        return lambda cols, n: [None if c is None else c >= v for c in cols[index]]
    return None


def _cmp_lit_col(op: str, v: Any, index: int) -> Optional[VectorKernel]:
    """Fused ``literal <op> column`` comparison over one vector."""
    if op == "=":
        return lambda cols, n: [None if c is None else v == c for c in cols[index]]
    if op in ("<>", "!="):
        return lambda cols, n: [None if c is None else v != c for c in cols[index]]
    if op == "<":
        return lambda cols, n: [None if c is None else v < c for c in cols[index]]
    if op == "<=":
        return lambda cols, n: [None if c is None else v <= c for c in cols[index]]
    if op == ">":
        return lambda cols, n: [None if c is None else v > c for c in cols[index]]
    if op == ">=":
        return lambda cols, n: [None if c is None else v >= c for c in cols[index]]
    return None


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
            None if a is None or b is None or b == 0 else a % b
            for a, b in zip(lk(cols, n), rk(cols, n))
        ]
    return None


# ---------------------------------------------------------------------------
# The expression compiler.
# ---------------------------------------------------------------------------


def compile_expression(expr: Expression, schema: Schema) -> Optional[VectorKernel]:
    """Lower one expression into a batch kernel, or None to fall back.

    Compilation succeeds only when :func:`_static_kind` proves the
    expression total over the given scan schema; the produced kernel is
    then value-identical to evaluating ``expr.bind(schema)`` row by row.
    """
    if _static_kind(expr, schema) is None:
        return None
    return _compile(expr, schema)


def _compile(expr: Expression, schema: Schema) -> VectorKernel:
    """Recursive kernel builder (totality already proven by the caller)."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda cols, n: [value] * n
    if isinstance(expr, Column):
        index = schema.index_of(expr.name)
        return lambda cols, n: cols[index]
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, schema)
    if isinstance(expr, UnaryOp):
        inner = _compile(expr.operand, schema)
        if expr.op == "not":
            return lambda cols, n: [
                None if v is None else not v for v in inner(cols, n)
            ]
        return lambda cols, n: [None if v is None else -v for v in inner(cols, n)]
    if isinstance(expr, Like):
        inner = _compile(expr.operand, schema)
        match = like_pattern_to_regex(expr.pattern).match
        if expr.negated:
            return lambda cols, n: [
                None if v is None else match(str(v)) is None
                for v in inner(cols, n)
            ]
        return lambda cols, n: [
            None if v is None else match(str(v)) is not None
            for v in inner(cols, n)
        ]
    if isinstance(expr, InList):
        return _compile_in_list(expr, schema)
    if isinstance(expr, Between):
        return _compile_between(expr, schema)
    if isinstance(expr, IsNull):
        inner = _compile(expr.operand, schema)
        if expr.negated:
            return lambda cols, n: [v is not None for v in inner(cols, n)]
        return lambda cols, n: [v is None for v in inner(cols, n)]
    if isinstance(expr, CaseWhen):
        return _compile_case(expr, schema)
    raise AssertionError(f"unreachable: {type(expr).__name__}")


def _compile_binary(expr: BinaryOp, schema: Schema) -> VectorKernel:
    op = expr.op
    left_kind = _static_kind(expr.left, schema)
    right_kind = _static_kind(expr.right, schema)
    if op not in ("and", "or") and _NULL in (left_kind, right_kind):
        # One side is the NULL literal: comparisons, arithmetic and
        # concatenation all propagate it unconditionally.
        return lambda cols, n: [None] * n
    # Fused column-vs-literal comparisons: the hot shape of WHERE clauses.
    if op in ("=", "<>", "!=", *_ORDERED_OPS):
        if isinstance(expr.left, Column) and isinstance(expr.right, Literal):
            kernel = _cmp_col_lit(op, schema.index_of(expr.left.name), expr.right.value)
            if kernel is not None:
                return kernel
        if isinstance(expr.left, Literal) and isinstance(expr.right, Column):
            kernel = _cmp_lit_col(op, expr.left.value, schema.index_of(expr.right.name))
            if kernel is not None:
                return kernel
    left = _compile(expr.left, schema)
    right = _compile(expr.right, schema)
    if op == "and":
        return lambda cols, n: [
            False
            if a is False or b is False
            else (None if a is None or b is None else bool(a) and bool(b))
            for a, b in zip(left(cols, n), right(cols, n))
        ]
    if op == "or":
        return lambda cols, n: [
            True
            if a is True or b is True
            else (None if a is None or b is None else bool(a) or bool(b))
            for a, b in zip(left(cols, n), right(cols, n))
        ]
    if op == "||":
        return lambda cols, n: [
            None if a is None or b is None else str(a) + str(b)
            for a, b in zip(left(cols, n), right(cols, n))
        ]
    kernel = _cmp_vec(op, left, right) or _arith_vec(op, left, right)
    if kernel is None:
        raise AssertionError(f"unreachable operator {op!r}")
    return kernel


def _compile_in_list(expr: InList, schema: Schema) -> VectorKernel:
    inner = _compile(expr.operand, schema)
    negated = expr.negated
    if all(isinstance(item, Literal) for item in expr.items):
        members = frozenset(item.value for item in expr.items)  # type: ignore[attr-defined]
        if negated:
            return lambda cols, n: [
                None if v is None else v not in members for v in inner(cols, n)
            ]
        return lambda cols, n: [
            None if v is None else v in members for v in inner(cols, n)
        ]
    item_kernels = [_compile(item, schema) for item in expr.items]

    def kernel(cols: Columns, n: int) -> List[Any]:
        values = inner(cols, n)
        item_vectors = [k(cols, n) for k in item_kernels]
        out: List[Any] = []
        for i, value in enumerate(values):
            if value is None:
                out.append(None)
                continue
            result = value in {vector[i] for vector in item_vectors}
            out.append((not result) if negated else result)
        return out

    return kernel


def _compile_between(expr: Between, schema: Schema) -> VectorKernel:
    inner = _compile(expr.operand, schema)
    negated = expr.negated
    if isinstance(expr.low, Literal) and isinstance(expr.high, Literal):
        lo, hi = expr.low.value, expr.high.value
        if lo is None or hi is None:
            return lambda cols, n: [None] * n
        if negated:
            return lambda cols, n: [
                None if v is None else not lo <= v <= hi for v in inner(cols, n)
            ]
        return lambda cols, n: [
            None if v is None else lo <= v <= hi for v in inner(cols, n)
        ]
    low = _compile(expr.low, schema)
    high = _compile(expr.high, schema)
    if negated:
        return lambda cols, n: [
            None if v is None or lo is None or hi is None else not lo <= v <= hi
            for v, lo, hi in zip(inner(cols, n), low(cols, n), high(cols, n))
        ]
    return lambda cols, n: [
        None if v is None or lo is None or hi is None else lo <= v <= hi
        for v, lo, hi in zip(inner(cols, n), low(cols, n), high(cols, n))
    ]


def _compile_case(expr: CaseWhen, schema: Schema) -> VectorKernel:
    branches = [
        (_compile(condition, schema), _compile(result, schema))
        for condition, result in expr.branches
    ]
    default = (
        _compile(expr.otherwise, schema) if expr.otherwise is not None else None
    )

    def kernel(cols: Columns, n: int) -> List[Any]:
        evaluated = [(c(cols, n), r(cols, n)) for c, r in branches]
        fallback = default(cols, n) if default is not None else None
        out: List[Any] = []
        for i in range(n):
            for conditions, results in evaluated:
                if conditions[i] is True:
                    out.append(results[i])
                    break
            else:
                out.append(fallback[i] if fallback is not None else None)
        return out

    return kernel


def compile_predicate(expr: Expression, schema: Schema) -> Optional[SelectionKernel]:
    """Lower a WHERE condition into a selection-vector kernel.

    The kernel returns the indices of rows whose condition evaluates to
    exactly ``True`` (SQL WHERE semantics: NULL and False both drop the
    row), matching the row executor's ``predicate(row) is True`` test.
    """
    kernel = compile_expression(expr, schema)
    if kernel is None:
        return None

    def selection(cols: Columns, n: int) -> List[int]:
        values = kernel(cols, n)
        return [i for i, v in enumerate(values) if v is True]

    return selection


def compile_projection(
    expressions: Sequence[Expression], schema: Schema
) -> Optional[Callable[[Columns, int], List[Sequence[Any]]]]:
    """Lower a projection list into a kernel producing output vectors.

    Column references pass their input vector through by reference; a
    ``None`` return means some item is not provably total and the caller
    must project row-at-a-time instead.
    """
    kernels = [compile_expression(item, schema) for item in expressions]
    if any(kernel is None for kernel in kernels):
        return None

    def project(cols: Columns, n: int) -> List[Sequence[Any]]:
        return [kernel(cols, n) for kernel in kernels]  # type: ignore[misc]

    return project


# ---------------------------------------------------------------------------
# Source-filter compiler (always total): what the columnar storlet runs.
# ---------------------------------------------------------------------------


def _guarded_check(compare: Callable[[Any, Any], bool], value: Any):
    """Per-element comparer with the interpreter's TypeError-is-False rule."""

    def check(cell: Any) -> bool:
        try:
            return compare(cell, value)
        except TypeError:
            return False

    return check


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


def _combine(op: Callable[[int, int], int], left: MaskKernel, right: MaskKernel) -> MaskKernel:
    """AND / OR two masks as big integers (one C-level pass each)."""

    def kernel(cols: Columns, n: int, tally: Optional[Dict[str, int]]) -> bytes:
        a = int.from_bytes(left(cols, n, tally), "little")
        b = int.from_bytes(right(cols, n, tally), "little")
        return op(a, b).to_bytes(n, "little")

    return kernel


#: ``mask.translate(_FLIP)`` negates a 0/1 byte mask.
_FLIP = bytes((1, 0)) + bytes(254)


def _filter_mask(item: Filter, schema: Schema) -> MaskKernel:
    """Lower one source filter into a byte-mask kernel."""
    if isinstance(item, And):
        return _combine(
            int.__and__, _filter_mask(item.left, schema), _filter_mask(item.right, schema)
        )
    if isinstance(item, Or):
        return _combine(
            int.__or__, _filter_mask(item.left, schema), _filter_mask(item.right, schema)
        )
    if isinstance(item, Not):
        child = _filter_mask(item.child, schema)
        return lambda cols, n, tally: child(cols, n, tally).translate(_FLIP)
    if not isinstance(item, _AttributeFilter):
        # Unknown filter subclasses: fall back to the row predicate.
        predicate = item.to_predicate(schema)
        return lambda cols, n, tally: bytes(
            bool(predicate(row)) for row in zip(*cols)
        )
    index = schema.index_of(item.attribute)
    if isinstance(item, FilterIsNull):
        return _cell_mask(index, lambda values: [c is None for c in values])
    if isinstance(item, IsNotNull):
        return _cell_mask(index, lambda values: [c is not None for c in values])
    if isinstance(item, In):
        members = set(item.value)
        return _cell_mask(
            index, lambda values: [c is not None and c in members for c in values]
        )
    if isinstance(item, LikePattern):
        match = like_pattern_to_regex(item.value).match
        return _cell_mask(
            index,
            lambda values: [
                c is not None and match(str(c)) is not None for c in values
            ],
        )
    check = _guarded_check(item._comparer(), item.value)
    return _cell_mask(
        index, lambda values: [c is not None and check(c) for c in values]
    )


class FilterMask:
    """A source-filter conjunction lowered to one byte-mask kernel.

    Unlike the expression compiler this never declines: source filters
    are total by contract (NULL never matches; incomparable values never
    match), so every shape lowers.  ``mask(columns, n)`` is a ``bytes``
    of ``n`` 0/1 flags, one per row; :meth:`select` gathers by it.  Both
    take an optional ``tally`` mapping whose ``"dictionary"`` and
    ``"rows"`` counts grow by the number of filter evaluations made over
    dictionary entries and over row cells.
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
    ) -> Tuple[List[Sequence[Any]], int]:
        """The ``keep`` columns restricted to the passing rows, and how
        many rows pass.  Columns are gathered with ``itertools.compress``
        (:func:`~repro.columnar.batch.compress_column`), so a
        dictionary-coded column stays coded; when every row passes the
        input vectors are returned as they are."""
        mask = self.mask(columns, n, tally)
        kept = mask.count(1)
        if kept == n:
            return [columns[index] for index in keep], n
        if not kept:
            return [], 0
        return [compress_column(columns[index], mask) for index in keep], kept


def compile_filters(
    filters: Sequence[Filter], schema: Schema
) -> SelectionKernel:
    """AND a source-filter list into one selection-vector kernel: the
    indices of the set bytes of its :class:`FilterMask`."""
    mask = FilterMask(filters, schema).mask
    return lambda cols, n: list(itertools.compress(range(n), mask(cols, n)))


def compile_group_kernels(
    group_by: Sequence[str],
    aggregate_args: Sequence[str],
    schema: Schema,
) -> Optional[Sequence[Sequence[VectorKernel]]]:
    """Lower a grouped aggregation's expressions into batch kernels.

    ``group_by`` and ``aggregate_args`` are expression strings in the
    SQL dialect (the :class:`~repro.storlets.agg_storlet.AggregationSpec`
    wire format); an aggregate argument of ``"*"`` means COUNT(*)-style
    input and lowers to a constant-one vector.  Returns
    ``(key_kernels, input_kernels)`` when *every* expression compiles
    (same totality proof as :func:`compile_expression`), else ``None``
    so the caller stays on the row path.  Shared by the aggregating
    storlet's vectorized path and its compute-side degradation twin,
    which is what keeps the two streams value-identical.
    """
    from repro.sql.parser import parse_expression

    key_kernels: List[VectorKernel] = []
    for text in group_by:
        kernel = compile_expression(parse_expression(text), schema)
        if kernel is None:
            return None
        key_kernels.append(kernel)
    input_kernels: List[VectorKernel] = []
    for text in aggregate_args:
        if text.strip() == "*":
            input_kernels.append(lambda cols, n: [1] * n)
            continue
        kernel = compile_expression(parse_expression(text), schema)
        if kernel is None:
            return None
        input_kernels.append(kernel)
    return key_kernels, input_kernels
