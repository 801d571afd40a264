"""Compile-once batch kernels for expressions and pushdown filters.

``Expression.bind`` turns each expression node into a per-row closure
and pays a Python call per node per row.  This module lowers the same
ASTs *once per query* into kernels that run *per batch*: a kernel takes
the input column vectors and the row count and returns a result vector,
built with fused list comprehensions (one bytecode loop per node per batch instead
of a closure chain per row).

Two compilers live here:

* :func:`compile_expression` / :func:`compile_predicate` /
  :func:`compile_projection` lower :class:`repro.sql.expressions`
  trees, and always return a kernel.  The kernel is **fused** when
  static typing over the scan schema proves evaluation can never raise
  (ordered comparisons between provably comparable types, arithmetic
  over numerics, the text functions that are total over any first
  argument when the rest are integer literals, ...).  Anything
  unprovable is counted, with a reason code and the refused
  sub-expression, in ``sql.kernel_refusals`` and runs **interpreted**:
  the expression's own ``bind`` evaluator looped over the vectors it
  references, so the same rows raise the same ``SqlTypeError`` -- a
  batch at a time, which is the one thing a refusal changes besides
  speed.  Fused kernels replicate the interpreter's semantics exactly:
  SQL three-valued logic, Kleene AND/OR, NULL propagation, and
  division-by-zero yielding NULL.  A kernel that maps one vector cell
  by cell maps a dictionary-coded vector
  (:class:`~repro.columnar.batch.DictColumn`) entry by entry and keeps
  its codes.
* :class:`FilterMask` lowers the :class:`repro.sql.filters` source
  hierarchy (the storlet wire format) into a byte mask per batch.
  Source-filter evaluation is total by contract (NULL never matches,
  incomparable never matches), so this compiler always succeeds and is
  what both pushdown storlets run next to the data -- once per
  dictionary entry where a column is dictionary-coded, and a comparison
  (against a number or a string) or a prefix / suffix / substring test
  without a Python frame per row: on the byte planes of a packed
  narrow-int column (:class:`~repro.columnar.batch.PackedColumn`), in
  one C-level pass over any other vector.

Kernel calling convention: ``kernel(columns, n) -> vector`` where
``columns`` are the scan-schema-aligned input vectors.  Kernels may
return an input vector unchanged (column references do); callers must
treat result vectors as immutable.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.columnar.batch import DictColumn, PackedColumn, compress_columns, take_column
from repro.obs.metrics import MetricsRegistry
from repro.sql.catalyst import split_conjuncts
from repro.sql.errors import SqlAnalysisError
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
    between_value,
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
    """Why ``expression`` cannot be proven total: ``reason`` is one of
    the stable codes ``unknown_column``, ``incomparable_types``,
    ``non_numeric_arithmetic``, ``function_not_total``, ``not_scalar``
    and ``unsupported_expression``."""

    def __init__(self, reason: str, expression: Expression):
        super().__init__(f"{reason}: {expression.to_sql()}")
        self.reason = reason
        self.expression = expression


def _static_kind(expr: Expression, schema: Schema) -> str:
    """The provable value kind of ``expr``; certifies that evaluating
    the whole subtree can never raise.

    Raises :class:`KernelRefusal`, naming the innermost sub-expression
    the proof fails on, when it cannot.
    """
    if isinstance(expr, Literal):
        if expr.value is None:
            return _NULL
        return _STR if isinstance(expr.value, str) else _NUM
    if isinstance(expr, Column):
        if expr.name not in schema:
            raise KernelRefusal("unknown_column", expr)
        return _DTYPE_KIND[schema.field(expr.name).dtype]
    if isinstance(expr, (Star, Aggregate)):
        # Never scalar-evaluable: ``bind`` rejects these too.
        raise KernelRefusal("not_scalar", expr)
    kinds = [_static_kind(child, schema) for child in expr.children()]
    if isinstance(expr, BinaryOp):
        left, right = kinds
        if expr.op in ("and", "or"):
            return _NUM
        if expr.op == "||":
            return _STR
        if expr.op in ("=", "<>", "!="):
            return _NUM  # Python ==/!= never raise across builtin types
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
    elif isinstance(expr, UnaryOp):
        if expr.op == "not":
            return _NUM
        if expr.op == "-":
            if kinds[0] in (_NUM, _NULL):
                return _NUM
            raise KernelRefusal("non_numeric_arithmetic", expr)
    elif isinstance(expr, (Like, InList, IsNull)):
        return _NUM
    elif isinstance(expr, Between):
        concrete = {kind for kind in kinds if kind != _NULL}
        if concrete <= {_NUM} or concrete <= {_STR}:
            return _NUM
        raise KernelRefusal("incomparable_types", expr)
    elif isinstance(expr, CaseWhen):
        concrete = {kind for kind in kinds if kind != _NULL}
        return concrete.pop() if len(concrete) == 1 else _ANY
    elif isinstance(expr, FunctionCall):
        try:
            lookup_scalar(expr.name, len(expr.args))
        except SqlAnalysisError:
            raise KernelRefusal("function_not_total", expr) from None
        if expr.name in _TOTAL_FUNCTIONS and all(
            isinstance(arg, Literal) and type(arg.value) is int
            for arg in expr.args[1:]
        ):
            return _NULL if kinds[0] == _NULL else _TOTAL_FUNCTIONS[expr.name]
        raise KernelRefusal("function_not_total", expr)
    raise KernelRefusal("unsupported_expression", expr)


def proves_total(expr: Expression, schema: Schema) -> bool:
    """Can evaluating ``expr`` over rows of ``schema`` never raise?"""
    try:
        _static_kind(expr, schema)
    except KernelRefusal:
        return False
    return True


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


def _proven(
    expr: Expression, schema: Schema, registry: Optional[MetricsRegistry]
) -> bool:
    """:func:`proves_total`, a refusal counted in ``registry`` (if any)
    as ``sql.kernel_refusals{reason=,expression=}``."""
    try:
        _static_kind(expr, schema)
    except KernelRefusal as refusal:
        if registry is not None:
            registry.inc(
                "sql.kernel_refusals",
                reason=refusal.reason,
                expression=refusal.expression.to_sql(),
            )
        return False
    return True


def _interpreted(expr: Expression, schema: Schema) -> VectorKernel:
    """``expr.bind`` looped over the vectors ``expr`` references: what a
    refused expression runs as.  Analysis errors (an unknown column, a
    misplaced aggregate) raise here, at compile time."""
    names = sorted(expr.columns())
    evaluate = expr.bind(schema.select(names))
    indices = [schema.index_of(name) for name in names]

    def kernel(cols: Columns, n: int) -> List[Any]:
        if not indices:
            return [evaluate(()) for _ in range(n)]
        return list(map(evaluate, zip(*[cols[index] for index in indices])))

    return kernel


def compile_expression(
    expr: Expression, schema: Schema, registry: Optional[MetricsRegistry] = None
) -> VectorKernel:
    """Lower one expression into a batch kernel.

    The kernel is fused when :func:`_static_kind` proves the expression
    total over the given scan schema, and is then value-identical to
    evaluating ``expr.bind(schema)`` row by row; otherwise it *is* that
    evaluation (:func:`_interpreted`), and the refusal is counted.
    """
    if _proven(expr, schema, registry):
        return _compile(expr, schema)
    return _interpreted(expr, schema)


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
    if isinstance(expr, InList):
        return _compile_in_list(expr, schema)
    if isinstance(expr, Between):
        return _compile_between(expr, schema)
    if isinstance(expr, CaseWhen):
        return _compile_case(expr, schema)
    # What is left maps its one vector operand cell by cell.
    if isinstance(expr, FunctionCall):
        return _map_cells(_compile(expr.args[0], schema), _function_cells(expr, schema))
    inner = _compile(expr.operand, schema)  # type: ignore[attr-defined]
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


def _function_cells(expr: FunctionCall, schema: Schema) -> CellMap:
    """One of :data:`_TOTAL_FUNCTIONS` over its first argument's cells,
    the other arguments being integer literals."""
    function = lookup_scalar(expr.name, len(expr.args))
    rest = [arg.value for arg in expr.args[1:]]  # type: ignore[attr-defined]
    if expr.name in ("substring", "substr") and min(rest) >= 0:
        # Table I's shape: the slice bounds do not depend on the text.
        start = max(rest[0] - 1, 0)
        stop = start + rest[1] if len(rest) > 1 else None
        if _static_kind(expr.args[0], schema) == _STR:
            return lambda cells: [
                None if v is None else v[start:stop] for v in cells
            ]
        return lambda cells: [
            None if v is None else str(v)[start:stop] for v in cells
        ]
    return lambda cells: [function(v, *rest) for v in cells]


def _compile_binary(expr: BinaryOp, schema: Schema) -> VectorKernel:
    op = expr.op
    left_kind = _static_kind(expr.left, schema)
    right_kind = _static_kind(expr.right, schema)
    if op not in ("and", "or") and _NULL in (left_kind, right_kind):
        # One side is always NULL: comparisons, arithmetic and
        # concatenation all propagate it unconditionally.
        return lambda cols, n: [None] * n
    # Fused vector-vs-literal comparisons: the hot shape of WHERE clauses.
    if op in ("=", "<>", "!=", *_ORDERED_OPS):
        if isinstance(expr.right, Literal):
            cells = _cmp_col_lit(op, expr.right.value)
            if cells is not None:
                return _map_cells(_compile(expr.left, schema), cells)
        if isinstance(expr.left, Literal):
            cells = _cmp_col_lit(_MIRRORED.get(op, op), expr.left.value)
            if cells is not None:
                return _map_cells(_compile(expr.right, schema), cells)
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
    """``x [NOT] IN (...)``: a member answers ``hit``; a non-member
    ``miss``, which is NULL when the list holds a NULL (``x = NULL``
    might have been the match)."""
    inner = _compile(expr.operand, schema)
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
    item_kernels = [_compile(item, schema) for item in expr.items]

    def kernel(cols: Columns, n: int) -> List[Any]:
        return [
            None
            if value is None
            else hit
            if value in items
            else (None if None in items else negated)
            for value, *items in zip(
                inner(cols, n), *(item(cols, n) for item in item_kernels)
            )
        ]

    return kernel


def _compile_between(expr: Between, schema: Schema) -> VectorKernel:
    """``x >= lo AND x <= hi`` under Kleene AND (then NOT): beside a
    NULL bound the other comparison still answers False."""
    inner = _compile(expr.operand, schema)
    negated = expr.negated
    if isinstance(expr.low, Literal) and isinstance(expr.high, Literal):
        lo, hi = expr.low.value, expr.high.value
        if lo is None or hi is None:  # rare: no comprehension of its own
            return _map_cells(
                inner,
                lambda cells: [between_value(v, lo, hi, negated) for v in cells],
            )
        if negated:
            return _map_cells(
                inner,
                lambda cells: [None if v is None else not lo <= v <= hi for v in cells],
            )
        return _map_cells(
            inner, lambda cells: [None if v is None else lo <= v <= hi for v in cells]
        )
    low = _compile(expr.low, schema)
    high = _compile(expr.high, schema)
    return lambda cols, n: [
        between_value(v, lo, hi, negated)
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
        out = default(cols, n) if default is not None else [None] * n
        # Last branch first, so the first true condition of a row is the
        # one whose result stays.
        for condition, result in reversed(branches):
            out = [
                chosen if flag is True else kept
                for flag, chosen, kept in zip(condition(cols, n), result(cols, n), out)
            ]
        return out

    return kernel


def compile_predicate(
    expr: Expression, schema: Schema, registry: Optional[MetricsRegistry] = None
) -> SelectionKernel:
    """Lower a WHERE condition into a selection-vector kernel.

    The kernel returns the indices of rows whose condition evaluates to
    exactly ``True`` (SQL WHERE semantics: NULL and False both drop the
    row).

    Top-level conjuncts run left to right over a narrowing selection, as
    the interpreter stops at a row's first false conjunct: each one
    sees only the rows that passed those before it, gathered from the
    columns it references.  Every conjunct is proven total on its own,
    so a skipped evaluation cannot hide an error.  ``a AND b`` is
    ``True`` exactly when both are neither NULL nor falsy.  When any
    conjunct is refused the condition is interpreted *whole*, so which
    operand a row's AND / OR / CASE stops at -- and with it whether the
    row raises -- stays the interpreter's own.
    """
    conjuncts = split_conjuncts(expr)
    # A list, not a generator: every refused conjunct is counted.
    if not all([_proven(conjunct, schema, registry) for conjunct in conjuncts]):
        whole = _interpreted(expr, schema)
        return lambda cols, n: _passing(whole(cols, n), n, exact=True)
    kernels = [_compile(conjunct, schema) for conjunct in conjuncts]
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
            narrowed: List[Optional[Sequence[Any]]] = [None] * len(cols)
            for index in needed:
                narrowed[index] = take_column(cols[index], picked)
            passing = _passing(kernel(narrowed, len(picked)), len(picked))
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


def _comparison_mask(index: int, item: _AttributeFilter, slow: MaskKernel) -> MaskKernel:
    """A comparison against an ``int``, ``float`` or ``str``, or a
    string filter against a ``str``, as a mask kernel that makes no
    Python call per row.

    A packed narrow-int column against an ``int`` is judged on its byte
    planes (:func:`_plane_mask`, tallied under ``planes``); any other
    vector in one C-level pass, ``bytes(map(judge, cells))`` or the
    ``str`` method mapped over the cells (``rows_c``) -- which a NULL or
    an incomparable (for a string filter: a non-``str``) cell stops with
    ``TypeError``, and the whole vector then goes to ``slow``, the
    guarded per-cell check, as a dictionary-coded column does from the
    start.
    """
    kind, value = type(item), item.value
    if kind in _STR_METHODS:
        method = _STR_METHODS[kind]
        verdicts = lambda column: map(method, column, itertools.repeat(value))
    else:
        verdicts = functools.partial(map, functools.partial(_JUDGES[kind], value))

    def kernel(cols: Columns, n: int, tally: Optional[Dict[str, int]]) -> bytes:
        column = cols[index]
        if isinstance(column, DictColumn):
            return slow(cols, n, tally)
        if (
            type(value) is int
            and isinstance(column, PackedColumn)
            and column.view.itemsize < 8
        ):
            domain, mask = "planes", _plane_mask(column, kind, value)
        else:
            try:
                domain, mask = "rows_c", bytes(verdicts(column))
            except TypeError:
                return slow(cols, n, tally)
        if tally is not None:
            tally[domain] = tally.get(domain, 0) + n
        return mask

    return kernel


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
    guarded = _cell_mask(
        index, lambda values: [c is not None and check(c) for c in values]
    )
    kind, value_type = type(item), type(item.value)
    if (kind in _JUDGES and value_type in (int, float, str)) or (
        kind in _STR_METHODS and value_type is str
    ):
        return _comparison_mask(index, item, guarded)
    return guarded


class FilterMask:
    """A source-filter conjunction lowered to one byte-mask kernel.

    Unlike the expression compiler this never declines: source filters
    are total by contract (NULL never matches; incomparable values never
    match), so every shape lowers.  ``mask(columns, n)`` is a ``bytes``
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


def compile_group_kernels(
    group_by: Sequence[str],
    aggregate_args: Sequence[str],
    schema: Schema,
) -> Tuple[List[VectorKernel], List[Optional[VectorKernel]]]:
    """Lower a grouped aggregation's expressions into batch kernels.

    ``group_by`` and ``aggregate_args`` are expression strings in the
    SQL dialect (the :class:`~repro.storlets.agg_storlet.AggregationSpec`
    wire format); an aggregate argument of ``"*"`` means COUNT(*)-style
    input and has ``None`` for its kernel
    (:meth:`repro.sql.grouping.GroupTable.add_batch`'s convention).  Returns
    ``(key_kernels, input_kernels)``, each kernel
    :func:`compile_expression`'s.  Shared by the aggregating storlet and
    its compute-side degradation twin, which is what keeps the two
    streams value-identical.
    """
    from repro.sql.parser import parse_expression

    key_kernels = [
        compile_expression(parse_expression(text), schema) for text in group_by
    ]
    input_kernels = [
        None
        if text.strip() == "*"
        else compile_expression(parse_expression(text), schema)
        for text in aggregate_args
    ]
    return key_kernels, input_kernels
