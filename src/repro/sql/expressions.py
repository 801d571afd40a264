"""Expression trees: construction, schema binding and evaluation.

Every expression can ``bind(schema)`` itself into a plain Python closure
``row -> value`` so that per-row evaluation costs no tree walking.  NULL
handling follows SQL three-valued logic where it matters (comparisons
propagate None; AND/OR use Kleene logic; WHERE treats None as false).
"""

from __future__ import annotations

import re
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from repro.sql.errors import SqlAnalysisError, SqlTypeError
from repro.sql.types import Row, Schema

Evaluator = Callable[[Row], Any]


class Expression:
    """Base expression node."""

    def children(self) -> Sequence["Expression"]:
        return ()

    def bind(self, schema: Schema) -> Evaluator:
        raise NotImplementedError

    def columns(self) -> Set[str]:
        found: Set[str] = set()
        for child in self.children():
            found |= child.columns()
        return found

    def contains_aggregate(self) -> bool:
        return any(child.contains_aggregate() for child in self.children())

    def aggregates(self) -> List["Aggregate"]:
        found: List[Aggregate] = []
        for child in self.children():
            found.extend(child.aggregates())
        return found

    def to_sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_sql()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> Tuple:
        raise NotImplementedError


class Literal(Expression):
    def __init__(self, value: Any):
        self.value = value

    def bind(self, schema: Schema) -> Evaluator:
        value = self.value
        return lambda row: value

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)

    def _key(self) -> Tuple:
        return (self.value,)


class Column(Expression):
    def __init__(self, name: str):
        self.name = name

    def bind(self, schema: Schema) -> Evaluator:
        index = schema.index_of(self.name)
        return lambda row: row[index]

    def columns(self) -> Set[str]:
        return {self.name.lower()}

    def to_sql(self) -> str:
        return self.name

    def _key(self) -> Tuple:
        return (self.name.lower(),)


class Star(Expression):
    """``*`` -- only valid as a select item or inside COUNT(*)."""

    def bind(self, schema: Schema) -> Evaluator:
        raise SqlAnalysisError("'*' cannot be evaluated as a scalar")

    def to_sql(self) -> str:
        return "*"

    def _key(self) -> Tuple:
        return ()


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}
_COMPARISON = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class BinaryOp(Expression):
    def __init__(self, op: str, left: Expression, right: Expression):
        self.op = op.lower() if op.lower() in ("and", "or") else op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def bind(self, schema: Schema) -> Evaluator:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        op = self.op
        if op == "and":

            def eval_and(row: Row) -> Any:
                a = left(row)
                if a is False:
                    return False
                b = right(row)
                if b is False:
                    return False
                if a is None or b is None:
                    return None
                return bool(a) and bool(b)

            return eval_and
        if op == "or":

            def eval_or(row: Row) -> Any:
                a = left(row)
                if a is True:
                    return True
                b = right(row)
                if b is True:
                    return True
                if a is None or b is None:
                    return None
                return bool(a) or bool(b)

            return eval_or
        if op == "||":

            def eval_concat(row: Row) -> Any:
                a, b = left(row), right(row)
                if a is None or b is None:
                    return None
                return str(a) + str(b)

            return eval_concat
        if op in _COMPARISON:
            compare = _COMPARISON[op]

            def eval_compare(row: Row) -> Any:
                a, b = left(row), right(row)
                if a is None or b is None:
                    return None
                try:
                    return compare(a, b)
                except TypeError as error:
                    raise SqlTypeError(
                        f"cannot compare {a!r} {op} {b!r}"
                    ) from error

            return eval_compare
        if op in _ARITHMETIC:
            compute = _ARITHMETIC[op]

            def eval_arith(row: Row) -> Any:
                a, b = left(row), right(row)
                if a is None or b is None:
                    return None
                try:
                    return compute(a, b)
                except TypeError as error:
                    raise SqlTypeError(f"cannot apply {a!r} {op} {b!r}") from error
                except ZeroDivisionError:
                    return None

            return eval_arith
        raise SqlAnalysisError(f"unknown operator {op!r}")

    def to_sql(self) -> str:
        op = self.op.upper() if self.op in ("and", "or") else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"

    def _key(self) -> Tuple:
        return (self.op, self.left, self.right)


class UnaryOp(Expression):
    def __init__(self, op: str, operand: Expression):
        self.op = op.lower()
        self.operand = operand

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def bind(self, schema: Schema) -> Evaluator:
        inner = self.operand.bind(schema)
        if self.op == "not":

            def eval_not(row: Row) -> Any:
                value = inner(row)
                if value is None:
                    return None
                return not value

            return eval_not
        if self.op == "-":

            def eval_neg(row: Row) -> Any:
                value = inner(row)
                return None if value is None else -value

            return eval_neg
        raise SqlAnalysisError(f"unknown unary operator {self.op!r}")

    def to_sql(self) -> str:
        return f"({self.op.upper()} {self.operand.to_sql()})"

    def _key(self) -> Tuple:
        return (self.op, self.operand)


def like_pattern_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (``%``, ``_``) into a regex."""
    parts: List[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    # ``\Z``, not ``$``: ``$`` would also match before a trailing newline,
    # where the prefix / suffix / equality filters LIKE decomposes into
    # (:func:`repro.sql.catalyst.decompose_like`) do not.
    return re.compile("^" + "".join(parts) + r"\Z", re.DOTALL)


class Like(Expression):
    def __init__(self, operand: Expression, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def bind(self, schema: Schema) -> Evaluator:
        inner = self.operand.bind(schema)
        regex = like_pattern_to_regex(self.pattern)
        negated = self.negated

        def eval_like(row: Row) -> Any:
            value = inner(row)
            if value is None:
                return None
            matched = regex.match(str(value)) is not None
            return (not matched) if negated else matched

        return eval_like

    def to_sql(self) -> str:
        negation = " NOT" if self.negated else ""
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand.to_sql()}{negation} LIKE '{escaped}')"

    def _key(self) -> Tuple:
        return (self.operand, self.pattern, self.negated)


class InList(Expression):
    def __init__(
        self, operand: Expression, items: Sequence[Expression], negated: bool = False
    ):
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def children(self) -> Sequence[Expression]:
        return (self.operand, *self.items)

    def bind(self, schema: Schema) -> Evaluator:
        inner = self.operand.bind(schema)
        item_evals = [item.bind(schema) for item in self.items]
        negated = self.negated

        def eval_in(row: Row) -> Any:
            value = inner(row)
            if value is None:
                return None
            members = {evaluate(row) for evaluate in item_evals}
            if value in members:
                return not negated
            # Not a member -- unless a NULL member was the match.
            return None if None in members else negated

        return eval_in

    def to_sql(self) -> str:
        negation = " NOT" if self.negated else ""
        items = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()}{negation} IN ({items}))"

    def _key(self) -> Tuple:
        return (self.operand, tuple(self.items), self.negated)


def between_value(value: Any, lo: Any, hi: Any, negated: bool) -> Any:
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


class Between(Expression):
    def __init__(
        self,
        operand: Expression,
        low: Expression,
        high: Expression,
        negated: bool = False,
    ):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.low, self.high)

    def bind(self, schema: Schema) -> Evaluator:
        inner = self.operand.bind(schema)
        low = self.low.bind(schema)
        high = self.high.bind(schema)
        negated = self.negated

        def eval_between(row: Row) -> Any:
            value, lo, hi = inner(row), low(row), high(row)
            try:
                return between_value(value, lo, hi, negated)
            except TypeError as error:
                raise SqlTypeError(
                    f"cannot compare {value!r} BETWEEN {lo!r} AND {hi!r}"
                ) from error

        return eval_between

    def to_sql(self) -> str:
        negation = " NOT" if self.negated else ""
        return (
            f"({self.operand.to_sql()}{negation} BETWEEN "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )

    def _key(self) -> Tuple:
        return (self.operand, self.low, self.high, self.negated)


class IsNull(Expression):
    def __init__(self, operand: Expression, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def bind(self, schema: Schema) -> Evaluator:
        inner = self.operand.bind(schema)
        negated = self.negated

        def eval_is_null(row: Row) -> Any:
            result = inner(row) is None
            return (not result) if negated else result

        return eval_is_null

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"

    def _key(self) -> Tuple:
        return (self.operand, self.negated)


class CaseWhen(Expression):
    def __init__(
        self,
        branches: Sequence[Tuple[Expression, Expression]],
        otherwise: Optional[Expression] = None,
    ):
        self.branches = list(branches)
        self.otherwise = otherwise

    def children(self) -> Sequence[Expression]:
        kids: List[Expression] = []
        for condition, result in self.branches:
            kids.extend((condition, result))
        if self.otherwise is not None:
            kids.append(self.otherwise)
        return kids

    def bind(self, schema: Schema) -> Evaluator:
        bound = [
            (condition.bind(schema), result.bind(schema))
            for condition, result in self.branches
        ]
        default = (
            self.otherwise.bind(schema) if self.otherwise is not None else None
        )

        def eval_case(row: Row) -> Any:
            for condition, result in bound:
                if condition(row) is True:
                    return result(row)
            return default(row) if default is not None else None

        return eval_case

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.branches:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise.to_sql()}")
        parts.append("END")
        return " ".join(parts)

    def _key(self) -> Tuple:
        return (tuple(self.branches), self.otherwise)


class FunctionCall(Expression):
    """A scalar function call (SUBSTRING, UPPER, ...)."""

    def __init__(self, name: str, args: Sequence[Expression]):
        self.name = name.lower()
        self.args = list(args)

    def children(self) -> Sequence[Expression]:
        return tuple(self.args)

    def bind(self, schema: Schema) -> Evaluator:
        from repro.sql.functions import lookup_scalar

        function = lookup_scalar(self.name, len(self.args))
        arg_evals = [arg.bind(schema) for arg in self.args]

        def eval_call(row: Row) -> Any:
            return function(*[evaluate(row) for evaluate in arg_evals])

        return eval_call

    def to_sql(self) -> str:
        args = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.name.upper()}({args})"

    def _key(self) -> Tuple:
        return (self.name, tuple(self.args))


AGGREGATE_NAMES = {
    "sum",
    "min",
    "max",
    "count",
    "avg",
    "first_value",
    "last_value",
}


class Aggregate(Expression):
    """An aggregate call: SUM(x), COUNT(*), FIRST_VALUE(city)..."""

    def __init__(
        self, name: str, arg: Expression, distinct: bool = False
    ):
        self.name = name.lower()
        if self.name not in AGGREGATE_NAMES:
            raise SqlAnalysisError(f"unknown aggregate {name!r}")
        self.arg = arg
        self.distinct = distinct

    def children(self) -> Sequence[Expression]:
        return (self.arg,)

    def contains_aggregate(self) -> bool:
        return True

    def aggregates(self) -> List["Aggregate"]:
        return [self]

    def columns(self) -> Set[str]:
        if isinstance(self.arg, Star):
            return set()
        return self.arg.columns()

    def bind(self, schema: Schema) -> Evaluator:
        raise SqlAnalysisError(
            f"aggregate {self.name.upper()} outside an aggregation context"
        )

    def to_sql(self) -> str:
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name.upper()}({prefix}{self.arg.to_sql()})"

    def _key(self) -> Tuple:
        return (self.name, self.arg, self.distinct)


class SelectItem:
    """One projection item: expression plus optional alias."""

    def __init__(self, expression: Expression, alias: Optional[str] = None):
        self.expression = expression
        self.alias = alias

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expression, Column):
            return self.expression.name
        return self.expression.to_sql()

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expression.to_sql()} AS {self.alias}"
        return self.expression.to_sql()

    def __repr__(self) -> str:
        return f"SelectItem({self.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SelectItem)
            and self.expression == other.expression
            and self.alias == other.alias
        )
