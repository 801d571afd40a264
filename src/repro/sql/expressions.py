"""Expression trees: construction, inspection and SQL text.

A node knows its children, the columns and aggregates it references and
how to print itself; it does not evaluate.  Evaluation is
:mod:`repro.sql.kernels`' alone: every expression compiles to one batch
kernel, fused where an operation is proven total and guarded where it is
not, and a row is a batch of one.  NULL handling follows SQL
three-valued logic there (comparisons propagate None; AND/OR use Kleene
logic; WHERE treats None as false).
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.sql.errors import SqlAnalysisError


class Expression:
    """Base expression node."""

    def children(self) -> Sequence["Expression"]:
        return ()

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

    def columns(self) -> Set[str]:
        return {self.name.lower()}

    def to_sql(self) -> str:
        return self.name

    def _key(self) -> Tuple:
        return (self.name.lower(),)


class Star(Expression):
    """``*`` -- only valid as a select item or inside COUNT(*)."""

    def to_sql(self) -> str:
        return "*"

    def _key(self) -> Tuple:
        return ()


class BinaryOp(Expression):
    def __init__(self, op: str, left: Expression, right: Expression):
        self.op = op.lower() if op.lower() in ("and", "or") else op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

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

    def to_sql(self) -> str:
        negation = " NOT" if self.negated else ""
        items = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()}{negation} IN ({items}))"

    def _key(self) -> Tuple:
        return (self.operand, tuple(self.items), self.negated)


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
