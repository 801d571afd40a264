"""stdlib ``sqlite3`` as the SQL oracle: an engine that shares no
operator, no evaluator and no author with ``repro.sql``.

:func:`check_against_sqlite` loads the rows into a ``:memory:``
database, translates the query and diffs the two answers.  Only the
*parser* is shared (the query is translated from its AST); every
operator, NULL rule, aggregate and sort is sqlite's own.

The dialect table -- the whole translation and every difference the
comparison allows for.  Nothing else is tolerated: outside these rows a
cell compares with ``==``.

====  ==============================  =====================================
 #    repro.sql                       sqlite3
====  ==============================  =====================================
 T1   ``SUBSTRING(x, 0, k)``          ``substr(x, 1, k)`` -- position 0 is
      (``SUBSTR`` alike; Spark's      position 1; only literal positions
      rule)                           >= 0 translate
 T2   ``a / b`` is float division     ``CAST(a AS REAL) / b`` (sqlite
                                      divides two integers as integers);
                                      ``x / 0`` and ``x % 0`` are NULL in
                                      both
 T3   NULLs sort last, ASC and DESC   ``ORDER BY k ASC|DESC NULLS LAST``
 T4   LIKE is case-sensitive          ``PRAGMA case_sensitive_like=ON``
 T5   SUM / AVG are exact             sqlite accumulates doubles: a
      (``math.fsum``, rounded once)   *float* cell of a SUM / AVG output
                                      compares with
                                      ``math.isclose(rel_tol=1e-9)``;
                                      integer sums compare with ``==``
 T6   a result without ORDER BY has   compared as multisets; under ORDER
      no order                        BY the *key* sequences must be
                                      equal and ties may come in either
                                      order; with LIMIT our rows must be
                                      a sub-multiset of sqlite's
                                      unlimited answer, of the right
                                      length (and its key prefix)
 T7   ``FIRST_VALUE(x)`` aggregate    registered on the connection (sqlite
                                      has it as a window function only):
                                      the first value *fed*, so it is
                                      compared only where ``x`` is
                                      constant within a group (Table I)
 T8   a column named ``index``        identifiers are double-quoted
 T9   a query we refuse               the caller skips it *and counts it*
      (``SqlError``)                  (``tests/test_sql_oracle.py`` bounds
                                      the share)
====  ==============================  =====================================

Kept out of the generators because the engines differ on them by
design of the *inputs*, not of the dialect: a string compared with a
number (we raise, sqlite orders by storage class), NaN (sqlite stores
NULL), ``%`` on floats (sqlite casts both sides to integers),
non-ASCII ``UPPER`` / ``LOWER``.

**Open** deviations from Spark SQL (sqlite agrees with Spark on the
first; the rest are Spark's own rules).  Left as they are, recorded
under ROADMAP item 2, and not generated here:

* ``-7 % 3`` is 2 (Python's floored modulo); Spark and sqlite answer -1;
* ``ROUND(2.5)`` is 2.0 (banker's rounding); Spark rounds HALF_UP: 3.0;
* ``FLOOR`` / ``CEIL`` return ints (Spark: bigint for doubles, but
  decimal for decimals);
* ASC sorts NULLs last (Spark: NULLs first under ASC);
* ORDER BY on anything but an output column, an alias or a GROUP BY key
  -- a column the SELECT list dropped, a projected expression spelled
  out again -- is an analysis error (Spark resolves it against the
  child plan).
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any, Iterable, List, Optional, Sequence, Tuple

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
)
from repro.sql.parser import Query, parse_query
from repro.sql.types import DataType, Row, Schema

_AFFINITY = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.BOOL: "INTEGER",
    DataType.STRING: "TEXT",
}

#: Scalar functions that mean the same in both engines over ASCII text.
_SAME_FUNCTIONS = {"upper", "lower", "length", "trim"}


class Untranslatable(Exception):
    """The query uses something the dialect table has no row for."""


def _quoted(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'  # T8


class _Translation:
    """One query rendered for sqlite: text plus the float literals, bound."""

    def __init__(self) -> None:
        self.params: List[Any] = []

    def expression(self, node: Expression) -> str:
        render = self.expression
        if isinstance(node, Literal):
            return self._literal(node.value)
        if isinstance(node, Column):
            return _quoted(node.name)
        if isinstance(node, Star):
            return "*"
        if isinstance(node, BinaryOp):
            left, right = render(node.left), render(node.right)
            if node.op == "/":
                return f"(CAST({left} AS REAL) / {right})"  # T2
            return f"({left} {node.op.upper()} {right})"
        if isinstance(node, UnaryOp):
            return f"({node.op.upper()} {render(node.operand)})"
        if isinstance(node, Like):
            negation = "NOT " if node.negated else ""
            pattern = self._literal(node.pattern)
            return f"({render(node.operand)} {negation}LIKE {pattern})"
        if isinstance(node, InList):
            negation = "NOT " if node.negated else ""
            operand = render(node.operand)
            members = ", ".join(render(item) for item in node.items)
            return f"({operand} {negation}IN ({members}))"
        if isinstance(node, Between):
            negation = "NOT " if node.negated else ""
            operand, low, high = render(node.operand), render(node.low), render(node.high)
            return f"({operand} {negation}BETWEEN {low} AND {high})"
        if isinstance(node, IsNull):
            suffix = "IS NOT NULL" if node.negated else "IS NULL"
            return f"({render(node.operand)} {suffix})"
        if isinstance(node, CaseWhen):
            parts = ["CASE"]
            for condition, result in node.branches:
                parts.append(f"WHEN {render(condition)} THEN {render(result)}")
            if node.otherwise is not None:
                parts.append(f"ELSE {render(node.otherwise)}")
            return " ".join(parts + ["END"])
        if isinstance(node, FunctionCall):
            return self._function(node)
        if isinstance(node, Aggregate):
            if node.name not in ("sum", "avg", "min", "max", "count", "first_value"):
                raise Untranslatable(node.to_sql())
            distinct = "DISTINCT " if node.distinct else ""
            return f"{node.name}({distinct}{render(node.arg)})"
        raise Untranslatable(node.to_sql())

    def _literal(self, value: Any) -> str:
        if value is None:
            return "NULL"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        if isinstance(value, float):
            # Bound, not printed: sqlite's own text-to-double conversion
            # may land one ulp from Python's.
            self.params.append(value)
            return "?"
        return str(int(value))

    def _function(self, node: FunctionCall) -> str:
        if node.name in ("substring", "substr"):  # T1
            position = node.args[1]
            if not (isinstance(position, Literal) and type(position.value) is int
                    and position.value >= 0):
                raise Untranslatable(node.to_sql())
            start = Literal(max(position.value, 1))
            args = [node.args[0], start, *node.args[2:]]
            return "substr(" + ", ".join(self.expression(arg) for arg in args) + ")"
        if node.name in _SAME_FUNCTIONS:
            return f"{node.name}({self.expression(node.args[0])})"
        raise Untranslatable(node.to_sql())

    def query(self, query: Query, schema: Schema) -> str:
        """``query`` without its LIMIT (T6 applies that to our side)."""
        items = []
        for item in query.items:
            if isinstance(item.expression, Star):
                items.extend(_quoted(name) for name in schema.names)
                continue
            alias = f" AS {_quoted(item.alias)}" if item.alias else ""
            items.append(self.expression(item.expression) + alias)
        parts = ["SELECT DISTINCT" if query.distinct else "SELECT", ", ".join(items)]
        parts.append(f"FROM {_quoted(query.table)}")
        if query.where is not None:
            parts.append("WHERE " + self.expression(query.where))
        if query.group_by:
            parts.append("GROUP BY " + ", ".join(map(self.expression, query.group_by)))
        if query.having is not None:
            parts.append("HAVING " + self.expression(query.having))
        if query.order_by:
            keys = [
                f"{self.expression(key)} {'ASC' if ascending else 'DESC'} NULLS LAST"  # T3
                for key, ascending in query.order_by
            ]
            parts.append("ORDER BY " + ", ".join(keys))
        return " ".join(parts)


class _FirstValue:  # T7
    def __init__(self) -> None:
        self.seen, self.value = False, None

    def step(self, value: Any) -> None:
        if not self.seen:
            self.seen, self.value = True, value

    def finalize(self) -> Any:
        return self.value


def sqlite_rows(query: Query, schema: Schema, rows: Iterable[Row]) -> List[Tuple]:
    """sqlite's answer to ``query`` over ``rows``, LIMIT left off."""
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("PRAGMA case_sensitive_like=ON")  # T4
        connection.create_aggregate("first_value", 1, _FirstValue)
        declared = ", ".join(
            f"{_quoted(field.name)} {_AFFINITY[field.dtype]}" for field in schema.fields
        )
        connection.execute(f"CREATE TABLE {_quoted(query.table)} ({declared})")
        slots = ", ".join("?" * len(schema))
        connection.executemany(
            f"INSERT INTO {_quoted(query.table)} VALUES ({slots})", rows
        )
        translation = _Translation()
        text = translation.query(query, schema)
        return connection.execute(text, translation.params).fetchall()
    finally:
        connection.close()


def _same_cell(ours: Any, theirs: Any, approximate: bool) -> bool:
    if ours == theirs:
        return True
    if approximate and isinstance(ours, float) and isinstance(theirs, float):
        return math.isclose(ours, theirs, rel_tol=1e-9)  # T5
    return False


def _same_row(ours: Row, theirs: Row, approximate: Sequence[bool]) -> bool:
    return len(ours) == len(theirs) and all(map(_same_cell, ours, theirs, approximate))


def _output_position(query: Query, key: Expression) -> Optional[int]:
    """Which output column an ORDER BY key is (alias or expression)."""
    for position, item in enumerate(query.items):
        if key == item.expression or (
            isinstance(key, Column) and item.alias and key.name.lower() == item.alias.lower()
        ):
            return position
    return None


def check_against_sqlite(
    sql: str, schema: Schema, rows: Iterable[Row], ours: Iterable[Row]
) -> None:
    """Assert ``ours`` is a right answer to ``sql`` over ``rows``,
    judged by sqlite under the dialect table (T5, T6)."""
    query = parse_query(sql)
    theirs = sqlite_rows(query, schema, rows)
    ours = list(ours)
    context = f"\n  sql:    {sql}\n  ours:   {ours}\n  sqlite: {theirs}"
    approximate: List[bool] = []
    for item in query.items:
        if isinstance(item.expression, Star):
            approximate += [False] * len(schema)
        else:
            calls = item.expression.aggregates()
            approximate.append(any(call.name in ("sum", "avg") for call in calls))
    expected_length = len(theirs)
    if query.limit is not None:
        expected_length = min(query.limit, expected_length)
    assert len(ours) == expected_length, "row count" + context

    positions = [_output_position(query, key) for key, _ascending in query.order_by]
    if None not in positions:
        for row, other in zip(ours, theirs):
            for position in positions:
                assert _same_cell(row[position], other[position], approximate[position]), (
                    "ORDER BY keys" + context
                )
    if all(_same_row(row, other, approximate) for row, other in zip(ours, theirs)):
        return  # the same rows in the same order: no ties to untangle
    pool = list(theirs)
    for row in ours:
        for index, candidate in enumerate(pool):
            if _same_row(row, candidate, approximate):
                del pool[index]
                break
        else:
            raise AssertionError(f"{row} is not in sqlite's answer" + context)
