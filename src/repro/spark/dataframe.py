"""DataFrames: query results and fluent query construction."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sql.expressions import SelectItem, Star
from repro.sql.lexer import tokenize
from repro.sql.parser import Query, _Parser, parse_expression
from repro.sql.types import Row, Schema


def _parse_select_item(text: str) -> SelectItem:
    """Parse ``expr [AS alias]`` for the fluent aggregation API."""
    parser = _Parser(tokenize(text))
    items = parser._select_items()
    parser._expect_eof()
    if len(items) != 1:
        raise ValueError(f"expected exactly one select item: {text!r}")
    return items[0]


class GroupedData:
    """Result of :meth:`DataFrame.group_by`; call :meth:`agg` to finish.

    Mirrors Spark's ``df.groupBy(...).agg(...)``::

        df.group_by("vid").agg("sum(index) AS total", "count(*) AS n")
    """

    def __init__(self, frame: "DataFrame", keys):
        self.frame = frame
        self.keys = [parse_expression(key) for key in keys]

    def agg(self, *aggregations: str) -> "DataFrame":
        items = [SelectItem(expression) for expression in self.keys]
        items.extend(_parse_select_item(text) for text in aggregations)
        base = self.frame.query
        query = Query(
            items=items,
            table=base.table,
            distinct=base.distinct,
            where=base.where,
            group_by=list(self.keys),
            order_by=[],
            limit=None,
        )
        return self.frame._refined(query)


class DataFrame:
    """A lazily executed structured query against one relation.

    Fluent methods (:meth:`select`, :meth:`where`, :meth:`limit`...)
    refine the underlying :class:`~repro.sql.parser.Query`; actions
    (:meth:`collect`, :meth:`count`, :meth:`show`) execute it through the
    session's planner, which performs the pushdown handshake.
    """

    def __init__(self, session, table: str, query: Optional[Query] = None):
        self.session = session
        self.table = table
        self.query = query or Query(
            items=[SelectItem(Star())], table=table
        )
        self._result: Optional[Tuple[Schema, List[Row]]] = None

    # -- fluent construction ------------------------------------------------

    def _refined(self, query: Query) -> "DataFrame":
        return DataFrame(self.session, self.table, query)

    def select(self, *columns: str) -> "DataFrame":
        items = []
        for column in columns:
            expression = parse_expression(column)
            items.append(SelectItem(expression))
        query = Query(
            items=items,
            table=self.query.table,
            distinct=self.query.distinct,
            where=self.query.where,
            group_by=list(self.query.group_by),
            order_by=list(self.query.order_by),
            limit=self.query.limit,
        )
        return self._refined(query)

    def where(self, condition: str) -> "DataFrame":
        from repro.sql.expressions import BinaryOp

        predicate = parse_expression(condition)
        merged = (
            predicate
            if self.query.where is None
            else BinaryOp("and", self.query.where, predicate)
        )
        query = Query(
            items=list(self.query.items),
            table=self.query.table,
            distinct=self.query.distinct,
            where=merged,
            group_by=list(self.query.group_by),
            order_by=list(self.query.order_by),
            limit=self.query.limit,
        )
        return self._refined(query)

    filter = where

    def group_by(self, *keys: str) -> "GroupedData":
        """Start a grouped aggregation (keys may be expressions)."""
        return GroupedData(self, keys)

    def order_by(self, *columns: str) -> "DataFrame":
        ordering = []
        for column in columns:
            text = column.strip()
            ascending = True
            if text.lower().endswith(" desc"):
                text, ascending = text[: -len(" desc")], False
            elif text.lower().endswith(" asc"):
                text = text[: -len(" asc")]
            ordering.append((parse_expression(text), ascending))
        query = Query(
            items=list(self.query.items),
            table=self.query.table,
            distinct=self.query.distinct,
            where=self.query.where,
            group_by=list(self.query.group_by),
            order_by=ordering,
            limit=self.query.limit,
        )
        return self._refined(query)

    def limit(self, count: int) -> "DataFrame":
        query = Query(
            items=list(self.query.items),
            table=self.query.table,
            distinct=self.query.distinct,
            where=self.query.where,
            group_by=list(self.query.group_by),
            order_by=list(self.query.order_by),
            limit=count,
        )
        return self._refined(query)

    # -- actions ---------------------------------------------------------------

    def _execute(self) -> Tuple[Schema, List[Row]]:
        if self._result is None:
            self._result = self.session.execute_query_object(self.query)
        return self._result

    @property
    def schema(self) -> Schema:
        return self._execute()[0]

    def collect(self) -> List[Row]:
        return list(self._execute()[1])

    def count(self) -> int:
        return len(self._execute()[1])

    def to_dicts(self) -> List[Dict[str, Any]]:
        schema, rows = self._execute()
        return [dict(zip(schema.names, row)) for row in rows]

    def first(self) -> Optional[Row]:
        rows = self._execute()[1]
        return rows[0] if rows else None

    def show(self, limit: int = 20) -> str:
        """Render (and return) an ASCII table of up to ``limit`` rows."""
        schema, rows = self._execute()
        header = schema.names
        body = [
            ["NULL" if value is None else str(value) for value in row]
            for row in rows[:limit]
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        rule = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = [rule]
        lines.append(
            "|" + "|".join(f" {header[i]:<{widths[i]}} " for i in range(len(header))) + "|"
        )
        lines.append(rule)
        for row in body:
            lines.append(
                "|" + "|".join(f" {row[i]:<{widths[i]}} " for i in range(len(header))) + "|"
            )
        lines.append(rule)
        if len(rows) > limit:
            lines.append(f"(showing {limit} of {len(rows)} rows)")
        rendered = "\n".join(lines)
        print(rendered)
        return rendered

    def explain(self) -> str:
        """Describe the plan and the pushdown handshake for this query."""
        return self.session.explain_query_object(self.query)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.collect())

    def __len__(self) -> int:
        return self.count()
