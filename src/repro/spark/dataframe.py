"""DataFrames: the result of one SQL query."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sql.parser import Query
from repro.sql.types import Row, Schema


class DataFrame:
    """A lazily executed structured query against one relation.

    Actions (:meth:`collect`, :meth:`show`) execute the query through
    the session's planner, which performs the pushdown handshake, once
    per frame.
    """

    def __init__(self, session, table: str, query: Query):
        self.session = session
        self.table = table
        self.query = query
        self._result: Optional[Tuple[Schema, List[Row]]] = None

    def _execute(self) -> Tuple[Schema, List[Row]]:
        if self._result is None:
            self._result = self.session.execute_query_object(self.query)
        return self._result

    @property
    def schema(self) -> Schema:
        return self._execute()[0]

    def collect(self) -> List[Row]:
        return list(self._execute()[1])

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
