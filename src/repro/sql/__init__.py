"""A SQL engine with Catalyst-style projection/selection extraction.

Scoop's pushdown contract hinges on Spark SQL's Catalyst optimizer: given
a query, Catalyst "extracts the projection and selection filters implied
by the query" and hands them to the data source (paper Section III-A).
This package provides the equivalent machinery:

* :mod:`repro.sql.lexer` / :mod:`repro.sql.parser` -- SQL text to AST for
  the dialect GridPocket's queries use (SELECT with aggregates and
  aliases, WHERE with LIKE / comparisons / AND / OR, GROUP BY, ORDER BY,
  LIMIT, SUBSTRING and friends).
* :mod:`repro.sql.expressions` -- expression tree with schema binding and
  evaluation.
* :mod:`repro.sql.filters` -- the ``sources.Filter`` equivalents that
  cross the wire to the object store (EqualTo, GreaterThan,
  StringStartsWith, ...), JSON-serializable for HTTP headers.
* :mod:`repro.sql.catalyst` -- logical plans, rewrite rules, and
  ``extract_pushdown``: pushed filters, which of them the source answers
  for (handled), the predicate left to the executor, the columns to ship.
* :mod:`repro.sql.executor` -- the one plan pipeline: filter, project
  and hash aggregate as batch kernels (:mod:`repro.sql.kernels`), then
  distinct, sort, limit.
"""

from repro.sql.catalyst import (
    LogicalPlan,
    Optimizer,
    PushdownSpec,
    build_logical_plan,
    extract_pushdown,
)
from repro.sql.errors import SqlError, SqlParseError
from repro.sql.executor import execute_plan, execute_query
from repro.sql.expressions import (
    Aggregate,
    BinaryOp,
    Column,
    FunctionCall,
    Like,
    Literal,
    Star,
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
    Not,
    Or,
    StringContains,
    StringEndsWith,
    StringStartsWith,
    filters_from_json,
    filters_to_json,
)
from repro.sql.parser import parse_query
from repro.sql.types import DataType, Field, Row, Schema

__all__ = [
    "Aggregate",
    "And",
    "BinaryOp",
    "Column",
    "DataType",
    "EqualTo",
    "Field",
    "Filter",
    "FunctionCall",
    "GreaterThan",
    "GreaterThanOrEqual",
    "In",
    "IsNotNull",
    "LessThan",
    "LessThanOrEqual",
    "Like",
    "Literal",
    "LogicalPlan",
    "Not",
    "Optimizer",
    "Or",
    "PushdownSpec",
    "Row",
    "Schema",
    "SqlError",
    "SqlParseError",
    "Star",
    "StringContains",
    "StringEndsWith",
    "StringStartsWith",
    "build_logical_plan",
    "execute_plan",
    "execute_query",
    "extract_pushdown",
    "filters_from_json",
    "filters_to_json",
    "parse_query",
]
