"""Schemas, fields and row values for the SQL engine.

Rows are plain tuples; a :class:`Schema` maps column names to positions
and declares column types used when parsing raw CSV text into values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sql.errors import SqlAnalysisError

Row = Tuple[Any, ...]


class DataType(enum.Enum):
    """Column data types (the subset GridPocket's schema needs)."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"

    def parse(self, text: str) -> Any:
        """Convert a raw CSV field to a typed value ('' becomes None)."""
        if text == "":
            return None
        if self is DataType.STRING:
            return text
        if self is DataType.INT:
            return int(text)
        if self is DataType.FLOAT:
            return float(text)
        if self is DataType.BOOL:
            return text.strip().lower() in ("1", "true", "t", "yes")
        raise ValueError(f"unhandled type {self!r}")  # pragma: no cover

    def parse_column(self, texts: Sequence[str]) -> Sequence[Any]:
        """:meth:`parse` over a whole column of raw fields at once.

        Cell for cell the same values (and the same ``ValueError`` on an
        untypable cell) as ``[self.parse(text) for text in texts]``,
        without the per-cell dispatch; may return ``texts`` itself when
        nothing needs converting.
        """
        if self is DataType.STRING:
            if "" in texts:
                return [text or None for text in texts]
            return texts
        if self is DataType.BOOL:
            return [self.parse(text) for text in texts]
        convert = int if self is DataType.INT else float
        if "" in texts:
            return [None if text == "" else convert(text) for text in texts]
        return list(map(convert, texts))

    def render(self, value: Any) -> str:
        """Convert a typed value back to CSV text."""
        if value is None:
            return ""
        if self is DataType.BOOL:
            return "true" if value else "false"
        if self is DataType.FLOAT:
            return repr(float(value))
        return str(value)


@dataclass(frozen=True)
class Field:
    name: str
    dtype: DataType = DataType.STRING

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("field name must be non-empty")


class Schema:
    """An ordered set of named, typed columns."""

    def __init__(self, fields: Sequence[Field]):
        self.fields: List[Field] = list(fields)
        self._index: Dict[str, int] = {}
        for position, f in enumerate(self.fields):
            key = f.name.lower()
            if key in self._index:
                raise SqlAnalysisError(f"duplicate column name: {f.name!r}")
            self._index[key] = position

    @classmethod
    def of(cls, *columns: str) -> "Schema":
        """``Schema.of("a", "b:int", "c:float")`` shorthand."""
        fields = []
        for column in columns:
            if ":" in column:
                name, _sep, type_name = column.partition(":")
                fields.append(Field(name, DataType(type_name)))
            else:
                fields.append(Field(column))
        return cls(fields)

    @property
    def names(self) -> List[str]:
        return [f.name for f in self.fields]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SqlAnalysisError(
                f"unknown column {name!r}; available: {', '.join(self.names)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._index

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    def select(self, names: Sequence[str]) -> "Schema":
        """A sub-schema of the given columns in the given order."""
        return Schema([self.field(name) for name in names])

    def parse_row(self, raw: Sequence[str]) -> Row:
        """Parse one CSV record (list of strings) into a typed row."""
        if len(raw) != len(self.fields):
            raise ValueError(
                f"row of {len(raw)} fields does not match schema of "
                f"{len(self.fields)}"
            )
        return tuple(f.dtype.parse(text) for f, text in zip(self.fields, raw))

    def render_row(self, row: Row) -> List[str]:
        return [f.dtype.render(value) for f, value in zip(self.fields, row)]

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __repr__(self) -> str:
        body = ", ".join(f"{f.name}:{f.dtype.value}" for f in self.fields)
        return f"Schema({body})"

    def to_header(self) -> str:
        """Serialize for HTTP transport (``name:type,name:type``)."""
        return ",".join(f"{f.name}:{f.dtype.value}" for f in self.fields)

    @classmethod
    def from_header(cls, text: str) -> "Schema":
        fields = []
        for chunk in text.split(","):
            name, _sep, type_name = chunk.partition(":")
            fields.append(Field(name, DataType(type_name or "string")))
        return cls(fields)
