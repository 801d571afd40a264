"""Data-source filters: the wire format of a pushdown selection.

These mirror Spark SQL's ``org.apache.spark.sql.sources.Filter``
hierarchy -- the representation Catalyst hands to a
``PrunedFilteredScan`` data source.  In Scoop these filters travel
further: serialized to JSON, attached as request metadata to the object
GET, and evaluated by the CSV storlet next to the disk.

A filter means what its SQL conjunct means: a row passes where the
filter is True under three-valued logic.  A leaf on a NULL cell, a NULL
literal or an incomparable value is neither True nor False and passes
in neither polarity, and ``Not`` is SQL's NOT (``Not(EqualTo(c, v))``
is ``c <> v``: a NULL ``c`` passes neither).  This module holds the
classes and their wire format only; the one evaluator is
:class:`repro.sql.kernels.FilterMask`, which every scan runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Set

from repro.sql.errors import SqlError


class Filter:
    """Base class for source filters."""

    op = "filter"

    def references(self) -> Set[str]:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return json.dumps(self.to_dict())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Filter) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(json.dumps(self.to_dict(), sort_keys=True))


class _AttributeFilter(Filter):
    """A filter on one attribute against a constant."""

    def __init__(self, attribute: str, value: Any = None):
        self.attribute = attribute
        self.value = value

    def references(self) -> Set[str]:
        return {self.attribute.lower()}

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "attr": self.attribute, "value": self.value}


class EqualTo(_AttributeFilter):
    op = "eq"


class GreaterThan(_AttributeFilter):
    op = "gt"


class GreaterThanOrEqual(_AttributeFilter):
    op = "gte"


class LessThan(_AttributeFilter):
    op = "lt"


class LessThanOrEqual(_AttributeFilter):
    op = "lte"


class StringStartsWith(_AttributeFilter):
    op = "starts_with"


class StringEndsWith(_AttributeFilter):
    op = "ends_with"


class StringContains(_AttributeFilter):
    op = "contains"


class In(_AttributeFilter):
    op = "in"

    def __init__(self, attribute: str, values: Sequence[Any]):
        super().__init__(attribute, list(values))


class IsNull(_AttributeFilter):
    op = "is_null"

    def __init__(self, attribute: str):
        super().__init__(attribute, None)


class IsNotNull(_AttributeFilter):
    op = "is_not_null"

    def __init__(self, attribute: str):
        super().__init__(attribute, None)


class LikePattern(_AttributeFilter):
    """A general LIKE pattern (%, _).

    Spark does not push arbitrary LIKE, but Scoop's CSV storlet can
    evaluate it; the delegator decomposes prefix/suffix/contains shapes
    into the simpler filters above and uses this node for the rest.
    """

    op = "like"


class _Junction(Filter):
    """Two filters joined by ``op``."""

    def __init__(self, left: Filter, right: Filter):
        self.left = left
        self.right = right

    def references(self) -> Set[str]:
        return self.left.references() | self.right.references()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


class And(_Junction):
    op = "and"


class Or(_Junction):
    op = "or"


class Not(Filter):
    op = "not"

    def __init__(self, child: Filter):
        self.child = child

    def references(self) -> Set[str]:
        return self.child.references()

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "child": self.child.to_dict()}


_SIMPLE_CLASSES: Dict[str, type] = {
    cls.op: cls
    for cls in (
        EqualTo,
        GreaterThan,
        GreaterThanOrEqual,
        LessThan,
        LessThanOrEqual,
        StringStartsWith,
        StringEndsWith,
        StringContains,
        LikePattern,
    )
}


def filter_from_dict(payload: Dict[str, Any]) -> Filter:
    """Deserialize one filter from its dict form."""
    op = payload.get("op")
    if op in _SIMPLE_CLASSES:
        return _SIMPLE_CLASSES[op](payload["attr"], payload["value"])
    if op == "in":
        return In(payload["attr"], payload["value"])
    if op == "is_null":
        return IsNull(payload["attr"])
    if op == "is_not_null":
        return IsNotNull(payload["attr"])
    if op == "and":
        return And(
            filter_from_dict(payload["left"]), filter_from_dict(payload["right"])
        )
    if op == "or":
        return Or(
            filter_from_dict(payload["left"]), filter_from_dict(payload["right"])
        )
    if op == "not":
        return Not(filter_from_dict(payload["child"]))
    raise SqlError(f"unknown filter op in payload: {op!r}")


def filters_to_json(filters: Sequence[Filter]) -> str:
    """Serialize a conjunctive filter list for HTTP transport."""
    return json.dumps([item.to_dict() for item in filters])


def filters_from_json(text: str) -> List[Filter]:
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise SqlError("filter payload must be a JSON list")
    return [filter_from_dict(item) for item in payload]

