"""Partial aggregation: the one stage GROUP-BY pushdown runs.

Section IV-A defines a pushdown task broadly: "it may consist of
predicates to filter from an SQL query or a *partial computation* to be
executed on object request (e.g., aggregations, statistics)", and the
introduction motivates store-side aggregation "to facilitate the
construction of graphs from a large dataset".

A task may carry an ``aggregation`` (:meth:`AggregationSpec.to_json`).
The format's own storlet then scans as it always does -- framing,
filters, projection to the columns the spec reads -- and hands the
batches it keeps, dictionary codes intact, to :func:`partial_aggregate`
instead of rendering them: the response is one JSON line per record
(:func:`partial_lines`), each carrying the *state* of the executor's
own accumulators (:mod:`repro.sql.functions`).  The compute side runs
the same stage over the same batches read plainly when a storlet fails
(:class:`~repro.spark.store_source.AggregationScanRDD`).  States merge,
and SUM / AVG are exact sums rounded once, so the executor only
combines tiny per-range summaries and still answers exactly what it
would have computed from the rows.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.columnar.batch import ColumnBatch
from repro.sql.functions import Accumulator, make_accumulator
from repro.sql.grouping import GroupTable
from repro.sql.kernels import compile_expression
from repro.sql.parser import parse_expression
from repro.sql.types import Schema
from repro.storlets.api import StorletException

MERGEABLE_AGGREGATES = (
    "sum",
    "count",
    "min",
    "max",
    "avg",
    "first_value",
    "last_value",
)

#: Default bound on the store-side group hash table.  A row whose group
#: is not admitted leaves as the states it alone leaves, so store memory
#: stays O(max_groups) whatever the key cardinality.
DEFAULT_MAX_GROUPS = 4096


class AggregationSpec:
    """A serializable grouped-aggregation task.

    ``group_by`` and aggregate arguments are expression strings in the
    SQL dialect (so ``SUBSTRING(date, 0, 7)`` works); ``aggregates`` is a
    list of ``(function_name, argument_expression)`` pairs where the
    argument ``"*"`` means COUNT(*)-style input.  A query's spec is cut
    from its plan's Aggregate
    (:func:`~repro.core.agg_pushdown.plan_aggregation_pushdown`), one
    pair per accumulator of the executor's, in the same order.
    """

    def __init__(
        self,
        group_by: Sequence[str],
        aggregates: Sequence[Tuple[str, str]],
    ):
        self.group_by = list(group_by)
        self.aggregates = [(name.lower(), arg) for name, arg in aggregates]
        for name, _arg in self.aggregates:
            if name not in MERGEABLE_AGGREGATES:
                raise StorletException(
                    f"aggregate {name!r} has no mergeable partial state"
                )

    def to_json(self) -> str:
        return json.dumps(
            {"group_by": self.group_by, "aggregates": self.aggregates}
        )

    @classmethod
    def from_json(cls, text: str) -> "AggregationSpec":
        payload = json.loads(text)
        return cls(
            payload["group_by"],
            [tuple(pair) for pair in payload["aggregates"]],
        )

    def accumulators(self) -> List[Accumulator]:
        """Fresh state for one group, one accumulator per aggregate."""
        return [make_accumulator(name) for name, _arg in self.aggregates]

    def columns(self, schema: Schema) -> List[str]:
        """The columns of ``schema`` the keys and the arguments read, in
        schema order (none for a global ``COUNT(*)``)."""
        read = set()
        for text in self.group_by + [arg for _name, arg in self.aggregates]:
            if text.strip() != "*":
                read |= parse_expression(text).columns()
        return [name for name in schema.names if name.lower() in read]


def partial_aggregate(
    batches: Iterable[ColumnBatch],
    spec: AggregationSpec,
    schema: Schema,
    max_groups: int = DEFAULT_MAX_GROUPS,
) -> Iterator[Tuple[int, tuple, tuple]]:
    """The partial-aggregation records of the rows of ``batches``
    (``ColumnBatch``es of ``schema``, carriers as the reader made them).

    Every record is ``(ordinal, key, states)``: ``states`` holds each
    accumulator's JSON-safe ``state()`` and ``ordinal`` is the 0-based
    position, over the rows fed, of the row that made ``key`` a group.
    The table is bounded by ``max_groups`` and fills in first-seen
    order, so a key either aggregates fully or spills fully:

    * a key met while there was room leaves one record when the input
      ends, the groups in first-seen order;
    * a key first met after the table filled spills every one of its
      rows, each as the record of the states that row alone leaves,
      inline as it is met.

    Key and argument vectors come from compile-once batch kernels and
    :class:`~repro.sql.grouping.GroupTable` -- the executor's table,
    bounded here -- accumulates them a group at a time.  The stream is
    the one feeding every row to its group's accumulators in turn would
    produce, however the rows are cut into batches.
    """
    key_kernels = [compile_expression(parse_expression(text), schema) for text in spec.group_by]
    # COUNT(*) has no input vector: the group table counts rows.
    input_kernels = [
        None if arg.strip() == "*" else compile_expression(parse_expression(arg), schema)
        for _name, arg in spec.aggregates
    ]
    table = GroupTable(spec.accumulators, max_groups)
    for batch in batches:
        n, columns = len(batch), batch.columns
        if not n:
            continue
        first = table.rows
        keys = [kernel(columns, n) for kernel in key_kernels]
        inputs = [None if kernel is None else kernel(columns, n) for kernel in input_kernels]
        for position in table.add_batch(keys, inputs, n):
            accumulators = spec.accumulators()
            for accumulator, vector in zip(accumulators, inputs):
                accumulator.add(1 if vector is None else vector[position])
            yield (
                first + position,
                tuple(vector[position] for vector in keys),
                tuple(accumulator.state() for accumulator in accumulators),
            )
    for key, accumulators in table.groups.items():
        yield (
            table.first_seen[key],
            key,
            tuple(accumulator.state() for accumulator in accumulators),
        )


def partial_lines(
    batches: Iterable[ColumnBatch], parameters: Dict[str, str], schema: Schema
) -> Iterator[bytes]:
    """A storlet's response to a task carrying an ``aggregation``: the
    :func:`partial_aggregate` records over ``batches`` (bounded by the
    optional ``max_groups`` parameter), one compact JSON array per line
    -- typed values, so int-vs-float and NULL keys survive the wire."""
    spec = AggregationSpec.from_json(parameters["aggregation"])
    max_groups = int(parameters.get("max_groups", DEFAULT_MAX_GROUPS))
    return (
        json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
        for record in partial_aggregate(batches, spec, schema, max_groups)
    )
