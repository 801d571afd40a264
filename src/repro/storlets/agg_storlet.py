"""Aggregation pushdown: partial aggregates computed at the store.

Section IV-A defines a pushdown task broadly: "it may consist of
predicates to filter from an SQL query or a *partial computation* to be
executed on object request (e.g., aggregations, statistics)", and the
introduction motivates store-side aggregation "to facilitate the
construction of graphs from a large dataset".

:class:`AggregatingStorlet` evaluates a grouped aggregation over its
byte range and emits one JSON line per group carrying the *state* of the
executor's own accumulators (:mod:`repro.sql.functions`).  States merge,
and SUM / AVG are exact sums rounded once, so the compute side only
combines tiny per-range summaries and still answers exactly what it
would have computed from the rows -- for aggregation-friendly queries
this moves orders of magnitude less data than even filter pushdown.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.csvscan import CsvScan
from repro.sql.filters import filters_from_json
from repro.sql.functions import Accumulator, make_accumulator
from repro.sql.parser import parse_expression
from repro.sql.types import Schema
from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletInputStream,
    StorletLogger,
)
from repro.storlets.csv_storlet import _coalesce

MERGEABLE_AGGREGATES = (
    "sum",
    "count",
    "min",
    "max",
    "avg",
    "first_value",
    "last_value",
)

#: Default bound on the storlet-side group hash table.  Groups beyond
#: the bound are not aggregated at the store: their rows pass through
#: as tagged raw records and the compute side folds them in (the
#: spill-to-compute fallback, bounding storlet memory to O(max_groups)).
DEFAULT_MAX_GROUPS = 4096

#: Rows buffered per kernel batch on the vectorized path.
AGG_BATCH_ROWS = 512


class AggregationSpec:
    """A serializable grouped-aggregation task.

    ``group_by`` and aggregate arguments are expression strings in the
    SQL dialect (so ``SUBSTRING(date, 0, 7)`` works); ``aggregates`` is a
    list of ``(function_name, argument_expression)`` pairs where the
    argument ``"*"`` means COUNT(*)-style input.
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

    # -- binding -----------------------------------------------------------

    def bind(self, schema: Schema):
        key_evals = [
            parse_expression(text).bind(schema) for text in self.group_by
        ]
        input_evals = []
        for _name, arg in self.aggregates:
            if arg.strip() == "*":
                input_evals.append(lambda row: 1)
            else:
                input_evals.append(parse_expression(arg).bind(schema))
        return key_evals, input_evals

    def accumulators(self) -> List[Accumulator]:
        """Fresh state for one group, one accumulator per aggregate."""
        return [make_accumulator(name) for name, _arg in self.aggregates]


def tagged_partial_aggregate(
    rows,
    spec: AggregationSpec,
    schema: Schema,
    max_groups: int = DEFAULT_MAX_GROUPS,
    batch_rows: int = AGG_BATCH_ROWS,
):
    """The partial-aggregation record stream over typed rows.

    Yields, in a deterministic order shared by the storlet and its
    compute-side degradation twin:

    * ``("r", ordinal, row)`` inline for each row whose group did NOT
      fit in the bounded hash table (spill-to-compute) -- ``ordinal`` is
      the row's 0-based position in the filtered input stream;
    * ``("p", first_ordinal, key, states)`` per aggregated group at end
      of input, in first-seen order, where ``states`` holds each
      accumulator's JSON-safe ``state()``.

    A group either aggregates fully or spills fully within one input
    stream: the table fills in first-seen order, so a key seen before
    the table filled keeps accumulating while a key first seen after
    spills every one of its rows.  Rows are taken ``batch_rows`` at a
    time: key and aggregate-input vectors come from compile-once batch
    kernels (:func:`repro.sql.kernels.compile_group_kernels`) and
    :class:`repro.sql.grouping.GroupTable` -- the executor's table,
    bounded here -- accumulates them a group at a time.  The stream is
    the one feeding every row to its group's accumulators in turn would
    produce.
    """
    from repro.sql.grouping import GroupTable
    from repro.sql.kernels import compile_group_kernels

    key_kernels, input_kernels = compile_group_kernels(
        spec.group_by, [arg for _name, arg in spec.aggregates], schema
    )
    table = GroupTable(spec.accumulators, max_groups)
    rows_iter = iter(rows)
    while batch := [tuple(row) for row in itertools.islice(rows_iter, batch_rows)]:
        n = len(batch)
        columns = list(zip(*batch))
        first = table.rows
        spilled = table.add_batch(
            [kernel(columns, n) for kernel in key_kernels],
            [None if kernel is None else kernel(columns, n) for kernel in input_kernels],
            n,
        )
        for position in spilled:
            yield ("r", first + position, batch[position])

    for key, accumulators in table.groups.items():
        yield (
            "p",
            table.first_seen[key],
            key,
            tuple(accumulator.state() for accumulator in accumulators),
        )


class AggregatingStorlet(IStorlet):
    """Grouped partial aggregation over a (range of a) CSV object.

    Parameters: ``schema`` (required), ``aggregation`` (required,
    :meth:`AggregationSpec.to_json`), optional ``filters``,
    ``range_start``/``range_len``, ``has_header``, ``delimiter`` and
    ``max_groups`` (the spill bound).

    Output: one JSON line per :func:`tagged_partial_aggregate` record
    (typed values, so int-vs-float and NULL keys survive the wire).
    Spilled rows leave as they are met and group states when the range
    ends, so the storlet holds at most ``max_groups`` groups and one
    output chunk.  This is the protocol
    :class:`~repro.spark.agg_source.AggregationScanRDD` speaks.
    """

    name = "aggstorlet"

    OUTPUT_CHUNK = 64 * 1024

    def process(
        self,
        in_stream: StorletInputStream,
        parameters: Dict[str, str],
        logger: StorletLogger,
        metadata: Dict[str, str],
    ) -> Iterator[bytes]:
        schema_text = parameters.get("schema")
        if not schema_text:
            raise StorletException("AggregatingStorlet requires 'schema'")
        if not parameters.get("aggregation"):
            raise StorletException("AggregatingStorlet requires 'aggregation'")
        schema = Schema.from_header(schema_text)
        spec = AggregationSpec.from_json(parameters["aggregation"])

        range_start = int(parameters.get("range_start", 0))
        range_len_text = parameters.get("range_len")
        has_header = parameters.get("has_header", "false") == "true"
        filters = ()
        if parameters.get("filters"):
            filters = filters_from_json(parameters["filters"])
        rows = CsvScan(
            in_stream.iter_chunks(),
            schema,
            parameters.get("delimiter", ","),
            range_start=range_start,
            range_len=int(range_len_text) if range_len_text else None,
            skip_header=has_header and range_start == 0,
            filters=filters,
        ).rows()

        counts = {"p": 0, "r": 0}

        def lines() -> Iterator[bytes]:
            for record in tagged_partial_aggregate(
                rows,
                spec,
                schema,
                max_groups=int(
                    parameters.get("max_groups", DEFAULT_MAX_GROUPS)
                ),
            ):
                counts[record[0]] += 1
                yield json.dumps(record, separators=(",", ":")).encode(
                    "utf-8"
                ) + b"\n"

        yield from _coalesce(lines(), self.OUTPUT_CHUNK)
        metadata.update(
            {
                "x-object-meta-storlet-groups-out": str(counts["p"]),
                "x-object-meta-storlet-rows-spilled": str(counts["r"]),
            }
        )
        logger.emit(
            f"aggstorlet: {counts['p']} partial groups, "
            f"{counts['r']} spilled rows"
        )
