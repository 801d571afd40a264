"""Aggregation pushdown: partial aggregates computed at the store.

Section IV-A defines a pushdown task broadly: "it may consist of
predicates to filter from an SQL query or a *partial computation* to be
executed on object request (e.g., aggregations, statistics)", and the
introduction motivates store-side aggregation "to facilitate the
construction of graphs from a large dataset".

:class:`AggregatingStorlet` evaluates a grouped aggregation over its
byte range and emits one CSV row per group with *partial* accumulator
states.  Partial states are mergeable, so the compute side only combines
tiny per-range summaries -- for aggregation-friendly queries this moves
orders of magnitude less data than even filter pushdown.

Partial-state encoding per aggregate (one or two CSV fields):

=============  ==========================================
aggregate      partial state
=============  ==========================================
sum            sum (empty when all inputs NULL)
count          count
min / max      extremum (empty when all inputs NULL)
avg            sum, count   (two fields)
first_value    flag(0/1), value  (two fields)
last_value     flag(0/1), value  (two fields)
=============  ==========================================
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.csvscan import CsvScan, render_record
from repro.sql.expressions import Aggregate, Star
from repro.sql.filters import filters_from_json
from repro.sql.functions import make_accumulator
from repro.sql.parser import parse_expression
from repro.sql.types import DataType, Row, Schema
from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletInputStream,
    StorletLogger,
    StorletOutputStream,
)

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

    def partial_width(self) -> int:
        """CSV fields per partial row: keys + per-aggregate state."""
        width = len(self.group_by)
        for name, _arg in self.aggregates:
            width += 2 if name in ("avg", "first_value", "last_value") else 1
        return width


def encode_partial_value(value: Any) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


class _PartialState:
    """Accumulators for one group at the store side."""

    def __init__(self, spec: AggregationSpec):
        self.spec = spec
        self.sums: List[Any] = []
        self.counts: List[int] = []
        self.states: List[Dict[str, Any]] = [
            {"kind": name} for name, _arg in spec.aggregates
        ]
        for state in self.states:
            kind = state["kind"]
            if kind == "avg":
                state.update(total=0.0, count=0)
            elif kind == "count":
                state.update(count=0)
            elif kind in ("first_value", "last_value"):
                state.update(seen=False, value=None)
            else:
                state.update(value=None)

    def add(self, values: Sequence[Any]) -> None:
        for state, value in zip(self.states, values):
            kind = state["kind"]
            if kind == "sum":
                if value is not None:
                    state["value"] = (
                        value
                        if state["value"] is None
                        else state["value"] + value
                    )
            elif kind == "count":
                if value is not None:
                    state["count"] += 1
            elif kind == "min":
                if value is not None and (
                    state["value"] is None or value < state["value"]
                ):
                    state["value"] = value
            elif kind == "max":
                if value is not None and (
                    state["value"] is None or value > state["value"]
                ):
                    state["value"] = value
            elif kind == "avg":
                if value is not None:
                    state["total"] += value
                    state["count"] += 1
            elif kind == "first_value":
                if not state["seen"]:
                    state["seen"] = True
                    state["value"] = value
            elif kind == "last_value":
                state["seen"] = True
                state["value"] = value

    def fields(self) -> List[str]:
        rendered: List[str] = []
        for state in self.states:
            kind = state["kind"]
            if kind == "count":
                rendered.append(str(state["count"]))
            elif kind == "avg":
                rendered.append(encode_partial_value(state["total"]))
                rendered.append(str(state["count"]))
            elif kind in ("first_value", "last_value"):
                rendered.append("1" if state["seen"] else "0")
                rendered.append(encode_partial_value(state["value"]))
            else:
                rendered.append(encode_partial_value(state["value"]))
        return rendered

    # -- typed (v2) codec -------------------------------------------------

    def typed_fields(self) -> List[List[Any]]:
        """Partial state as JSON-safe typed values (one list per
        aggregate), preserving int-vs-float exactly -- unlike the legacy
        CSV text encoding, this round-trips the accumulator types so the
        merged result matches the compute-side oracle bit for bit."""
        rendered: List[List[Any]] = []
        for state in self.states:
            kind = state["kind"]
            if kind == "count":
                rendered.append([state["count"]])
            elif kind == "avg":
                rendered.append([state["total"], state["count"]])
            elif kind in ("first_value", "last_value"):
                rendered.append([state["seen"], state["value"]])
            else:
                rendered.append([state["value"]])
        return rendered

    def merge_typed(self, fields: Sequence[Sequence[Any]]) -> None:
        """Fold another partial state (as :meth:`typed_fields`) into this
        one, mirroring the executor's accumulator semantics exactly."""
        for state, incoming in zip(self.states, fields):
            kind = state["kind"]
            if kind == "sum":
                value = incoming[0]
                if value is not None:
                    state["value"] = (
                        value
                        if state["value"] is None
                        else state["value"] + value
                    )
            elif kind == "count":
                state["count"] += int(incoming[0])
            elif kind == "min":
                value = incoming[0]
                if value is not None and (
                    state["value"] is None or value < state["value"]
                ):
                    state["value"] = value
            elif kind == "max":
                value = incoming[0]
                if value is not None and (
                    state["value"] is None or value > state["value"]
                ):
                    state["value"] = value
            elif kind == "avg":
                state["total"] += incoming[0]
                state["count"] += int(incoming[1])
            elif kind == "first_value":
                seen, value = incoming
                if seen and not state["seen"]:
                    state["seen"] = True
                    state["value"] = value
            elif kind == "last_value":
                seen, value = incoming
                if seen:
                    state["seen"] = True
                    state["value"] = value

    def typed_results(self) -> List[Any]:
        """Final aggregate values, identical to what the executor's
        accumulators would have returned over the same rows."""
        outputs: List[Any] = []
        for state in self.states:
            kind = state["kind"]
            if kind == "count":
                outputs.append(state["count"])
            elif kind == "avg":
                outputs.append(
                    state["total"] / state["count"] if state["count"] else None
                )
            else:
                outputs.append(state["value"])
        return outputs


def tagged_partial_aggregate(
    rows,
    spec: AggregationSpec,
    schema: Schema,
    max_groups: int = DEFAULT_MAX_GROUPS,
    batch_rows: int = AGG_BATCH_ROWS,
):
    """The v2 partial-aggregation record stream over typed rows.

    Yields, in a deterministic order shared by the storlet and its
    compute-side degradation twin:

    * ``("r", ordinal, row)`` inline for each row whose group did NOT
      fit in the bounded hash table (spill-to-compute) -- ``ordinal`` is
      the row's 0-based position in the filtered input stream;
    * ``("p", first_ordinal, key, states)`` per aggregated group at end
      of input, in first-seen order, where ``states`` is the group's
      :meth:`_PartialState.typed_fields`.

    A group either aggregates fully or spills fully within one input
    stream: the table fills in first-seen order, so a key seen before
    the table filled keeps accumulating while a key first seen after
    spills every one of its rows.  Key and aggregate-input expressions
    are evaluated through compile-once batch kernels
    (:func:`repro.sql.kernels.compile_group_kernels`) when every
    expression provably lowers, else row by row -- both produce
    value-identical streams.
    """
    from repro.sql.kernels import compile_group_kernels

    compiled = compile_group_kernels(
        spec.group_by, [arg for _name, arg in spec.aggregates], schema
    )
    groups: Dict[Tuple, _PartialState] = {}
    order: List[Tuple] = []
    first_seen: Dict[Tuple, int] = {}
    ordinal = 0

    def feed(key: Tuple, values: List[Any], row: Tuple):
        nonlocal ordinal
        state = groups.get(key)
        record = None
        if state is None:
            if len(groups) >= max_groups:
                record = ("r", ordinal, tuple(row))
            else:
                state = _PartialState(spec)
                groups[key] = state
                order.append(key)
                first_seen[key] = ordinal
        if state is not None:
            state.add(values)
        ordinal += 1
        return record

    if compiled is None:
        key_evals, input_evals = spec.bind(schema)
        for row in rows:
            key = tuple(evaluate(row) for evaluate in key_evals)
            values = [evaluate(row) for evaluate in input_evals]
            record = feed(key, values, row)
            if record is not None:
                yield record
    else:
        key_kernels, input_kernels = compiled
        batch: List[Tuple] = []
        rows_iter = iter(rows)
        while True:
            batch.clear()
            for row in rows_iter:
                batch.append(tuple(row))
                if len(batch) >= batch_rows:
                    break
            if not batch:
                break
            n = len(batch)
            columns = list(zip(*batch))
            key_vectors = [kernel(columns, n) for kernel in key_kernels]
            input_vectors = [kernel(columns, n) for kernel in input_kernels]
            for i in range(n):
                key = tuple(vector[i] for vector in key_vectors)
                values = [vector[i] for vector in input_vectors]
                record = feed(key, values, batch[i])
                if record is not None:
                    yield record

    for key in order:
        yield (
            "p",
            first_seen[key],
            key,
            tuple(tuple(part) for part in groups[key].typed_fields()),
        )


class AggregatingStorlet(IStorlet):
    """Grouped partial aggregation over a (range of a) CSV object.

    Parameters: ``schema`` (required), ``aggregation`` (required,
    :meth:`AggregationSpec.to_json`), optional ``filters``,
    ``range_start``/``range_len``, ``has_header``, ``delimiter``.

    Output: one CSV row per group -- group key fields followed by each
    aggregate's partial state fields.

    With ``partials=json`` the storlet switches to the v2 tagged
    protocol instead: one JSON line per :func:`tagged_partial_aggregate`
    record (typed values, so int-vs-float survives the wire), honoring
    the ``max_groups`` spill bound and the vectorized kernel path.  This
    is the protocol the integrated scheduler path
    (:class:`~repro.spark.agg_source.AggregationScanRDD`) speaks.
    """

    name = "aggstorlet"

    def invoke(
        self,
        in_streams: List[StorletInputStream],
        out_streams: List[StorletOutputStream],
        parameters: Dict[str, str],
        logger: StorletLogger,
    ) -> None:
        in_stream, out_stream = in_streams[0], out_streams[0]
        schema_text = parameters.get("schema")
        if not schema_text:
            raise StorletException("AggregatingStorlet requires 'schema'")
        if not parameters.get("aggregation"):
            raise StorletException("AggregatingStorlet requires 'aggregation'")
        schema = Schema.from_header(schema_text)
        spec = AggregationSpec.from_json(parameters["aggregation"])
        key_evals, input_evals = spec.bind(schema)
        delimiter = parameters.get("delimiter", ",")

        range_start = int(parameters.get("range_start", 0))
        range_len_text = parameters.get("range_len")
        has_header = parameters.get("has_header", "false") == "true"
        filters = ()
        if parameters.get("filters"):
            filters = filters_from_json(parameters["filters"])
        rows = CsvScan(
            in_stream.iter_chunks(),
            schema,
            delimiter,
            range_start=range_start,
            range_len=int(range_len_text) if range_len_text else None,
            skip_header=has_header and range_start == 0,
            filters=filters,
        ).rows()

        if parameters.get("partials") == "json":
            self._invoke_tagged(
                rows,
                out_stream,
                logger,
                spec=spec,
                schema=schema,
                max_groups=int(
                    parameters.get("max_groups", DEFAULT_MAX_GROUPS)
                ),
            )
            return

        groups: Dict[Tuple, _PartialState] = {}
        order: List[Tuple] = []
        rows_in = 0
        for row in rows:
            rows_in += 1
            key = tuple(evaluate(row) for evaluate in key_evals)
            state = groups.get(key)
            if state is None:
                state = _PartialState(spec)
                groups[key] = state
                order.append(key)
            state.add([evaluate(row) for evaluate in input_evals])

        for key in order:
            key_fields = [encode_partial_value(part) for part in key]
            out_stream.write(
                render_record(
                    key_fields + groups[key].fields(), delimiter
                )
            )
        out_stream.set_metadata(
            {
                "x-object-meta-storlet-rows-in": str(rows_in),
                "x-object-meta-storlet-groups-out": str(len(order)),
            }
        )
        logger.emit(
            f"aggstorlet: {rows_in} rows aggregated into {len(order)} groups"
        )
        out_stream.close()

    def _invoke_tagged(
        self,
        rows: Iterator[Row],
        out_stream: StorletOutputStream,
        logger: StorletLogger,
        *,
        spec: AggregationSpec,
        schema: Schema,
        max_groups: int,
    ) -> None:
        """The v2 path: stream tagged JSON records for the range's
        typed, filtered ``rows``."""
        partials = 0
        spilled = 0
        for record in tagged_partial_aggregate(
            rows, spec, schema, max_groups=max_groups
        ):
            if record[0] == "p":
                partials += 1
            else:
                spilled += 1
            out_stream.write(
                json.dumps(
                    [record[0], record[1], *map(_json_safe, record[2:])],
                    separators=(",", ":"),
                ).encode("utf-8")
                + b"\n"
            )
        out_stream.set_metadata(
            {
                "x-object-meta-storlet-groups-out": str(partials),
                "x-object-meta-storlet-rows-spilled": str(spilled),
            }
        )
        logger.emit(
            f"aggstorlet: {partials} partial groups, {spilled} spilled rows"
        )
        out_stream.close()


def _json_safe(value: Any) -> Any:
    """Tuples to lists for the wire (JSON has no tuple type)."""
    if isinstance(value, tuple):
        return [_json_safe(part) for part in value]
    return value


# --------------------------------------------------------------------------
# Compute-side merge of partial rows
# --------------------------------------------------------------------------


def merge_partials(
    spec: AggregationSpec,
    partial_rows: Sequence[Sequence[str]],
    key_types: Optional[Sequence[DataType]] = None,
) -> List[Tuple]:
    """Combine per-range partial rows into final aggregate rows.

    ``partial_rows`` are parsed CSV records as emitted by the storlet;
    ``key_types`` parse the group keys back to typed values (STRING when
    omitted).  Returns ``(key..., result...)`` tuples in first-seen order.
    """
    key_count = len(spec.group_by)
    merged: Dict[Tuple, List[Dict[str, Any]]] = {}
    order: List[Tuple] = []

    for record in partial_rows:
        if len(record) != spec.partial_width():
            raise ValueError(
                f"partial row of {len(record)} fields; expected "
                f"{spec.partial_width()}"
            )
        raw_key = record[:key_count]
        if key_types:
            key = tuple(
                dtype.parse(text) for dtype, text in zip(key_types, raw_key)
            )
        else:
            key = tuple(raw_key)
        states = merged.get(key)
        if states is None:
            states = [
                {"kind": name, "value": None, "total": 0.0, "count": 0,
                 "seen": False}
                for name, _arg in spec.aggregates
            ]
            merged[key] = states
            order.append(key)

        cursor = key_count
        for state in states:
            kind = state["kind"]
            if kind == "count":
                state["count"] += int(record[cursor])
                cursor += 1
            elif kind == "avg":
                total_text, count_text = record[cursor], record[cursor + 1]
                if total_text != "":
                    state["total"] += float(total_text)
                state["count"] += int(count_text)
                cursor += 2
            elif kind in ("first_value", "last_value"):
                seen = record[cursor] == "1"
                value = record[cursor + 1]
                if seen:
                    if kind == "first_value":
                        if not state["seen"]:
                            state["seen"] = True
                            state["value"] = value if value != "" else None
                    else:
                        state["seen"] = True
                        state["value"] = value if value != "" else None
                cursor += 2
            else:  # sum / min / max
                text = record[cursor]
                cursor += 1
                if text == "":
                    continue
                try:
                    value: Any = float(text)
                except ValueError:
                    value = text  # min/max over strings
                if kind == "sum":
                    state["value"] = (
                        value
                        if state["value"] is None
                        else state["value"] + value
                    )
                elif kind == "min":
                    if state["value"] is None or value < state["value"]:
                        state["value"] = value
                elif kind == "max":
                    if state["value"] is None or value > state["value"]:
                        state["value"] = value

    results = []
    for key in order:
        outputs: List[Any] = []
        for state in merged[key]:
            kind = state["kind"]
            if kind == "count":
                outputs.append(state["count"])
            elif kind == "avg":
                outputs.append(
                    state["total"] / state["count"] if state["count"] else None
                )
            else:
                outputs.append(state["value"])
        results.append(key + tuple(outputs))
    return results
