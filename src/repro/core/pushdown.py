"""The pushdown task: metadata describing work delegated to the store.

"In practice, a pushdown task is represented as a piece of metadata
attached to an object request" (paper Section IV-A).  For the Spark SQL
use case the task carries the projection column list and the selection
filters that Catalyst extracted, plus the CSV framing the storlet needs
(schema, header flag, delimiter).  The task serializes to/from the
``X-Storlet-Parameter-*`` headers the storlet middleware understands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sql.filters import Filter, filters_from_json, filters_to_json
from repro.sql.types import Schema
from repro.storlets.engine import StorletRequestHeaders


@dataclass
class PushdownTask:
    """Projection + selection to execute at the object store.

    ``columns`` is None for "all columns"; ``filters`` is a conjunctive
    list.  ``storlet`` names the deployed pushdown filter that
    understands this task (the CSV storlet by default).
    """

    schema: Schema
    columns: Optional[List[str]] = None
    filters: List[Filter] = field(default_factory=list)
    has_header: bool = False
    delimiter: str = ","
    storlet: str = "csvstorlet"
    run_on: str = "object"
    #: Pipeline a zlib compression storlet after the filter, so the
    #: filtered data crosses the network compressed (Section VI-C).
    compress: bool = False
    #: Storlet-specific parameters merged verbatim into the request
    #: (the columnar storlet's per-split stripe descriptors travel here).
    extra_parameters: Dict[str, str] = field(default_factory=dict)
    #: Partial GROUP-BY aggregation to run at the store: the serialized
    #: :class:`~repro.storlets.agg_storlet.AggregationSpec`.  The store
    #: returns accumulator states per group instead of rows -- usually
    #: orders of magnitude fewer bytes than even filter pushdown.
    aggregation: Optional[str] = None
    #: Bound on the storlet-side group hash table; groups beyond it
    #: spill their rows to the compute side (None = storlet default).
    max_groups: Optional[int] = None

    def is_noop(self) -> bool:
        """True when the task would not reduce the transfer at all."""
        if self.compress or self.aggregation is not None:
            return False
        return not self.filters and (
            self.columns is None or len(self.columns) == len(self.schema)
        )

    def pruned_schema(self) -> Schema:
        """The schema of rows coming back from the store."""
        if self.columns is None:
            return self.schema
        return self.schema.select(self.columns)

    # -- header codec ----------------------------------------------------

    def to_parameters(self) -> Dict[str, str]:
        parameters = {
            "schema": self.schema.to_header(),
            "has_header": "true" if self.has_header else "false",
        }
        if self.delimiter != ",":
            parameters["delimiter"] = self.delimiter
        if self.columns is not None and len(self.columns) < len(self.schema):
            # A projection covering every column is a no-op; omitting it
            # spares the storlet the column re-concatenation cost (the
            # row-vs-column asymmetry of Section VI-A).
            parameters["columns"] = json.dumps(self.columns)
        if self.filters:
            parameters["filters"] = filters_to_json(self.filters)
        if self.aggregation is not None:
            parameters["aggregation"] = self.aggregation
            if self.max_groups is not None:
                parameters["max_groups"] = str(self.max_groups)
        parameters.update(self.extra_parameters)
        return parameters

    def apply_to_headers(self, headers: Dict[str, str]) -> None:
        """Tag a GET request with this task (the delegator's core move)."""
        pipeline = self.storlet
        if self.compress:
            pipeline += ",zlibcompress"
        headers[StorletRequestHeaders.RUN] = pipeline
        headers[StorletRequestHeaders.RUN_ON] = self.run_on
        StorletRequestHeaders.set_parameters(headers, self.to_parameters())

    @classmethod
    def from_parameters(
        cls,
        parameters: Dict[str, str],
        storlet: str = "csvstorlet",
        run_on: str = "object",
        compress: bool = False,
    ) -> "PushdownTask":
        schema = Schema.from_header(parameters["schema"])
        columns = None
        if "columns" in parameters:
            columns = json.loads(parameters["columns"])
        filters: List[Filter] = []
        if "filters" in parameters:
            filters = filters_from_json(parameters["filters"])
        max_groups = None
        if "max_groups" in parameters:
            max_groups = int(parameters["max_groups"])
        return cls(
            schema=schema,
            columns=columns,
            filters=filters,
            has_header=parameters.get("has_header", "false") == "true",
            delimiter=parameters.get("delimiter", ","),
            storlet=storlet,
            run_on=run_on,
            compress=compress,
            aggregation=parameters.get("aggregation"),
            max_groups=max_groups,
        )

    @classmethod
    def from_headers(cls, headers: Dict[str, str]) -> "PushdownTask":
        """Decode the task a request was tagged with -- the exact inverse
        of :meth:`apply_to_headers`.

        ``run_on`` and ``compress`` live in the storlet headers (the
        run-on header and the ``,zlibcompress`` pipeline suffix), not in
        the parameters, so decoding only the parameters used to lose
        them; this reads all three header groups.
        """
        lowered = {key.lower(): value for key, value in headers.items()}
        pipeline = lowered.get(StorletRequestHeaders.RUN, "")
        names = [name.strip() for name in pipeline.split(",") if name.strip()]
        compress = "zlibcompress" in names
        storlet = next(
            (name for name in names if name != "zlibcompress"), "csvstorlet"
        )
        run_on = lowered.get(StorletRequestHeaders.RUN_ON, "object")
        parameters = StorletRequestHeaders.parameters_from(lowered)
        return cls.from_parameters(
            parameters, storlet=storlet, run_on=run_on, compress=compress
        )

    def describe(self) -> str:
        columns = "*" if self.columns is None else ",".join(self.columns)
        return (
            f"PushdownTask(storlet={self.storlet}, columns=[{columns}], "
            f"filters={len(self.filters)}, run_on={self.run_on})"
        )
