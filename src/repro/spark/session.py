"""SparkSession: SQL entry point, catalog and the pushdown planner.

``session.sql(...)`` is where the paper's flow (Section V-B) comes
together: Catalyst extracts projection and selection filters from the
query, the planner calls the richest Data Sources API flavor the
relation supports, the relation's scan RDD issues (possibly tagged)
parallel GETs, and the executor -- the one plan pipeline,
:func:`repro.sql.executor.execute_plan` -- runs whatever part of the
query was not pushed down over the returned batches.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.agg_pushdown import (
    merge_tagged_records,
    plan_aggregation_pushdown,
)
from repro.obs.metrics import get_registry
from repro.sql.catalyst import (
    Optimizer,
    PushdownSpec,
    build_logical_plan,
    extract_pushdown,
)
from repro.sql.errors import SqlAnalysisError
from repro.sql.executor import execute_plan
from repro.sql.parser import Query, parse_query
from repro.sql.types import Row, Schema
from repro.spark.columnar_source import ColumnarRelation
from repro.spark.csv_source import CsvRelation
from repro.spark.dataframe import DataFrame
from repro.spark.datasources import (
    BaseRelation,
    PrunedFilteredScan,
    PrunedScan,
    TableScan,
    lookup_provider,
    register_provider,
)
from repro.spark.rdd import RDD
from repro.spark.scheduler import SparkContext


class DataFrameReader:
    """``session.read.format("csv").option(...).load(container)``."""

    def __init__(self, session: "SparkSession"):
        self.session = session
        self._format = "csv"
        self._options: Dict[str, Any] = {}

    def format(self, format_name: str) -> "DataFrameReader":
        self._format = format_name
        return self

    def option(self, key: str, value: Any) -> "DataFrameReader":
        self._options[key] = value
        return self

    def options(self, **kwargs: Any) -> "DataFrameReader":
        self._options.update(kwargs)
        return self

    def load(self, path: str) -> DataFrame:
        provider = lookup_provider(self._format)
        relation = provider(
            self.session, path, dict(self._options)
        )
        name = f"__{self._format}_{path.strip('/').replace('/', '_')}"
        self.session.register_table(name, relation)
        return DataFrame(self.session, name)


class SparkSession:
    """Driver entry point pairing a context with a relation catalog.

    ``parallelism`` sets the scheduler's task-pool size (how many
    partition tasks of one stage run concurrently); with an existing
    ``context`` it overrides that context's setting, otherwise it is
    passed to the freshly created :class:`SparkContext`.  Results are
    deterministically ordered at any parallelism (see
    :mod:`repro.spark.scheduler`).
    """

    def __init__(
        self,
        context: Optional[SparkContext] = None,
        parallelism: Optional[int] = None,
    ):
        if context is None:
            context = SparkContext(parallelism=parallelism or 1)
        elif parallelism is not None:
            if parallelism < 1:
                raise ValueError(
                    f"parallelism must be >= 1: {parallelism}"
                )
            context.parallelism = parallelism
        self.context = context
        self._catalog: Dict[str, BaseRelation] = {}
        self.last_pushdown: Optional[PushdownSpec] = None

    @property
    def parallelism(self) -> int:
        return self.context.parallelism

    @property
    def read(self) -> DataFrameReader:
        return DataFrameReader(self)

    # -- catalog -----------------------------------------------------------

    def register_table(self, name: str, relation: BaseRelation) -> None:
        self._catalog[name.lower()] = relation

    def table_names(self) -> List[str]:
        return sorted(self._catalog)

    def relation(self, name: str) -> BaseRelation:
        relation = self._catalog.get(name.lower())
        if relation is None:
            raise SqlAnalysisError(
                f"table or view not found: {name!r} "
                f"(registered: {self.table_names()})"
            )
        return relation

    # -- SQL -------------------------------------------------------------------

    def sql(self, text: str) -> DataFrame:
        query = parse_query(text)
        return DataFrame(self, query.table, query)

    def table(self, name: str) -> DataFrame:
        self.relation(name)  # validate
        return DataFrame(self, name)

    # -- the planner -----------------------------------------------------------------

    def execute_query_object(self, query: Query) -> Tuple[Schema, List[Row]]:
        relation = self.relation(query.table)
        base_schema = relation.schema()
        spec = extract_pushdown(query, base_schema, relation)
        self.last_pushdown = spec
        registry = get_registry()
        for disposition, count in (
            ("handled", len(spec.handled)),
            ("unhandled", len(spec.unhandled)),
            ("residual", len(spec.conjuncts) - len(spec.filters)),
        ):
            if count:
                registry.inc("sql.filters", count, disposition=disposition)

        aggregated = self._try_aggregation_pushdown(query, relation, base_schema)
        if aggregated is not None:
            return aggregated

        rdd = self._plan_scan(relation, spec)
        scan_schema = _scan_schema(relation, base_schema, spec)
        plan = _logical_plan(query, spec, scan_schema)
        # The scan streams: the executor pulls batches through the
        # scheduler on demand, so non-blocking plans (scan/filter/project/
        # limit) never materialize a partition, and a satisfied LIMIT
        # stops the remaining tasks -- and their GETs -- entirely.
        # CSV and RCF1 scans yield ColumnBatch objects that flow through
        # the scheduler untouched (row-oriented RDDs' batches are
        # transposed), and the executor runs compile-once kernels over
        # them.
        registry.inc("sql.queries", path="batch")
        return execute_plan(plan, lambda: self.context.iter_batches(rdd), scan_schema)

    def _try_aggregation_pushdown(
        self, query: Query, relation: BaseRelation, base_schema: Schema
    ) -> Optional[Tuple[Schema, List[Row]]]:
        """Run the whole query via GROUP-BY pushdown, when possible.

        Three gates, all conservative: the relation must offer
        ``build_aggregation_scan`` (and not veto it -- the flag, the
        controller and the placement engine all can), the query must be
        expressible as mergeable partial states
        (:func:`~repro.core.agg_pushdown.plan_aggregation_pushdown`
        returns ``None`` otherwise), and any failure to build the scan
        falls through to the ordinary scan, which computes the same
        answer compute-side.
        """
        builder = getattr(relation, "build_aggregation_scan", None)
        if builder is None:
            return None
        plan = plan_aggregation_pushdown(query, base_schema, relation)
        if plan is None:
            return None
        rdd = builder(plan)
        if rdd is None:
            return None
        get_registry().inc("sql.queries", path="agg_pushdown")
        return merge_tagged_records(
            plan, self.context.iter_rows(rdd), base_schema
        )

    def _plan_scan(self, relation: BaseRelation, spec: PushdownSpec) -> RDD:
        """Pick the richest Data Sources API flavor the relation offers."""
        if isinstance(relation, PrunedFilteredScan):
            return relation.build_scan_filtered(spec.required_columns, spec.filters)
        if isinstance(relation, PrunedScan):
            return relation.build_scan_pruned(spec.required_columns)
        if isinstance(relation, TableScan):
            return relation.build_scan()
        raise SqlAnalysisError(
            f"relation {type(relation).__name__} implements no scan flavor"
        )

    def explain_query_object(self, query: Query) -> str:
        relation = self.relation(query.table)
        base_schema = relation.schema()
        spec = extract_pushdown(query, base_schema, relation)
        plan = _logical_plan(
            query, spec, _scan_schema(relation, base_schema, spec)
        )
        flavor = (
            "PrunedFilteredScan"
            if isinstance(relation, PrunedFilteredScan)
            else "PrunedScan"
            if isinstance(relation, PrunedScan)
            else "TableScan"
        )
        return (
            f"== Logical plan ==\n{plan.describe()}\n"
            f"== Data source ==\n{type(relation).__name__} via {flavor}\n"
            f"== Pushdown ==\n{spec.describe()}"
        )


def _scan_schema(
    relation: BaseRelation, base_schema: Schema, spec: PushdownSpec
) -> Schema:
    """The schema of the rows the chosen scan flavor returns."""
    if isinstance(relation, (PrunedFilteredScan, PrunedScan)):
        return base_schema.select(spec.required_columns)
    return base_schema


def _logical_plan(query: Query, spec: PushdownSpec, scan_schema: Schema):
    """The optimized plan over the scan's rows: its FilterNode holds
    only what the source did not answer for (none, when nothing)."""
    return Optimizer().optimize(
        build_logical_plan(replace(query, where=spec.compute_filter), scan_schema)
    )


# --------------------------------------------------------------------------
# Built-in providers
# --------------------------------------------------------------------------


def _store_provider(format_name: str, relation_class, read_options=lambda options: {}):
    """The provider of a :class:`~repro.spark.store_source.StoreRelation`
    format: ``path`` is ``container[/prefix]``; ``read_options`` maps the
    reader's options to the keywords only this format takes."""

    def provider(session: SparkSession, path: str, options: Dict[str, Any]):
        connector = options.get("connector")
        if connector is None:
            raise SqlAnalysisError(
                f"{format_name} format needs "
                "option('connector', <StocatorConnector>)"
            )
        container, _slash, prefix = path.strip("/").partition("/")
        return relation_class(
            session.context,
            connector,
            container,
            prefix=prefix,
            schema=options.get("schema"),
            pushdown=_truthy(options.get("pushdown", True)),
            **read_options(options),
        )

    return provider


def _truthy(value: Any) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return bool(value)


register_provider(
    "csv",
    _store_provider(
        "csv",
        CsvRelation,
        lambda options: {
            "has_header": _truthy(options.get("header", False)),
            "delimiter": options.get("delimiter", ","),
        },
    ),
)
register_provider("columnar", _store_provider("columnar", ColumnarRelation))
