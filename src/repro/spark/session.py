"""SparkSession: SQL entry point, catalog and the pushdown planner.

``session.sql(...)`` is where the paper's flow (Section V-B) comes
together: Catalyst extracts projection and selection filters from the
query, the planner calls the richest Data Sources API flavor the
relation supports, the relation's scan RDD issues (possibly tagged)
parallel GETs, and the executor -- the one plan pipeline,
:func:`repro.sql.executor.execute_plan` -- runs whatever part of the
query was not pushed down over the returned batches (under GROUP-BY
pushdown, over the store's partial states).
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.core.agg_pushdown import plan_aggregation_pushdown
from repro.sql.catalyst import (
    LogicalPlan,
    Optimizer,
    PushdownSpec,
    build_logical_plan,
    extract_pushdown,
)
from repro.sql.errors import SqlAnalysisError
from repro.sql.executor import execute_plan
from repro.sql.parser import Query, parse_query
from repro.sql.types import Row, Schema
from repro.spark.dataframe import DataFrame
from repro.spark.datasources import (
    BaseRelation,
    PrunedFilteredScan,
    PrunedScan,
    TableScan,
)
from repro.spark.rdd import RDD
from repro.spark.scheduler import SparkContext


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
        registry = self.context.registry
        for disposition, count in (
            ("handled", len(spec.handled)),
            ("unhandled", len(spec.unhandled)),
            ("residual", len(spec.conjuncts) - len(spec.filters)),
        ):
            if count:
                registry.inc("sql.filters", count, disposition=disposition)

        scan_schema = _scan_schema(relation, base_schema, spec)
        plan = _logical_plan(query, spec, scan_schema)
        partials = self._aggregation_scan(relation, plan, spec)
        if partials is not None:
            # GROUP-BY pushdown: the same plan, its Aggregate fed the
            # store's partial states.
            registry.inc("sql.queries", path="agg_pushdown")
            return execute_plan(
                plan,
                lambda: chain.from_iterable(self.context.iter_batches(partials)),
                base_schema,
                partials=True,
                registry=registry,
            )
        rdd = self._plan_scan(relation, spec)
        # The scan streams: the executor pulls batches through the
        # scheduler on demand, so non-blocking plans (scan/filter/project/
        # limit) never materialize a partition, and a satisfied LIMIT
        # stops the remaining tasks -- and their GETs -- entirely.
        # Every scan yields ColumnBatch objects that flow through the
        # scheduler untouched, and the executor runs compile-once
        # kernels over them.
        registry.inc("sql.queries", path="batch")
        return execute_plan(
            plan, lambda: self.context.iter_batches(rdd), scan_schema, registry=registry
        )

    def _aggregation_scan(
        self, relation: BaseRelation, plan: LogicalPlan, spec: PushdownSpec
    ) -> Optional[RDD]:
        """The GROUP-BY pushdown scan for ``plan``, when there is one.

        The relation must offer ``build_aggregation_scan`` (and not
        decline it -- its switch and the placement engine both can) and the gate
        (:func:`~repro.core.agg_pushdown.plan_aggregation_pushdown`) must
        hand back a spec; otherwise the ordinary scan computes the same
        answer compute-side.
        """
        builder = getattr(relation, "build_aggregation_scan", None)
        if builder is None:
            return None
        aggregation = plan_aggregation_pushdown(plan, spec)
        if isinstance(aggregation, str):
            return None
        return builder(aggregation, spec.filters)

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
        # What GROUP-BY pushdown makes of the query, asked without
        # building a scan: no delegation is recorded, no tier chosen.
        aggregation = plan_aggregation_pushdown(plan, spec)
        if not isinstance(aggregation, str):
            if getattr(relation, "aggregates_at_store", False):
                calls = ", ".join(f"{name}({arg})" for name, arg in aggregation.aggregates)
                aggregation = (
                    f"eligible keys=[{', '.join(aggregation.group_by)}] "
                    f"aggregates=[{calls}]"
                )
            else:
                aggregation = "agg_pushdown_off"
        return (
            f"== Logical plan ==\n{plan.describe()}\n"
            f"== Data source ==\n{type(relation).__name__} via {flavor}\n"
            f"== Pushdown ==\n{spec.describe()}\n"
            f"== Aggregation pushdown ==\n{aggregation}"
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
