"""The analytics delegator: compute-side half of the cooperation.

"The main purpose of the analytics delegator is to appropriately tag
parallel object requests with the correct metadata to execute pushdown
computations at the object store" (paper Section IV-A).  In the Spark
SQL instantiation the tagging itself happens inside the CSV scan RDD
(every partition's GET carries the task); this class builds the task
from a query, consults the adaptive controller about whether pushing
down is worthwhile right now, and keeps per-tenant delegation stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.policies import AdaptivePushdownController, PushdownDecision
from repro.core.pushdown import PushdownTask
from repro.sql.catalyst import extract_pushdown
from repro.sql.parser import Query, parse_query
from repro.sql.types import Schema


@dataclass
class DelegationRecord:
    tenant: str
    query: str
    pushed_down: bool
    reason: str
    column_count: int
    filter_count: int


class AnalyticsDelegator:
    """Builds pushdown tasks and decides whether to delegate them."""

    def __init__(
        self,
        controller: Optional[AdaptivePushdownController] = None,
        storlet_name: str = "csvstorlet",
        run_on: str = "object",
    ):
        self.controller = controller
        self.storlet_name = storlet_name
        self.run_on = run_on
        self.log: List[DelegationRecord] = []

    def make_task(
        self,
        query: Union[str, Query],
        schema: Schema,
        has_header: bool = False,
        delimiter: str = ",",
        tenant: str = "default",
    ) -> Optional[PushdownTask]:
        """Extract a task from a query; None means "do not push down".

        The decision is None when the extraction yields a no-op task
        (nothing to discard) or when the adaptive controller vetoes the
        delegation for this tenant under current storage load.
        """
        if isinstance(query, str):
            query = parse_query(query)
        spec = extract_pushdown(query, schema)
        task = PushdownTask(
            schema=schema,
            columns=spec.required_columns,
            filters=spec.filters,
            has_header=has_header,
            delimiter=delimiter,
            storlet=self.storlet_name,
            run_on=self.run_on,
        )

        if task.is_noop():
            self._record(tenant, query, False, "no-op task", task)
            return None

        if self.controller is not None:
            decision = self.controller.decide(tenant, task)
            if not decision.push_down:
                self._record(tenant, query, False, decision.reason, task)
                return None
            self._record(tenant, query, True, decision.reason, task)
        else:
            self._record(tenant, query, True, "static policy", task)
        return task

    def _record(
        self,
        tenant: str,
        query: Query,
        pushed: bool,
        reason: str,
        task: PushdownTask,
    ) -> None:
        self.log.append(
            DelegationRecord(
                tenant=tenant,
                query=query.to_sql(),
                pushed_down=pushed,
                reason=reason,
                column_count=0 if task.columns is None else len(task.columns),
                filter_count=len(task.filters),
            )
        )

    def pushdown_rate(self) -> float:
        if not self.log:
            return 0.0
        return sum(1 for record in self.log if record.pushed_down) / len(self.log)
