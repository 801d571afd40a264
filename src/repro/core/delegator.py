"""The analytics delegator: compute-side half of the cooperation.

"The main purpose of the analytics delegator is to appropriately tag
parallel object requests with the correct metadata to execute pushdown
computations at the object store" (paper Section IV-A).  Here that is
one decision per scan, taken in one place: a relation
(:class:`~repro.spark.store_source.StoreRelation`) builds the task a
query asks for and :meth:`AnalyticsDelegator.delegate` answers with the
task every partition's GET will carry -- or ``None``, and the scan
ingests plainly.  The delegator holds what can change the answer, the
placement engine (:mod:`repro.placement`, which also holds the Section
VII tenant/CPU veto), and records why each scan did or did not push
down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Union

from repro.core.pushdown import PushdownTask
from repro.obs.metrics import LOG_LENGTH, MetricsRegistry
from repro.placement.engine import (
    PlacementDecision,
    PlacementEngine,
    task_signature,
)
from repro.sql.catalyst import extract_pushdown
from repro.sql.parser import Query, parse_query
from repro.sql.types import Schema


@dataclass
class DelegationRecord:
    """One scan's pushdown decision.

    ``reason`` is a stable code: ``static`` (nobody to ask), ``noop``
    (the task discards nothing), ``veto:<code>`` (the engine's veto,
    :attr:`~repro.placement.engine.PlacementDecision.veto`),
    ``placed:object|proxy|compute`` (the engine's tier), or the switch a
    relation declined by (``pushdown_off``, ``agg_pushdown_off``).
    """

    tenant: str
    container: str
    pushed_down: bool
    reason: str
    column_count: int = 0
    filter_count: int = 0


class AnalyticsDelegator:
    """Decides, per scan, whether and where its pushdown task runs, and
    counts each decision into ``registry`` (private if not given)."""

    def __init__(
        self,
        placement: Optional[PlacementEngine] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.placement = placement
        self.registry = registry or MetricsRegistry()
        self.log: Deque[DelegationRecord] = deque(maxlen=LOG_LENGTH)

    def delegate(
        self,
        task: PushdownTask,
        tenant: str = "default",
        container: str = "",
        prefix: str = "",
        input_bytes: int = 0,
    ) -> Optional[PushdownTask]:
        """The task to send -- re-targeted at the tier chosen for it --
        or ``None`` for a plain scan.

        A no-op task is never sent (it costs the store nothing), but it
        still meets the placement engine, whose decision log counts
        every scan.
        """
        noop = task.is_noop()
        if self.placement is None:
            reason = "noop" if noop else "static"
            return self._record(tenant, container, None if noop else task, reason, task)
        decision = self._place(task, tenant, container, prefix, input_bytes)
        if noop:
            reason = "noop"
        elif decision.veto is not None:
            reason = f"veto:{decision.veto}"
        else:
            reason = f"placed:{decision.tier}"
        if noop or decision.tier == "compute":
            return self._record(tenant, container, None, reason, task)
        task.run_on = decision.tier
        return self._record(tenant, container, task, reason, task)

    def _place(
        self, task: PushdownTask, tenant: str, container: str, prefix: str, input_bytes: int
    ) -> PlacementDecision:
        """The placement engine's decision on ``task``."""
        width = len(task.schema)
        column_projection = task.columns is not None and len(task.columns) < width
        kept = 1.0
        if column_projection:
            kept *= len(task.columns) / width
        if task.filters:
            kept *= 0.5  # prior; the feedback loop refines this
        return self.placement.decide(
            signature=task_signature(container, prefix, task),
            input_bytes=input_bytes,
            kept_hint=kept,
            row_filtering=bool(task.filters),
            column_projection=column_projection,
            aggregation=task.aggregation is not None,
            tenant=tenant,
        )

    def decline(self, reason: str, tenant: str, container: str) -> None:
        """Record a scan whose relation built no task at all: one of
        its own switches (``reason``) is off."""
        self._record(tenant, container, None, reason)

    def make_task(
        self,
        query: Union[str, Query],
        schema: Schema,
        has_header: bool = False,
        delimiter: str = ",",
        tenant: str = "default",
    ) -> Optional[PushdownTask]:
        """Extract the CSV task of a query, then :meth:`delegate` it;
        None means "do not push down"."""
        if isinstance(query, str):
            query = parse_query(query)
        spec = extract_pushdown(query, schema)
        task = PushdownTask(
            schema=schema,
            columns=spec.required_columns,
            filters=spec.filters,
            has_header=has_header,
            delimiter=delimiter,
        )
        return self.delegate(task, tenant)

    def _record(
        self, tenant: str, container: str, sent, reason: str, task=None
    ) -> Optional[PushdownTask]:
        """Log and count the decision taken on ``task``; returns
        ``sent``, the task that travels (``None``: a plain scan)."""
        record = DelegationRecord(tenant, container, sent is not None, reason)
        if task is not None:
            record.column_count = len(task.columns or ())
            record.filter_count = len(task.filters)
        self.log.append(record)
        outcome = "pushed" if record.pushed_down else "plain"
        self.registry.inc("core.delegations", outcome=outcome, reason=reason)
        return sent

    def pushdown_rate(self) -> float:
        if not self.log:
            return 0.0
        return sum(1 for record in self.log if record.pushed_down) / len(self.log)
