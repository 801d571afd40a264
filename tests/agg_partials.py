"""GROUP-BY pushdown's two entry points, driven from SQL text.

The session plans a query once and asks the gate
(:func:`repro.core.agg_pushdown.plan_aggregation_pushdown`) about that
plan; the executor then runs the same plan over the scan's tagged
records (``execute_plan(..., partials=True)``).  These helpers do the
same for a query over ``schema`` without a session, so tests can feed
hand-made or storlet-made records straight in.
"""

from repro.core.agg_pushdown import plan_aggregation_pushdown
from repro.spark.session import _logical_plan
from repro.sql.catalyst import extract_pushdown
from repro.sql.executor import execute_plan
from repro.sql.parser import parse_query


def planned(sql, schema, source=None):
    """``(plan, pushdown)`` as the session builds them."""
    query = parse_query(sql)
    pushdown = extract_pushdown(query, schema, source)
    return _logical_plan(query, pushdown, schema), pushdown


def gate(sql, schema, source=None):
    """The gate's answer: an ``AggregationSpec`` or a refusal code."""
    return plan_aggregation_pushdown(*planned(sql, schema, source))


def execute_partials(sql, schema, records):
    """``(schema, rows)`` of ``sql`` with its Aggregate fed ``records``
    (split-stamped, as the scan yields them)."""
    plan, _pushdown = planned(sql, schema)
    return execute_plan(plan, lambda: records, schema, partials=True)
