"""Aggregate throughput gate: group-at-a-time batches vs the row executor.

Runs two GROUP BYs over 1 M generated meter rows held as the
``ColumnBatch``es an RCF1 scan yields (dictionary segments still
coded): a low-cardinality hash aggregate over every row and Table I's
Showgraphcons (``SUBSTRING`` keys behind a two-conjunct ``LIKE``
filter).  ``execute_plan_batches`` must answer each at no less than 3x
the rows/s of ``execute_plan`` over the same rows with ``==`` results --
so a per-row accumulate loop, a refused Table I key or an expanded
dictionary cannot quietly come back on the compute side.

    PYTHONPATH=src python -m pytest benchmarks/test_aggregate_smoke.py -q -s
"""

from __future__ import annotations

import time

import pytest

from repro.columnar.layout import encode_columnar, iter_stripe_batches
from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.gridpocket.queries import query_by_name
from repro.obs.metrics import get_registry
from repro.sql.catalyst import Optimizer, build_logical_plan
from repro.sql.executor import execute_plan, execute_plan_batches
from repro.sql.parser import parse_query

SPEC = DatasetSpec(meters=1000, intervals=1000)
REQUIRED_RATIO = 3.0
QUERIES = {
    "groupby": (
        "SELECT city, count(*), max(code), sum(index) FROM t "
        "GROUP BY city ORDER BY city"
    ),
    "showgraphcons": query_by_name("Showgraphcons").sql("t"),
}


#: The columns the two queries reference: what a pruned scan would read.
SCHEMA = METER_SCHEMA.select(["vid", "date", "index", "code", "city"])


@pytest.fixture(scope="module")
def batches():
    data = encode_columnar(METER_SCHEMA, MeterDataGenerator(SPEC).rows(), 8192)
    return list(iter_stripe_batches(data, columns=SCHEMA.names))


def _best_of(call, repeats: int = 3):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.parametrize("name", list(QUERIES))
def test_batch_aggregate_is_3x_the_row_executor_and_identical(name, batches):
    plan = Optimizer().optimize(build_logical_plan(parse_query(QUERIES[name]), SCHEMA))
    rows = SPEC.total_rows()
    refused = get_registry().counter_total("sql.kernel_refusals")
    fast_s, result = _best_of(
        lambda: execute_plan_batches(plan, lambda: iter(batches), SCHEMA)
    )
    assert get_registry().counter_total("sql.kernel_refusals") == refused
    # The same cells, already typed: the row executor pays for its row
    # tuples (as it would over any scan) but for no parsing.
    slow_s, expected = _best_of(
        lambda: execute_plan(
            plan,
            lambda: (row for batch in batches for row in zip(*batch.columns)),
            SCHEMA,
        )
    )
    ratio = slow_s / fast_s
    print(f"\n{name}: batches {rows / fast_s:,.0f} rows/s")
    print(f"{name}: rows    {rows / slow_s:,.0f} rows/s")
    print(f"{name}: ratio   {ratio:.2f}x")
    assert result == expected and len(expected[1]) > 1
    assert ratio >= REQUIRED_RATIO, (
        f"{name}: batch aggregate only {ratio:.2f}x the row executor"
    )
