"""Aggregate smoke: two GROUP BYs on kernels, answers judged by sqlite.

Runs two GROUP BYs over 1 M generated meter rows held as the
``ColumnBatch``es an RCF1 scan yields (dictionary segments still
coded): a low-cardinality hash aggregate over every row and Table I's
Showgraphcons (``SUBSTRING`` keys behind a two-conjunct ``LIKE``
filter).  Each must leave ``sql.kernel_refusals`` where it was -- a
refused Table I key would run interpreted, row by row -- and answer as
stdlib ``sqlite3`` does over the same rows (``tests/sqlite_oracle.py``).
The rows/s are printed, not gated: the time of a GROUP BY is what the
ledger's ``q_groupby_s`` gates, on four workloads.

    PYTHONPATH=src python -m pytest benchmarks/test_aggregate_smoke.py -q -s
"""

from __future__ import annotations

import time

import pytest

from repro.columnar.layout import encode_columnar, iter_stripe_batches
from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.gridpocket.queries import query_by_name
from repro.obs.metrics import MetricsRegistry
from repro.sql.catalyst import Optimizer, build_logical_plan
from repro.sql.executor import execute_plan
from repro.sql.parser import parse_query
from tests.sqlite_oracle import check_against_sqlite

SPEC = DatasetSpec(meters=1000, intervals=1000)
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


@pytest.mark.parametrize("name", list(QUERIES))
def test_batch_aggregate_stays_on_fused_kernels_and_agrees_with_sqlite(name, batches):
    plan = Optimizer().optimize(build_logical_plan(parse_query(QUERIES[name]), SCHEMA))
    registry = MetricsRegistry()
    start = time.perf_counter()
    _schema, result = execute_plan(plan, lambda: iter(batches), SCHEMA, registry=registry)
    seconds = time.perf_counter() - start
    assert registry.counter_total("sql.kernel_refusals") == 0
    print(f"\n{name}: {SPEC.total_rows() / seconds:,.0f} rows/s")
    assert len(result) > 1
    rows = (row for batch in batches for row in zip(*batch.columns))
    check_against_sqlite(QUERIES[name], SCHEMA, rows, result)
