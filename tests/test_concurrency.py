"""Concurrency: parallel execution must be byte-identical to serial.

The scheduler contract (see docs/concurrency.md) is that ``parallelism``
changes *wall-clock overlap only*: row order, transfer metrics for
full-drain queries, error choice and fault-injection decisions are all
identical at any pool size.  These tests pin that
contract directly -- including under the named chaos plans, where the
per-request fault seeds are what keep injected failures deterministic
while tasks race.
"""

from __future__ import annotations

import threading

import pytest

from repro.connector.stocator import TransferMetrics
from repro.core import ScoopContext
from repro.faults import named_plan
from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset
from repro.spark.scheduler import SparkContext

# 16 objects -> a 16-partition scan, the shape the acceptance criteria
# names (small payloads keep the matrix of stacks fast to build).
SPEC_16 = DatasetSpec(meters=24, intervals=32, objects=16)
SCAN_SQL = "SELECT vid, date, index FROM m WHERE city LIKE 'Paris'"
CHAOS_SEED = 20170417


def build_stack(parallelism: int, plan_name: str = None) -> ScoopContext:
    plan = (
        named_plan(plan_name, seed=CHAOS_SEED) if plan_name else None
    )
    ctx = ScoopContext(
        chunk_size=32 * 1024, parallelism=parallelism, fault_plan=plan
    )
    upload_dataset(ctx.client, "meters", SPEC_16)
    ctx.register_csv_table("m", "meters", schema=METER_SCHEMA)
    return ctx


class TestSchedulerParallelism:
    def test_run_job_results_stay_in_partition_order(self):
        data = list(range(200))

        def partition_lists(parallelism):
            sc = SparkContext(parallelism=parallelism)
            rdd = sc.parallelize(data, 16)
            return rdd.map_partitions(lambda it: [list(it)]).collect()

        got = partition_lists(8)
        assert got == partition_lists(1)
        assert len(got) == 16
        assert [row for part in got for row in part] == data

    def test_tasks_really_run_concurrently(self):
        # All 8 tasks must be in flight at once to pass the barrier; a
        # secretly serial scheduler breaks it and the job raises.
        sc = SparkContext(parallelism=8, max_task_attempts=1)
        barrier = threading.Barrier(8)

        def rendezvous(iterator):
            barrier.wait(timeout=10.0)
            return list(iterator)

        rdd = sc.parallelize(list(range(8)), 8).map_partitions(rendezvous)
        assert rdd.collect() == list(range(8))

    def test_failure_raises_lowest_partition_error(self):
        # Partition 9 may *finish failing* first on the wall clock, but
        # the error surfaced must be partition 4's -- the same one a
        # serial run hits.
        def explode(iterator):
            value = next(iterator)
            if value >= 4:
                raise ValueError(f"partition {value}")
            return [value]

        for parallelism in (1, 8):
            sc = SparkContext(parallelism=parallelism, max_task_attempts=1)
            rdd = sc.parallelize(list(range(16)), 16).map_partitions(explode)
            with pytest.raises(ValueError, match="partition 4"):
                rdd.collect()

    def test_iter_batches_merges_in_partition_order(self):
        data = list(range(500))
        sc = SparkContext(parallelism=8)
        rows = []
        for batch in sc.iter_batches(sc.parallelize(data, 16), batch_rows=7):
            rows.extend(batch.rows)
        assert rows == data

    def test_early_exit_cancels_inflight_producers(self):
        # A consumer abandoning the stream (satisfied LIMIT) must not
        # hang on producers blocked against their bounded queues.
        sc = SparkContext(parallelism=8)
        before = threading.active_count()
        stream = sc.iter_batches(
            sc.parallelize(list(range(2000)), 16), batch_rows=5
        )
        first = next(stream)
        stream.close()
        assert list(first.rows) == list(range(5))
        # close() joins the pool, so no stage threads may survive it.
        assert threading.active_count() == before

    def test_task_log_records_every_partition(self):
        for parallelism in (1, 8):
            sc = SparkContext(parallelism=parallelism)
            sc.parallelize(list(range(64)), 16).map_partitions(list).collect()
            by_partition = sorted(
                metrics.partition
                for metrics in sc.task_log
                if metrics.status == "success"
            )
            assert by_partition == list(range(16))


class TestSharedTierThreadSafety:
    def test_transfer_metrics_survive_a_hammering(self):
        metrics = TransferMetrics()

        def work():
            for _ in range(1000):
                metrics.record_request(7, pushdown=True)
                metrics.record_bytes(3)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.totals() == (8000, 24000, 56000, 8000, 0)

    def test_cluster_counters_survive_a_hammering(self):
        cluster = build_stack(1).cluster

        def work():
            for _ in range(1000):
                cluster.bump_counter("get_failovers")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cluster.counters["get_failovers"] == 8000


class TestScanEquivalence:
    """The acceptance bar: a 16-partition pushdown scan at parallelism 8
    returns byte-identical rows and identical transfer metrics to the
    serial run -- with and without each named fault plan injecting."""

    @pytest.mark.parametrize(
        "plan_name", [None, "flaky-object", "storlet-crash", "device-loss"]
    )
    def test_parallel_scan_matches_serial(self, plan_name):
        serial = build_stack(1, plan_name)
        serial_rows = serial.sql(SCAN_SQL).collect()
        serial_totals = serial.connector.metrics.totals()

        parallel = build_stack(8, plan_name)
        parallel_rows = parallel.sql(SCAN_SQL).collect()
        parallel_totals = parallel.connector.metrics.totals()

        assert serial_rows  # the comparison must not be vacuous
        assert parallel_rows == serial_rows
        assert parallel_totals == serial_totals
        if plan_name is not None:
            assert serial.fault_plan.fired() > 0
            assert (
                parallel.fault_plan.fingerprint()
                == serial.fault_plan.fingerprint()
            )

    @pytest.mark.parametrize("plan_name", ["flaky-object", "storlet-crash"])
    def test_resilience_summary_matches_serial(self, plan_name):
        # Retries, failovers and fallbacks are part of the determinism
        # contract for these plans (device-loss is excluded: *which*
        # requests precede the loss threshold is interleaving-dependent,
        # even though the lost device and the result rows are not).
        serial = build_stack(1, plan_name)
        serial.sql(SCAN_SQL).collect()
        parallel = build_stack(8, plan_name)
        parallel.sql(SCAN_SQL).collect()
        assert (
            parallel.resilience_summary() == serial.resilience_summary()
        )
        assert parallel.resilience_summary()["client_exhausted"] == 0

    def test_limit_query_rows_match_serial(self):
        # LIMIT drains partitions only until satisfied, so transfer
        # metrics legitimately differ -- but the rows may not.
        serial = build_stack(1)
        parallel = build_stack(8)
        sql = "SELECT vid, city FROM m LIMIT 23"
        assert parallel.sql(sql).collect() == serial.sql(sql).collect()

    def test_concurrency_summary_reports_pool_size(self):
        parallel = build_stack(8)
        parallel.sql(SCAN_SQL).collect()
        summary = parallel.concurrency_summary()
        assert summary["parallelism"] == 8
        assert summary["proxy_peak_inflight"] >= 1
