"""Tests for the task scheduler's metrics and streaming."""

import pytest

from repro.spark import SparkContext

from tests.fake_rdd import FakeRDD, rows_of, split_evenly


@pytest.fixture
def sc():
    return SparkContext("test", num_workers=3)


class TestSchedulerMetrics:
    def test_tasks_round_robin_over_workers(self, sc):
        rows_of(sc.iter_batches(FakeRDD(sc, split_evenly(list(range(9)), 9))))
        counts = sc.tasks_per_worker()
        assert sum(counts.values()) == 9
        assert all(count == 3 for count in counts.values())

    def test_task_log_records_rows(self, sc):
        rows_of(sc.iter_batches(FakeRDD(sc, split_evenly(list(range(10)), 2))))
        assert [m.rows for m in sc.task_log] == [5, 5]

    def test_reset_metrics(self, sc):
        rows_of(sc.iter_batches(FakeRDD(sc, [[1]])))
        sc.reset_metrics()
        assert not sc.task_log
        assert not sc.stage_log


class TestStreaming:
    def test_a_job_computes_nothing_until_pulled(self, sc):
        rdd = FakeRDD(sc, [[1, 2, 3]])
        stream = sc.iter_batches(rdd)
        assert not rdd.attempts  # nothing computed yet
        assert rows_of(stream) == [(1,), (2,), (3,)]
        assert rdd.attempts == {0: 1}

    def test_an_early_exit_stops_the_remaining_partitions(self, sc):
        rdd = FakeRDD(sc, split_evenly(list(range(100)), 10), cut=5)
        stream = sc.iter_batches(rdd)
        assert next(stream).rows == tuple((value,) for value in range(5))
        stream.close()
        # Only the first partition was computed.
        assert rdd.attempts == {0: 1}
