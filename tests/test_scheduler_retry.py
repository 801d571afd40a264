"""Task-level retry and worker blacklisting, on the one task runner:
the flaky function rides in with ``map_partitions`` and ``collect()``
drains the stream."""

import pytest

from repro.spark.scheduler import SparkContext


class FlakyIterator:
    """Fails the first ``failures`` times a partition is computed."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def __call__(self, iterator):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"transient failure #{self.calls}")
        return list(iterator)


class TestTaskRetry:
    def test_transient_failure_is_retried(self):
        context = SparkContext(num_workers=4, max_task_attempts=3)
        rdd = context.parallelize([1, 2, 3, 4], num_partitions=1)
        flaky = FlakyIterator(failures=2)
        assert rdd.map_partitions(flaky).collect() == [1, 2, 3, 4]
        assert flaky.calls == 3
        assert context.task_retries() == 2

    def test_attempts_are_bounded(self):
        context = SparkContext(num_workers=4, max_task_attempts=3)
        rdd = context.parallelize([1], num_partitions=1)
        flaky = FlakyIterator(failures=100)
        with pytest.raises(RuntimeError):
            rdd.map_partitions(flaky).collect()
        assert flaky.calls == 3  # exactly max_task_attempts, no more

    def test_failed_attempts_are_logged(self):
        context = SparkContext(num_workers=2, max_task_attempts=2)
        rdd = context.parallelize([1], num_partitions=1)
        rdd.map_partitions(FlakyIterator(failures=1)).collect()
        statuses = [metrics.status for metrics in context.task_log]
        assert statuses == ["failed", "success"]
        attempts = [metrics.attempt for metrics in context.task_log]
        assert attempts == [1, 2]

    def test_retry_lands_on_different_worker(self):
        context = SparkContext(num_workers=4, max_task_attempts=2)
        rdd = context.parallelize([1], num_partitions=1)
        rdd.map_partitions(FlakyIterator(failures=1)).collect()
        workers = [metrics.worker for metrics in context.task_log]
        assert workers[0] != workers[1]


class TestBlacklist:
    def test_failing_worker_is_blacklisted(self):
        context = SparkContext(
            num_workers=3, max_task_attempts=4, blacklist_after=2
        )
        # Two failures land on consecutive (distinct) workers; drive
        # one worker over the threshold by hand to keep the test direct.
        context._worker_failures["worker0"] = 2
        assert context.blacklisted_workers() == ["worker0"]
        picks = {context._next_worker() for _ in range(12)}
        assert "worker0" not in picks
        assert picks == {"worker1", "worker2"}

    def test_all_blacklisted_still_schedules(self):
        context = SparkContext(num_workers=2, blacklist_after=1)
        context._worker_failures = {"worker0": 5, "worker1": 5}
        assert context._next_worker() in context.workers
