"""Task-level retry and worker blacklisting, on the one task runner: a
partition of a fake scan fails its first attempts, and draining
``iter_batches`` retries it."""

import pytest

from repro.spark.scheduler import SparkContext

from tests.fake_rdd import FakeRDD, rows_of


class Flaky:
    """A hook failing the first ``failures`` attempts of a partition
    before they yield anything."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def __call__(self, split, attempt, done):
        if done:
            return
        self.calls += 1
        if attempt <= self.failures:
            raise RuntimeError(f"transient failure #{attempt}")


def flaky_scan(context, values, failures):
    flaky = Flaky(failures)
    return FakeRDD(context, [values], hook=flaky), flaky


class TestTaskRetry:
    def test_transient_failure_is_retried(self):
        context = SparkContext(num_workers=4, max_task_attempts=3)
        rdd, flaky = flaky_scan(context, [1, 2, 3, 4], failures=2)
        assert rows_of(context.iter_batches(rdd)) == [(1,), (2,), (3,), (4,)]
        assert flaky.calls == 3
        assert context.task_retries() == 2

    def test_attempts_are_bounded(self):
        context = SparkContext(num_workers=4, max_task_attempts=3)
        rdd, flaky = flaky_scan(context, [1], failures=100)
        with pytest.raises(RuntimeError):
            rows_of(context.iter_batches(rdd))
        assert flaky.calls == 3  # exactly max_task_attempts, no more

    def test_failed_attempts_are_logged(self):
        context = SparkContext(num_workers=2, max_task_attempts=2)
        rdd, _flaky = flaky_scan(context, [1], failures=1)
        rows_of(context.iter_batches(rdd))
        statuses = [metrics.status for metrics in context.task_log]
        assert statuses == ["failed", "success"]
        attempts = [metrics.attempt for metrics in context.task_log]
        assert attempts == [1, 2]

    def test_retry_lands_on_different_worker(self):
        context = SparkContext(num_workers=4, max_task_attempts=2)
        rdd, _flaky = flaky_scan(context, [1], failures=1)
        rows_of(context.iter_batches(rdd))
        workers = [metrics.worker for metrics in context.task_log]
        assert workers[0] != workers[1]


class TestResumeAcrossDifferentCuts:
    """The retried attempt cuts its partition differently from the one
    that failed: 7 records were out when the fault landed, and the
    replay's second list straddles that point, so the scheduler must cut
    it at exactly the 8th record -- one off either way and a record
    arrives twice or never.  Over the lists of records a GROUP-BY
    pushdown scan hands the scheduler; ``tests/test_batch_aggregate.py``
    holds the same case over ``ColumnBatch``es."""

    @staticmethod
    def _fail_after_seven(split, attempt, done):
        if split == 0 and attempt == 1 and done == 7:
            raise RuntimeError("worker lost mid-partition")

    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_a_list_of_records_is_cut_at_the_exact_record(self, parallelism):
        context = SparkContext(num_workers=4, max_task_attempts=2, parallelism=parallelism)
        records = [(0, ordinal, [f"k{ordinal}"], [ordinal]) for ordinal in range(15)]
        rdd = FakeRDD(
            context,
            [records, records[:3]],
            cut=lambda attempt: [4, 3, 8] if attempt == 1 else [5, 5, 5],
            carrier=list,
            hook=self._fail_after_seven,
        )
        batches = list(context.iter_batches(rdd))
        assert [len(batch) for batch in batches] == [4, 3, 3, 5, 3]
        assert all(type(batch) is list for batch in batches)
        assert rows_of(batches) == records + records[:3]
        assert context.task_retries() == 1
        assert [m.rows for m in context.task_log if m.status == "success"] == [15, 3]


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
