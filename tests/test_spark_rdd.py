"""Tests for RDDs and the task scheduler."""

import pytest

from repro.spark import SparkContext


@pytest.fixture
def sc():
    return SparkContext("test", num_workers=3)


class TestTransformations:
    def test_map_collect(self, sc):
        rdd = sc.parallelize(list(range(10)), 4).map(lambda x: x * 2)
        assert rdd.collect() == [x * 2 for x in range(10)]

    def test_filter(self, sc):
        rdd = sc.parallelize(list(range(10)), 3).filter(lambda x: x % 2 == 0)
        assert rdd.collect() == [0, 2, 4, 6, 8]

    def test_flat_map(self, sc):
        rdd = sc.parallelize(["a b", "c"], 2).flat_map(str.split)
        assert rdd.collect() == ["a", "b", "c"]

    def test_map_partitions(self, sc):
        rdd = sc.parallelize(list(range(10)), 5).map_partitions(
            lambda it: [sum(it)]
        )
        assert sum(rdd.collect()) == 45
        assert rdd.num_partitions() == 5

    def test_union(self, sc):
        left = sc.parallelize([1, 2], 2)
        right = sc.parallelize([3, 4], 2)
        union = left.union(right)
        assert union.num_partitions() == 4
        assert union.collect() == [1, 2, 3, 4]

    def test_chained_laziness(self, sc):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = sc.parallelize([1, 2, 3], 1).map(spy)
        assert calls == []  # nothing computed yet
        rdd.collect()
        assert calls == [1, 2, 3]

    def test_key_by(self, sc):
        rdd = sc.parallelize(["aa", "b"], 1).key_by(len)
        assert rdd.collect() == [(2, "aa"), (1, "b")]


class TestActions:
    def test_count(self, sc):
        assert sc.parallelize(list(range(17)), 4).count() == 17

    def test_reduce(self, sc):
        assert sc.parallelize(list(range(1, 6)), 3).reduce(
            lambda a, b: a * b
        ) == 120

    def test_reduce_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([], 1).reduce(lambda a, b: a + b)

    def test_take_stops_early(self, sc):
        computed = []

        def spy(x):
            computed.append(x)
            return x

        rdd = sc.parallelize(list(range(100)), 10).map(spy)
        assert rdd.take(5) == [0, 1, 2, 3, 4]
        # Only the first partition (10 items) should have been computed.
        assert len(computed) == 10

    def test_first(self, sc):
        assert sc.parallelize([9, 8], 2).first() == 9

    def test_first_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([], 2).first()


class TestCaching:
    def test_cache_avoids_recompute(self, sc):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = sc.parallelize([1, 2, 3], 1).map(spy).cache()
        rdd.collect()
        rdd.collect()
        assert calls == [1, 2, 3]  # computed once

    def test_uncached_recomputes(self, sc):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = sc.parallelize([1, 2], 1).map(spy)
        rdd.collect()
        rdd.collect()
        assert calls == [1, 2, 1, 2]


class TestSchedulerMetrics:
    def test_tasks_round_robin_over_workers(self, sc):
        sc.parallelize(list(range(9)), 9).collect()
        counts = sc.tasks_per_worker()
        assert sum(counts.values()) == 9
        assert all(count == 3 for count in counts.values())

    def test_task_log_records_rows(self, sc):
        sc.parallelize(list(range(10)), 2).collect()
        assert [m.rows for m in sc.task_log] == [5, 5]

    def test_reset_metrics(self, sc):
        sc.parallelize([1], 1).collect()
        sc.reset_metrics()
        assert not sc.task_log
        assert not sc.stage_log


class TestLineage:
    def test_lineage_renders_ancestry(self, sc):
        rdd = (
            sc.parallelize([1, 2], 2)
            .map(lambda x: x)
            .filter(lambda x: True)
        )
        lines = rdd.lineage()
        assert "Filtered" in lines[0]
        assert any("Mapped" in line for line in lines)
        assert any("ParallelCollection" in line for line in lines)
