"""Resilient Distributed Datasets: lazy, partitioned, lineage-tracked.

RDDs here are faithful in structure to Spark's: a partition list, a
``compute(split)`` method and a list of *narrow* (one-to-one on
partitions) dependencies.  There is no shuffle -- GROUP BY is the SQL
executor's (:mod:`repro.sql.grouping`).  Actions are folds over the
context's one task stream (``SparkContext.iter_batches``), so every
action retries, places and logs its tasks the way a query does.
"""

from __future__ import annotations

import itertools
import threading
from typing import (
    Callable,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.spark.batch import DEFAULT_BATCH_ROWS, RecordBatch, batched

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")


class NarrowDependency:
    """Child partition i depends only on parent partition i."""

    def __init__(self, parent: "RDD"):
        self.parent = parent


class RDD(Generic[T]):
    """An immutable, lazily evaluated distributed collection."""

    _ids = itertools.count()

    def __init__(self, context, dependencies: Iterable[NarrowDependency] = ()):
        self.id = next(RDD._ids)
        self.context = context
        self.dependencies: List[NarrowDependency] = list(dependencies)
        self._cache: Optional[List[List[T]]] = None
        # Guards the cache slots when concurrent tasks hit the same
        # partition; computation happens outside the lock (it may issue
        # store I/O), only slot reads/writes are serialized.
        self._cache_lock = threading.Lock()
        self.name = type(self).__name__

    # -- to be provided by subclasses ------------------------------------

    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, split: int) -> Iterator[T]:
        """Produce the rows of one partition (called by tasks)."""
        raise NotImplementedError

    # -- caching -----------------------------------------------------------

    def cache(self) -> "RDD[T]":
        """Mark for in-memory materialization on first computation.

        Note the paper's caveat (Section III-A): caching helps iterative
        jobs but does not solve ingest-then-compute -- the *first* pass
        still moves all the data.
        """
        if self._cache is None:
            self._cache = []
        return self

    def iterator(self, split: int) -> Iterator[T]:
        """Compute or read-from-cache one partition."""
        if self._cache is not None:
            with self._cache_lock:
                while len(self._cache) < self.num_partitions():
                    self._cache.append(None)  # type: ignore[arg-type]
                cached = self._cache[split]
            if cached is None:
                computed = list(self.compute(split))
                with self._cache_lock:
                    if self._cache[split] is None:
                        self._cache[split] = computed
                    cached = self._cache[split]
            return iter(cached)
        return self.compute(split)

    def compute_batches(
        self, split: int, batch_rows: int = DEFAULT_BATCH_ROWS
    ) -> Iterator[RecordBatch]:
        """Compute one partition as bounded :class:`RecordBatch`es.

        The default re-chunks :meth:`iterator` lazily, so a streaming
        ``compute`` keeps its O(batch) memory profile and a cached RDD
        reads from its cache.  Tasks pull batches one at a time, which
        is what lets LIMIT-style early termination stop the scan (and
        the underlying GET) mid-partition.
        """
        return batched(self.iterator(split), batch_rows)

    # -- transformations (lazy) -----------------------------------------------

    def map(self, function: Callable[[T], U]) -> "RDD[U]":
        return MappedRDD(self, function)

    def filter(self, predicate: Callable[[T], bool]) -> "RDD[T]":
        return FilteredRDD(self, predicate)

    def flat_map(self, function: Callable[[T], Iterable[U]]) -> "RDD[U]":
        return FlatMappedRDD(self, function)

    def map_partitions(
        self, function: Callable[[Iterator[T]], Iterable[U]]
    ) -> "RDD[U]":
        return MapPartitionsRDD(self, function)

    def union(self, other: "RDD[T]") -> "RDD[T]":
        return UnionRDD(self.context, [self, other])

    def key_by(self, function: Callable[[T], K]) -> "RDD[Tuple[K, T]]":
        return self.map(lambda item: (function(item), item))

    # -- actions (eager): folds over the context's task stream -------------------

    def collect(self) -> List[T]:
        return list(self.context.iter_rows(self))

    def count(self) -> int:
        return sum(len(batch) for batch in self.context.iter_batches(self))

    def reduce(self, function: Callable[[T, T], T]) -> T:
        rows = self.context.iter_rows(self)
        try:
            result = next(rows)
        except StopIteration:
            raise ValueError("reduce of an empty RDD") from None
        for item in rows:
            result = function(result, item)
        return result

    def take(self, count: int) -> List[T]:
        """The first ``count`` rows; closing the stream stops the tasks
        that have not been needed (and cancels the in-flight ones)."""
        rows = self.context.iter_rows(self)
        try:
            return list(itertools.islice(rows, count))
        finally:
            rows.close()

    def first(self) -> T:
        items = self.take(1)
        if not items:
            raise ValueError("first() on an empty RDD")
        return items[0]

    # -- lineage introspection -------------------------------------------------------

    def lineage(self) -> List[str]:
        """Human-readable ancestry, child first."""
        lines = [f"{self.name}#{self.id}[{self.num_partitions()}]"]
        for dependency in self.dependencies:
            for line in dependency.parent.lineage():
                lines.append(f"  (narrow) {line}")
        return lines


class ParallelCollectionRDD(RDD[T]):
    """An RDD over an in-memory list (``sc.parallelize``)."""

    def __init__(self, context, data: List[T], num_partitions: int):
        super().__init__(context)
        self.name = "ParallelCollection"
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        self._slices: List[List[T]] = [[] for _ in range(num_partitions)]
        size = len(data)
        for index in range(num_partitions):
            start = index * size // num_partitions
            end = (index + 1) * size // num_partitions
            self._slices[index] = data[start:end]

    def num_partitions(self) -> int:
        return len(self._slices)

    def compute(self, split: int) -> Iterator[T]:
        return iter(self._slices[split])


class MappedRDD(RDD[U]):
    def __init__(self, parent: RDD[T], function: Callable[[T], U]):
        super().__init__(parent.context, [NarrowDependency(parent)])
        self.parent = parent
        self.function = function
        self.name = "Mapped"

    def num_partitions(self) -> int:
        return self.parent.num_partitions()

    def compute(self, split: int) -> Iterator[U]:
        return (self.function(item) for item in self.parent.iterator(split))


class FilteredRDD(RDD[T]):
    def __init__(self, parent: RDD[T], predicate: Callable[[T], bool]):
        super().__init__(parent.context, [NarrowDependency(parent)])
        self.parent = parent
        self.predicate = predicate
        self.name = "Filtered"

    def num_partitions(self) -> int:
        return self.parent.num_partitions()

    def compute(self, split: int) -> Iterator[T]:
        return (
            item for item in self.parent.iterator(split) if self.predicate(item)
        )


class FlatMappedRDD(RDD[U]):
    def __init__(self, parent: RDD[T], function: Callable[[T], Iterable[U]]):
        super().__init__(parent.context, [NarrowDependency(parent)])
        self.parent = parent
        self.function = function
        self.name = "FlatMapped"

    def num_partitions(self) -> int:
        return self.parent.num_partitions()

    def compute(self, split: int) -> Iterator[U]:
        for item in self.parent.iterator(split):
            yield from self.function(item)


class MapPartitionsRDD(RDD[U]):
    def __init__(
        self, parent: RDD[T], function: Callable[[Iterator[T]], Iterable[U]]
    ):
        super().__init__(parent.context, [NarrowDependency(parent)])
        self.parent = parent
        self.function = function
        self.name = "MapPartitions"

    def num_partitions(self) -> int:
        return self.parent.num_partitions()

    def compute(self, split: int) -> Iterator[U]:
        return iter(self.function(self.parent.iterator(split)))


class UnionRDD(RDD[T]):
    def __init__(self, context, parents: List[RDD[T]]):
        super().__init__(context, [NarrowDependency(p) for p in parents])
        self.parents = parents
        self.name = "Union"

    def num_partitions(self) -> int:
        return sum(parent.num_partitions() for parent in self.parents)

    def compute(self, split: int) -> Iterator[T]:
        for parent in self.parents:
            if split < parent.num_partitions():
                return parent.iterator(split)
            split -= parent.num_partitions()
        raise IndexError("partition index out of range")
