"""Resilient Distributed Datasets: lazy, partitioned, lineage-tracked.

RDDs here are faithful in structure to Spark's: a partition list, a
``compute(split)`` method, and a dependency list that is either *narrow*
(one-to-one on partitions) or *shuffle* (all-to-all through a hash
partitioner).  Actions submit jobs to the context's DAG scheduler, which
materializes shuffle stages bottom-up -- so ``reduceByKey`` really runs
as two stages, like Spark.
"""

from __future__ import annotations

import itertools
import threading
from typing import (
    Any,
    Callable,
    Dict,
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
V = TypeVar("V")


class Dependency:
    """Base class for RDD dependencies."""

    def __init__(self, parent: "RDD"):
        self.parent = parent


class NarrowDependency(Dependency):
    """Child partition i depends only on parent partition i."""


class ShuffleDependency(Dependency):
    """Child partitions depend on all parent partitions via hashing."""

    _shuffle_ids = itertools.count()

    def __init__(
        self,
        parent: "RDD",
        num_partitions: int,
        combiner: Optional[Callable[[Any, Any], Any]] = None,
    ):
        super().__init__(parent)
        self.shuffle_id = next(ShuffleDependency._shuffle_ids)
        self.num_partitions = num_partitions
        self.combiner = combiner


class RDD(Generic[T]):
    """An immutable, lazily evaluated distributed collection."""

    _ids = itertools.count()

    def __init__(self, context, dependencies: Iterable[Dependency] = ()):
        self.id = next(RDD._ids)
        self.context = context
        self.dependencies: List[Dependency] = list(dependencies)
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

    @property
    def is_cached(self) -> bool:
        return self._cache is not None

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

    def reduce_by_key(
        self,
        function: Callable[[V, V], V],
        num_partitions: Optional[int] = None,
    ) -> "RDD[Tuple[K, V]]":
        """Two-stage aggregation through a hash shuffle."""
        partitions = num_partitions or self.num_partitions()
        return ShuffledRDD(self, partitions, combiner=function)

    def group_by_key(
        self, num_partitions: Optional[int] = None
    ) -> "RDD[Tuple[K, List[V]]]":
        partitions = num_partitions or self.num_partitions()
        return ShuffledRDD(self, partitions, combiner=None)

    # -- actions (eager) ----------------------------------------------------------

    def collect(self) -> List[T]:
        chunks = self.context.run_job(self)
        return [item for chunk in chunks for item in chunk]

    def count(self) -> int:
        chunks = self.context.run_job(self, lambda it: sum(1 for _ in it))
        return sum(chunks)

    def reduce(self, function: Callable[[T, T], T]) -> T:
        def reduce_partition(iterator: Iterator[T]) -> List[T]:
            materialized = list(iterator)
            if not materialized:
                return []
            result = materialized[0]
            for item in materialized[1:]:
                result = function(result, item)
            return [result]

        partials = [
            item
            for chunk in self.context.run_job(self, reduce_partition)
            for item in chunk
        ]
        if not partials:
            raise ValueError("reduce of an empty RDD")
        result = partials[0]
        for item in partials[1:]:
            result = function(result, item)
        return result

    def take(self, count: int) -> List[T]:
        taken: List[T] = []
        for split in range(self.num_partitions()):
            if len(taken) >= count:
                break
            chunk = self.context.run_job(self, list, partitions=[split])[0]
            taken.extend(chunk[: count - len(taken)])
        return taken

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
            kind = (
                "shuffle" if isinstance(dependency, ShuffleDependency) else "narrow"
            )
            for line in dependency.parent.lineage():
                lines.append(f"  ({kind}) {line}")
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


class ShuffledRDD(RDD[Tuple[K, V]]):
    """Reads the hash-partitioned output of its parent's shuffle stage."""

    def __init__(
        self,
        parent: RDD[Tuple[K, V]],
        num_partitions: int,
        combiner: Optional[Callable[[V, V], V]],
    ):
        dependency = ShuffleDependency(parent, num_partitions, combiner)
        super().__init__(parent.context, [dependency])
        self.dependency = dependency
        self._num_partitions = num_partitions
        self.name = "Shuffled"

    def num_partitions(self) -> int:
        return self._num_partitions

    def compute(self, split: int) -> Iterator[Tuple[K, Any]]:
        bucket = self.context.shuffle_fetch(self.dependency.shuffle_id, split)
        if self.dependency.combiner is None:
            merged: Dict[K, List[V]] = {}
            for key, value in bucket:
                merged.setdefault(key, []).append(value)
        else:
            combine = self.dependency.combiner
            merged = {}
            for key, value in bucket:
                if key in merged:
                    merged[key] = combine(merged[key], value)  # type: ignore[assignment]
                else:
                    merged[key] = value  # type: ignore[assignment]
        return iter(merged.items())
