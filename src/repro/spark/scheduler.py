"""SparkContext + DAG scheduler: stages, tasks, worker placement.

Jobs are split at shuffle boundaries into stages, executed bottom-up;
each stage's partitions become tasks placed round-robin on the worker
pool (the paper's testbed ran 25 Spark workers).  Task metrics -- rows
produced, wall time, worker -- feed the resource-usage analysis.

Concurrency: ``parallelism`` bounds how many of a stage's tasks run at
once on a thread pool.  Results are *deterministically ordered* at any
parallelism: ``run_job`` returns per-partition results in partition
order, shuffle buckets are committed in map-partition order, and
``iter_batches`` merges the streams of concurrently running tasks
strictly in partition order (a task's batches are buffered in a bounded
queue until its turn).  Consuming a stream early (a satisfied LIMIT)
cancels the in-flight producers and abandons their GETs, exactly as the
serial path abandons the remaining tasks.

Lock hierarchy (see docs/concurrency.md): the scheduler's three locks
(``_shuffle_lock`` > ``_placement_lock``, ``_log_lock``) sit at the top
of the system; the two leaf locks are only held for list/dict
arithmetic, while ``_shuffle_lock`` serializes whole shuffle-stage
materializations (a shuffle is a barrier, so this costs no parallelism
inside a query).
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.obs.metrics import get_registry
from repro.obs.trace import get_collector
from repro.swift.exceptions import TooManyRequests
from repro.spark.batch import DEFAULT_BATCH_ROWS, RecordBatch
from repro.spark.rdd import (
    NarrowDependency,
    ParallelCollectionRDD,
    RDD,
    ShuffleDependency,
)


@dataclass
class TaskMetrics:
    """One task attempt (failed attempts are logged too)."""

    stage_id: int
    task_id: int
    partition: int
    worker: str
    rows: int
    duration_seconds: float
    rdd_name: str
    attempt: int = 1
    status: str = "success"


@dataclass
class StageInfo:
    stage_id: int
    rdd_name: str
    num_tasks: int
    shuffle_id: Optional[int] = None


class SparkContext:
    """Driver-side state: workers, scheduler, shuffle storage, metrics."""

    #: Batches a concurrently running task may compute ahead of the
    #: ordered merge before its producer blocks (bounds memory to
    #: O(parallelism * prefetch * batch)).
    prefetch_batches = 4

    def __init__(
        self,
        app_name: str = "repro",
        num_workers: int = 4,
        max_task_attempts: int = 3,
        blacklist_after: int = 2,
        parallelism: int = 1,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if max_task_attempts < 1:
            raise ValueError("need at least one task attempt")
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1: {parallelism}")
        self.app_name = app_name
        self.workers = [f"worker{i}" for i in range(num_workers)]
        # Bounded retry: a task is re-run on a different worker up to
        # ``max_task_attempts`` times; workers accumulating
        # ``blacklist_after`` failures are avoided while healthy
        # alternatives exist (Spark's spark.task.maxFailures +
        # executor blacklisting).
        self.max_task_attempts = max_task_attempts
        self.blacklist_after = blacklist_after
        #: How many tasks of one stage run concurrently (1 = serial).
        self.parallelism = parallelism
        self.task_log: List[TaskMetrics] = []
        self.stage_log: List[StageInfo] = []
        self._stage_ids = itertools.count()
        self._task_ids = itertools.count()
        self._worker_cycle = itertools.cycle(self.workers)
        self._worker_failures: Dict[str, int] = {}
        # shuffle_id -> reduce partition -> list of (key, value)
        self._shuffle_store: Dict[int, Dict[int, List[Tuple[Any, Any]]]] = {}
        self._materialized_shuffles: set = set()
        # Leaf locks: held for arithmetic only, never across task code.
        self._log_lock = threading.Lock()
        self._placement_lock = threading.Lock()
        self._id_lock = threading.Lock()
        # Serializes shuffle-stage materialization (reentrant: nested
        # shuffles materialize parents recursively under the same lock).
        self._shuffle_lock = threading.RLock()

    # -- RDD constructors ---------------------------------------------------

    def parallelize(self, data: List[Any], num_partitions: int = 0) -> RDD:
        partitions = num_partitions or len(self.workers)
        return ParallelCollectionRDD(self, list(data), max(1, partitions))

    # -- job execution ----------------------------------------------------------

    def run_job(
        self,
        rdd: RDD,
        function: Callable[[Iterator[Any]], Any] = list,
        partitions: Optional[List[int]] = None,
    ) -> List[Any]:
        """Execute ``function`` over each partition of ``rdd``.

        Parent shuffle stages are materialized first (recursively), then
        the final stage runs one task per requested partition -- up to
        :attr:`parallelism` at a time.  The result list is in partition
        order regardless of completion order, and a failing stage raises
        the error of its *lowest-numbered* failing partition, so error
        behavior is deterministic too.
        """
        with self._shuffle_lock:
            self._materialize_parents(rdd)
        stage_id = self._next_stage_id()
        targets = (
            list(range(rdd.num_partitions())) if partitions is None else partitions
        )
        with self._log_lock:
            self.stage_log.append(StageInfo(stage_id, rdd.name, len(targets)))
        return self._run_stage(stage_id, rdd, targets, function)

    def _run_stage(
        self,
        stage_id: int,
        rdd: RDD,
        targets: List[int],
        function: Callable[[Iterator[Any]], Any],
    ) -> List[Any]:
        """Run one stage's tasks, serially or on the bounded pool."""
        if self.parallelism <= 1 or len(targets) <= 1:
            return [
                self._run_task(stage_id, rdd, split, function)
                for split in targets
            ]
        results: List[Any] = [None] * len(targets)
        pool_size = min(self.parallelism, len(targets))
        with ThreadPoolExecutor(
            max_workers=pool_size,
            thread_name_prefix=f"{self.app_name}-stage{stage_id}",
        ) as pool:
            futures = [
                pool.submit(self._run_task, stage_id, rdd, split, function)
                for split in targets
            ]
            # Collect in partition order: the list is ordered and the
            # first error raised is the lowest partition's, independent
            # of which task happened to fail first on the wall clock.
            for index, future in enumerate(futures):
                results[index] = future.result()
        return results

    def iter_batches(
        self,
        rdd: RDD,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        partitions: Optional[List[int]] = None,
    ) -> Iterator[RecordBatch]:
        """Stream a job's output as bounded record batches.

        The streaming counterpart of :meth:`run_job`: parent shuffle
        stages are still materialized eagerly (a shuffle is a barrier),
        but the final stage's tasks yield their batches to the consumer
        as they are produced instead of collecting whole partitions.
        With ``parallelism > 1`` up to that many tasks compute
        concurrently while the consumer receives their batches merged
        *strictly in partition order* (later partitions buffer up to
        :attr:`prefetch_batches` batches, then block).  Stopping
        iteration early (e.g. a satisfied LIMIT) cancels the in-flight
        tasks and abandons their GETs.
        """
        with self._shuffle_lock:
            self._materialize_parents(rdd)
        stage_id = self._next_stage_id()
        targets = (
            list(range(rdd.num_partitions())) if partitions is None else partitions
        )
        with self._log_lock:
            self.stage_log.append(StageInfo(stage_id, rdd.name, len(targets)))
        if self.parallelism <= 1 or len(targets) <= 1:
            for split in targets:
                yield from self._stream_task(stage_id, rdd, split, batch_rows)
            return
        yield from self._iter_batches_parallel(
            stage_id, rdd, targets, batch_rows
        )

    def _iter_batches_parallel(
        self,
        stage_id: int,
        rdd: RDD,
        targets: List[int],
        batch_rows: int,
    ) -> Iterator[RecordBatch]:
        """Ordered streaming merge over a sliding window of producers.

        A window of up to :attr:`parallelism` partition tasks runs
        concurrently, each filling its own bounded queue; the consumer
        drains the queues strictly in partition order and launches the
        next partition as each one finishes.  Bounded queues give
        speculative work a memory cap; the cancel event tears the
        producers down when the consumer leaves early.
        """
        cancel = threading.Event()
        window = min(self.parallelism, len(targets))

        def offer(out_queue: "queue_module.Queue", item) -> bool:
            while not cancel.is_set():
                try:
                    out_queue.put(item, timeout=0.05)
                    return True
                except queue_module.Full:
                    continue
            return False

        def produce(split: int, out_queue: "queue_module.Queue") -> None:
            try:
                stream = self._stream_task(stage_id, rdd, split, batch_rows)
                try:
                    for batch in stream:
                        if not offer(out_queue, ("batch", batch)):
                            return  # consumer left; abandon the stream
                finally:
                    # Explicitly close so an abandoned task unwinds its
                    # generator stack (and the in-flight GET) promptly.
                    stream.close()
            except BaseException as error:  # noqa: BLE001 - relayed below
                offer(out_queue, ("error", error))
                return
            offer(out_queue, ("done", None))

        pool = ThreadPoolExecutor(
            max_workers=window,
            thread_name_prefix=f"{self.app_name}-stage{stage_id}",
        )
        next_target = 0
        pending: "deque[queue_module.Queue]" = deque()

        def launch() -> None:
            nonlocal next_target
            out_queue: "queue_module.Queue" = queue_module.Queue(
                maxsize=self.prefetch_batches
            )
            pool.submit(produce, targets[next_target], out_queue)
            pending.append(out_queue)
            next_target += 1

        try:
            for _ in range(window):
                launch()
            while pending:
                out_queue = pending.popleft()
                while True:
                    kind, payload = out_queue.get()
                    if kind == "batch":
                        yield payload
                    elif kind == "done":
                        break
                    else:
                        raise payload
                if next_target < len(targets):
                    launch()
        finally:
            cancel.set()
            pool.shutdown(wait=True)

    def iter_rows(
        self, rdd: RDD, batch_rows: int = DEFAULT_BATCH_ROWS
    ) -> Iterator[Any]:
        """Stream a job's output row by row (see :meth:`iter_batches`)."""
        for batch in self.iter_batches(rdd, batch_rows):
            yield from batch.rows

    def _stream_task(
        self, stage_id: int, rdd: RDD, split: int, batch_rows: int
    ) -> Iterator[RecordBatch]:
        """Run one task, yielding batches as the partition streams.

        Retry changes shape under streaming: batches already handed to
        the consumer cannot be recalled, so a failed attempt resumes by
        recomputing the partition and discarding the first ``emitted``
        rows.  This is sound because partition computation is
        deterministic (the graceful-degradation path reproduces the
        pushdown row stream exactly for the same reason).  Batches are
        counted by ``len`` and cut with ``slice``: a column batch is
        never turned into rows here.
        """
        task_id = self._next_task_id()
        emitted = 0
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.max_task_attempts + 1):
            worker = self._next_worker()
            started = time.perf_counter()
            try:
                position = 0
                for batch in rdd.compute_batches(split, batch_rows):
                    start = position
                    position += len(batch)
                    if position <= emitted:
                        continue  # replayed rows from a pre-failure batch
                    if start < emitted:
                        batch = batch.slice(emitted - start)
                    emitted = position
                    yield batch
            except Exception as error:
                duration = time.perf_counter() - started
                last_error = error
                self._record_failure(worker, error)
                self._log_task(
                    TaskMetrics(
                        stage_id=stage_id,
                        task_id=task_id,
                        partition=split,
                        worker=worker,
                        rows=-1,
                        duration_seconds=duration,
                        rdd_name=rdd.name,
                        attempt=attempt,
                        status="failed",
                    )
                )
                continue
            duration = time.perf_counter() - started
            self._log_task(
                TaskMetrics(
                    stage_id=stage_id,
                    task_id=task_id,
                    partition=split,
                    worker=worker,
                    rows=emitted,
                    duration_seconds=duration,
                    rdd_name=rdd.name,
                    attempt=attempt,
                )
            )
            return
        assert last_error is not None
        raise last_error

    def _materialize_parents(self, rdd: RDD) -> None:
        # Caller holds _shuffle_lock: one thread materializes a given
        # shuffle, concurrent jobs over the same lineage wait for it.
        for dependency in rdd.dependencies:
            self._materialize_parents(dependency.parent)
            if isinstance(dependency, ShuffleDependency):
                self._run_shuffle_stage(dependency)

    def _run_shuffle_stage(self, dependency: ShuffleDependency) -> None:
        if dependency.shuffle_id in self._materialized_shuffles:
            return
        parent = dependency.parent
        stage_id = self._next_stage_id()
        with self._log_lock:
            self.stage_log.append(
                StageInfo(
                    stage_id,
                    parent.name,
                    parent.num_partitions(),
                    shuffle_id=dependency.shuffle_id,
                )
            )
        buckets: Dict[int, List[Tuple[Any, Any]]] = {
            index: [] for index in range(dependency.num_partitions)
        }
        combine = dependency.combiner

        def write_shuffle(
            iterator: Iterator[Tuple[Any, Any]]
        ) -> List[Tuple[int, Tuple[Any, Any]]]:
            # Map-side combine before bucketing, like Spark.  Returns
            # (bucket, pair) tuples instead of mutating the shared
            # buckets so a retried attempt cannot double-commit its
            # partial output.
            if combine is not None:
                partials: Dict[Any, Any] = {}
                for key, value in iterator:
                    if key in partials:
                        partials[key] = combine(partials[key], value)
                    else:
                        partials[key] = value
                items = partials.items()
            else:
                items = list(iterator)  # type: ignore[assignment]
            return [
                (hash(key) % dependency.num_partitions, (key, value))
                for key, value in items
            ]

        # Map tasks run (possibly concurrently) without touching shared
        # buckets; their outputs are committed below in map-partition
        # order, so every bucket's contents are byte-identical to a
        # serial run at any parallelism.
        outputs = self._run_stage(
            stage_id,
            parent,
            list(range(parent.num_partitions())),
            write_shuffle,
        )
        for pairs in outputs:
            for bucket, pair in pairs:
                buckets[bucket].append(pair)
        self._shuffle_store[dependency.shuffle_id] = buckets
        self._materialized_shuffles.add(dependency.shuffle_id)

    def shuffle_fetch(
        self, shuffle_id: int, partition: int
    ) -> List[Tuple[Any, Any]]:
        store = self._shuffle_store.get(shuffle_id)
        if store is None:
            raise RuntimeError(
                f"shuffle {shuffle_id} not materialized before fetch"
            )
        return store.get(partition, [])

    def _run_task(
        self,
        stage_id: int,
        rdd: RDD,
        split: int,
        function: Callable[[Iterator[Any]], Any],
    ) -> Any:
        task_id = self._next_task_id()
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.max_task_attempts + 1):
            worker = self._next_worker()
            started = time.perf_counter()
            try:
                output = function(rdd.iterator(split))
            except Exception as error:
                duration = time.perf_counter() - started
                last_error = error
                self._record_failure(worker, error)
                self._log_task(
                    TaskMetrics(
                        stage_id=stage_id,
                        task_id=task_id,
                        partition=split,
                        worker=worker,
                        rows=-1,
                        duration_seconds=duration,
                        rdd_name=rdd.name,
                        attempt=attempt,
                        status="failed",
                    )
                )
                continue
            duration = time.perf_counter() - started
            rows = output if isinstance(output, int) else (
                len(output) if hasattr(output, "__len__") else -1
            )
            self._log_task(
                TaskMetrics(
                    stage_id=stage_id,
                    task_id=task_id,
                    partition=split,
                    worker=worker,
                    rows=rows,
                    duration_seconds=duration,
                    rdd_name=rdd.name,
                    attempt=attempt,
                )
            )
            return output
        assert last_error is not None
        raise last_error

    def _next_worker(self) -> str:
        """Round-robin placement, skipping blacklisted workers while at
        least one healthy worker remains."""
        with self._placement_lock:
            for _ in range(len(self.workers)):
                worker = next(self._worker_cycle)
                if (
                    self._worker_failures.get(worker, 0)
                    < self.blacklist_after
                ):
                    return worker
            # Every worker is blacklisted: better to keep trying than to
            # deadlock the job.
            return next(self._worker_cycle)

    def _record_failure(
        self, worker: str, error: Optional[BaseException] = None
    ) -> None:
        # An admission shed (429) means the *store* was over quota, not
        # that this worker is unhealthy; blacklisting workers for sheds
        # would collapse the pool exactly when the cluster is loaded.
        if isinstance(error, TooManyRequests):
            return
        with self._placement_lock:
            self._worker_failures[worker] = (
                self._worker_failures.get(worker, 0) + 1
            )

    def _log_task(self, metrics: TaskMetrics) -> None:
        with self._log_lock:
            self.task_log.append(metrics)
        registry = get_registry()
        registry.inc("scheduler.tasks", status=metrics.status)
        registry.observe("scheduler.task_seconds", metrics.duration_seconds)
        if metrics.rows >= 0:
            registry.inc("scheduler.rows", metrics.rows)
        get_collector().record_complete(
            "scheduler",
            f"task:{metrics.rdd_name}",
            metrics.duration_seconds,
            status=metrics.status,
            stage_id=metrics.stage_id,
            task_id=metrics.task_id,
            partition=metrics.partition,
            worker=metrics.worker,
            rows=metrics.rows,
            attempt=metrics.attempt,
        )

    def _next_stage_id(self) -> int:
        with self._id_lock:
            return next(self._stage_ids)

    def _next_task_id(self) -> int:
        with self._id_lock:
            return next(self._task_ids)

    # -- reporting --------------------------------------------------------------------

    def tasks_per_worker(self) -> Dict[str, int]:
        counts = {worker: 0 for worker in self.workers}
        with self._log_lock:
            log = list(self.task_log)
        for metrics in log:
            counts[metrics.worker] += 1
        return counts

    def task_retries(self) -> int:
        """Number of failed task attempts that were retried."""
        with self._log_lock:
            return sum(
                1 for metrics in self.task_log if metrics.status == "failed"
            )

    def blacklisted_workers(self) -> List[str]:
        with self._placement_lock:
            return sorted(
                worker
                for worker, failures in self._worker_failures.items()
                if failures >= self.blacklist_after
            )

    def reset_metrics(self) -> None:
        with self._log_lock:
            self.task_log.clear()
            self.stage_log.clear()
        with self._placement_lock:
            self._worker_failures.clear()
