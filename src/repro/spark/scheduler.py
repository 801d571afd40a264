"""SparkContext + task scheduler: one stage per job, one streaming task runner.

A job is one stage: each partition of the RDD becomes a task, placed
round-robin on the worker pool (the paper's testbed ran 25 Spark
workers).  There is no shuffle: grouping is the SQL executor's
(:class:`repro.sql.grouping.GroupTable`), and the paper's pushdown
contract needs only the scan.  Task metrics -- rows produced, wall
time, worker -- feed the resource-usage analysis.

Every task runs through :meth:`SparkContext._stream_task`, reached by
:meth:`SparkContext.iter_batches`, the one way a job runs.  So there is
one retry loop, one blacklist consult, one task-log writer and one
thread pool.

Concurrency: ``parallelism`` bounds how many of a stage's tasks run at
once on a thread pool.  Results are *deterministically ordered* at any
parallelism: ``iter_batches`` merges the streams of concurrently
running tasks strictly in partition order (a task's batches are
buffered in a bounded queue until its turn), so the first error raised
is the lowest failing partition's.  Consuming a stream early (a
satisfied LIMIT) cancels the in-flight producers and abandons
their GETs, exactly as the serial path abandons the remaining tasks.

Locks (see docs/concurrency.md): the scheduler's three locks
(``_placement_lock``, ``_log_lock``, ``_id_lock``) are leaves, held for
list/dict arithmetic only and never across task code.
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sized

from repro.obs import Telemetry
from repro.swift.exceptions import TooManyRequests
from repro.spark.rdd import RDD


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


class SparkContext:
    """Driver-side state: workers, scheduler, metrics.  The scheduler
    and all built on it count into ``telemetry`` (private if not given)."""

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
        telemetry: Optional[Telemetry] = None,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if max_task_attempts < 1:
            raise ValueError("need at least one task attempt")
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1: {parallelism}")
        self.app_name = app_name
        self.registry, self.tracer = telemetry or Telemetry.standalone()
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
        # Leaf locks: held for arithmetic only, never across task code.
        self._log_lock = threading.Lock()
        self._placement_lock = threading.Lock()
        self._id_lock = threading.Lock()

    # -- job execution ----------------------------------------------------------

    def iter_batches(self, rdd: RDD) -> Iterator[Sized]:
        """Run a job: one task per partition, output streamed as the
        batches the partitions compute.

        The tasks yield their batches to the consumer as they are
        produced.  With ``parallelism > 1`` up to that many tasks
        compute concurrently while the consumer receives their batches
        merged *strictly in partition order* (later partitions buffer
        up to :attr:`prefetch_batches` batches, then block), so a
        failing stage raises the error of its *lowest-numbered* failing
        partition at any parallelism.  Stopping iteration early (e.g. a
        satisfied LIMIT) cancels the in-flight tasks and abandons their
        GETs.
        """
        stage_id = self._next_stage_id()
        targets = list(range(rdd.num_partitions()))
        with self._log_lock:
            self.stage_log.append(StageInfo(stage_id, rdd.name, len(targets)))
        if self.parallelism <= 1 or len(targets) <= 1:
            for split in targets:
                yield from self._stream_task(stage_id, rdd, split)
            return
        yield from self._iter_batches_parallel(stage_id, rdd, targets)

    def _iter_batches_parallel(
        self, stage_id: int, rdd: RDD, targets: List[int]
    ) -> Iterator[Sized]:
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
                stream = self._stream_task(stage_id, rdd, split)
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

    def _stream_task(self, stage_id: int, rdd: RDD, split: int) -> Iterator[Sized]:
        """Run one task, yielding batches as the partition streams.

        Batches already handed to the consumer cannot be recalled, so
        the attempt after a failed one resumes by recomputing the
        partition and discarding the first ``emitted`` rows.  This is
        sound because partition computation is deterministic (the
        graceful-degradation path reproduces the pushdown row stream
        exactly for the same reason) -- not its cut into batches, so the
        batch the resume point falls in is cut there.  Batches are
        counted with ``len`` and cut with ``batch[start:]``, which a
        ``ColumnBatch`` and a list of aggregation records both support:
        a column batch is never turned into rows here.
        """
        task_id = self._next_task_id()
        emitted = 0
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.max_task_attempts + 1):
            worker = self._next_worker()
            started = time.perf_counter()
            try:
                position = 0
                for batch in rdd.compute_batches(split):
                    start = position
                    position += len(batch)
                    if position <= emitted:
                        continue  # replayed rows from a pre-failure batch
                    if start < emitted:
                        batch = batch[emitted - start :]
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
        registry = self.registry
        registry.inc("scheduler.tasks", status=metrics.status)
        registry.observe("scheduler.task_seconds", metrics.duration_seconds)
        if metrics.rows >= 0:
            registry.inc("scheduler.rows", metrics.rows)
        self.tracer.record_complete(
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
