"""Sandboxed storlet execution with resource accounting.

Real Storlets isolate storlet code in Docker containers; the paper
attributes the 4-6% resident memory and the ~23.5% average CPU on
storage nodes under pushdown to "the Docker container used to run
Storlets plus the code execution" (Section VI-D).  Our sandbox executes
the storlet in-process but *accounts* the same quantities so the
resource-usage experiments (Fig. 9/10) can charge them to nodes:

* bytes in / bytes out / rows in / rows out per invocation,
* estimated CPU seconds from a per-byte cost model that mirrors the
  paper's observed row/column asymmetry (discarding whole rows is
  cheaper than re-concatenating selected columns).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs.metrics import get_registry
from repro.obs.trace import get_collector
from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletFailure,
    StorletInputStream,
    StorletLogger,
)


@dataclass
class CostModel:
    """Per-byte CPU cost coefficients (core-seconds per byte).

    Calibrated so that a single core streams roughly 100 MB/s through a
    selection-only filter, with extra cost when columns must be selected
    and re-concatenated -- matching the paper's observation that "row
    selectivity exhibits higher performance compared to column/mixed
    selectivity" (Section VI-A).
    """

    scan_cost: float = 1.0 / 100e6
    row_filter_cost: float = 0.2 / 100e6
    column_project_cost: float = 0.8 / 100e6
    output_cost: float = 0.5 / 100e6

    def invocation_cost(
        self,
        bytes_in: int,
        bytes_out: int,
        filtered_rows: bool,
        projected_columns: bool,
    ) -> float:
        cost = bytes_in * self.scan_cost
        if filtered_rows:
            cost += bytes_in * self.row_filter_cost
        if projected_columns:
            cost += bytes_in * self.column_project_cost
        cost += bytes_out * self.output_cost
        return cost


@dataclass
class InvocationRecord:
    storlet: str
    node: str
    tier: str
    bytes_in: int
    bytes_out: int
    cpu_seconds: float
    wall_seconds: float
    parameters: Dict[str, str] = field(default_factory=dict)


@dataclass
class SandboxStats:
    """Aggregated accounting for one node's sandbox."""

    invocations: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    cpu_seconds: float = 0.0
    memory_bytes: int = 0
    errors: int = 0

    def discard_ratio(self) -> float:
        if self.bytes_in == 0:
            return 0.0
        return 1.0 - self.bytes_out / self.bytes_in


class Sandbox:
    """Executes storlet invocations for one node, with accounting.

    ``memory_overhead`` models the resident Docker container footprint
    (paper: 4-6% of a 256 GB node, we default to a plain byte count the
    perf model scales).
    """

    def __init__(
        self,
        node: str = "node",
        cost_model: Optional[CostModel] = None,
        memory_overhead: int = 512 * 2**20,
        max_output_bytes: Optional[int] = None,
        max_cpu_seconds: Optional[float] = None,
        max_wall_seconds: Optional[float] = None,
    ):
        self.node = node
        self.cost_model = cost_model or CostModel()
        self.memory_overhead = memory_overhead
        # Optional per-invocation resource limits (a real sandbox caps
        # runaway filters; ours checks each chunk as it leaves).
        self.max_output_bytes = max_output_bytes
        self.max_cpu_seconds = max_cpu_seconds
        # Invocation deadline (wall clock): a storlet that runs longer
        # is treated as stalled and fails with a typed StorletFailure.
        self.max_wall_seconds = max_wall_seconds
        # Optional fault-injection hook consulted before each invocation
        # (set by the chaos framework via the engine); may raise
        # StorletFailure to emulate sandbox crashes / budget exhaustion.
        self.fault_hook = None
        self.stats = SandboxStats()
        self.records: List[InvocationRecord] = []
        self._warm = False
        # Guards stats / records / warm-up under concurrent invocations.
        # A leaf lock: held only for counter arithmetic, never across a
        # storlet's own code or any I/O (docs/concurrency.md).
        self._lock = threading.Lock()

    def run_streaming(
        self,
        storlet: IStorlet,
        in_stream: StorletInputStream,
        parameters: Dict[str, str],
        tier: str = "object",
        scope: str = "",
        trace_id: str = "",
    ) -> "StreamingInvocation":
        """Start ``storlet`` as a stream transformer.

        Returns a :class:`StreamingInvocation` whose :meth:`chunks`
        iterator pulls input through the storlet on demand.  ``bytes_in``
        / ``bytes_out`` / CPU seconds are charged to :attr:`stats` per
        chunk *as the stream flows*, and the output/CPU limits are
        enforced mid-stream, so accounting stays honest for objects that
        are never materialized.  The invocation counts as completed (and
        its :class:`InvocationRecord` is appended) only once the stream
        is fully drained; failures surface as exceptions from the chunk
        iterator.

        The first invocation "warms" the sandbox (container start),
        charging the memory overhead permanently -- matching the
        near-constant 4-6% memory the paper measured on storage nodes.
        """
        with self._lock:
            if not self._warm:
                self._warm = True
                self.stats.memory_bytes += self.memory_overhead

        # Fault injection fires at invocation start, before any data
        # flows -- so a failed pushdown never streams partial output.
        # ``scope`` names the logical request so seeded chaos decisions
        # stay deterministic under concurrent invocations.
        if self.fault_hook is not None:
            try:
                self.fault_hook(storlet.name, self.node, tier, scope)
            except StorletException:
                with self._lock:
                    self.stats.errors += 1
                get_registry().inc("sandbox.errors", node=self.node)
                raise

        logger = StorletLogger(storlet.name)
        parameters = dict(parameters)
        filtered = "filters" in parameters
        projected = "columns" in parameters
        invocation = StreamingInvocation(storlet.name)

        def charge(bytes_in: int, bytes_out: int) -> None:
            cost = self.cost_model.invocation_cost(
                bytes_in, bytes_out, filtered, projected
            )
            invocation.cpu_seconds += cost
            with self._lock:
                self.stats.cpu_seconds += cost
            if (
                self.max_cpu_seconds is not None
                and invocation.cpu_seconds > self.max_cpu_seconds
            ):
                raise StorletFailure(
                    f"{storlet.name} exceeded the sandbox CPU budget: "
                    f"{invocation.cpu_seconds:.4f} > "
                    f"{self.max_cpu_seconds} core-seconds",
                    storlet=storlet.name,
                    node=self.node,
                    reason="cpu-exhausted",
                )

        def metered_input():
            for chunk in in_stream.iter_chunks():
                invocation.bytes_read += len(chunk)
                with self._lock:
                    self.stats.bytes_in += len(chunk)
                charge(len(chunk), 0)
                yield chunk

        def accounted():
            # The span starts lazily here -- inside the generator -- so
            # start and finish both happen on the *consumer's* thread and
            # the collector's per-thread parenting stack stays sound even
            # when the stream is drained far from where it was built.
            tracer = get_collector()
            span = tracer.start(
                "storlet",
                storlet.name,
                trace_id=trace_id,
                node=self.node,
                run_on=tier,
                scope=scope,
            )
            started = time.perf_counter()
            try:
                try:
                    chunks = storlet.process(
                        StorletInputStream(
                            metered_input(), in_stream.metadata
                        ),
                        parameters,
                        logger,
                        invocation.metadata,
                    )
                    for chunk in chunks:
                        if not isinstance(chunk, bytes):
                            raise StorletException(
                                f"storlet output must be bytes, "
                                f"got {type(chunk).__name__}"
                            )
                        if not chunk:
                            continue
                        invocation.bytes_written += len(chunk)
                        with self._lock:
                            self.stats.bytes_out += len(chunk)
                        if (
                            self.max_output_bytes is not None
                            and invocation.bytes_written
                            > self.max_output_bytes
                        ):
                            raise StorletFailure(
                                f"{storlet.name} exceeded the sandbox "
                                f"output limit: "
                                f"{invocation.bytes_written} > "
                                f"{self.max_output_bytes} bytes",
                                storlet=storlet.name,
                                node=self.node,
                                reason="output-limit",
                            )
                        charge(0, len(chunk))
                        yield chunk
                except StorletException:
                    with self._lock:
                        self.stats.errors += 1
                    get_registry().inc("sandbox.errors", node=self.node)
                    raise
                except Exception as error:
                    with self._lock:
                        self.stats.errors += 1
                    get_registry().inc("sandbox.errors", node=self.node)
                    raise StorletFailure(
                        f"{storlet.name} failed: {error}",
                        storlet=storlet.name,
                        node=self.node,
                        reason="crash",
                    ) from error
                wall = time.perf_counter() - started
                if (
                    self.max_wall_seconds is not None
                    and wall > self.max_wall_seconds
                ):
                    with self._lock:
                        self.stats.errors += 1
                    get_registry().inc("sandbox.errors", node=self.node)
                    raise StorletFailure(
                        f"{storlet.name} missed the invocation deadline: "
                        f"{wall:.4f} > {self.max_wall_seconds} seconds",
                        storlet=storlet.name,
                        node=self.node,
                        reason="deadline",
                    )
                with self._lock:
                    self.stats.invocations += 1
                    self.records.append(
                        InvocationRecord(
                            storlet=storlet.name,
                            node=self.node,
                            tier=tier,
                            bytes_in=invocation.bytes_read,
                            bytes_out=invocation.bytes_written,
                            cpu_seconds=invocation.cpu_seconds,
                            wall_seconds=wall,
                            parameters=dict(parameters),
                        )
                    )
                registry = get_registry()
                registry.inc("sandbox.invocations", node=self.node)
                registry.inc(
                    "sandbox.bytes_in", invocation.bytes_read, node=self.node
                )
                registry.inc(
                    "sandbox.bytes_out",
                    invocation.bytes_written,
                    node=self.node,
                )
                registry.inc(
                    "sandbox.cpu_seconds",
                    invocation.cpu_seconds,
                    node=self.node,
                )
            except GeneratorExit:
                # The consumer abandoned the stream (e.g. a satisfied
                # LIMIT) -- not a failure.
                span.status = "abandoned"
                raise
            except BaseException:
                span.status = "error"
                raise
            finally:
                span.bytes_in = invocation.bytes_read
                span.bytes_out = invocation.bytes_written
                tracer.finish(span, cpu_seconds=invocation.cpu_seconds)

        invocation.attach(accounted())
        return invocation


class StreamingInvocation:
    """Handle for one in-flight streaming storlet invocation.

    :attr:`metadata` is the dict the storlet writes its emitted metadata
    into; it is only guaranteed complete once :meth:`chunks` has been
    exhausted (real Storlets send metadata out-of-band, ours settles it
    at end-of-stream).
    """

    def __init__(self, storlet: str):
        self.storlet = storlet
        self.metadata: Dict[str, str] = {}
        self.bytes_read = 0
        self.bytes_written = 0
        self.cpu_seconds = 0.0
        self._chunks: Optional[Iterator[bytes]] = None

    def attach(self, chunks: Iterator[bytes]) -> None:
        self._chunks = chunks

    def chunks(self) -> Iterator[bytes]:
        assert self._chunks is not None
        return self._chunks
