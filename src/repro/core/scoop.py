"""ScoopContext: one-call wiring of the whole Scoop stack.

Assembles the Swift-like cluster with the storlet middleware on both
tiers, deploys the CSV pushdown filter and the ETL storlets, creates the
Stocator connector and a Spark session, and exposes the high-level
operations a user of Scoop performs: upload data (optionally through an
ETL policy), register it as a SQL table with or without pushdown, and
run queries while observing how many bytes crossed the inter-cluster
boundary.

The data plane underneath is fully streaming (see docs/data_plane.md):
disk chunks flow through the pipelined storlet stages, the proxy, the
client, the connector and the Spark scan as bounded-size iterators, and
above the connector as fixed-size record batches.  Consequently
``bytes_transferred`` charges only chunks actually consumed -- a
satisfied ``LIMIT`` abandons the in-flight GETs and transfers strictly
fewer bytes than the same query without it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.connector.stocator import StocatorConnector
from repro.core.policies import AdaptivePushdownController
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import TraceCollector, set_collector
from repro.placement.engine import engine_from_environment
from repro.spark.csv_source import CsvRelation, infer_csv_schema
from repro.spark.dataframe import DataFrame
from repro.spark.scheduler import SparkContext
from repro.spark.session import SparkSession
from repro.sql.types import Schema
from repro.spark.columnar_source import ColumnarRelation
from repro.storlets.agg_storlet import AggregatingStorlet
from repro.storlets.columnar_storlet import (
    ColumnarStorlet,
    CsvToColumnarStorlet,
)
from repro.storlets.compress_storlet import CompressStorlet, DecompressStorlet
from repro.storlets.csv_storlet import CsvStorlet
from repro.storlets.engine import StorletEngine, StorletPolicy
from repro.storlets.etl_storlet import CleansingStorlet, ColumnSplitStorlet
from repro.swift.client import SwiftClient
from repro.swift.proxy import SwiftCluster
from repro.swift.retry import RetryPolicy


@dataclass
class QueryRunReport:
    """What one query cost at the ingestion boundary."""

    rows: int
    bytes_transferred: int
    bytes_requested: int
    requests: int
    pushdown_requests: int
    #: Pushdown reads that had to degrade to plain GETs after a runtime
    #: storlet failure (zero on a healthy cluster).
    pushdown_fallbacks: int = 0
    #: Whole objects the data-skipping catalog refuted for this query --
    #: each one is zero GETs (zero unless ``skipping`` is armed).
    objects_skipped: int = 0

    @property
    def data_selectivity(self) -> float:
        """Fraction of the requested bytes that was discarded at the store."""
        if self.bytes_requested == 0:
            return 0.0
        return max(0.0, 1.0 - self.bytes_transferred / self.bytes_requested)


class ScoopContext:
    """The assembled system: object store + active layer + analytics."""

    def __init__(
        self,
        account: str = "AUTH_scoop",
        storage_node_count: int = 4,
        disks_per_node: int = 2,
        proxy_count: int = 2,
        replica_count: int = 3,
        num_workers: int = 4,
        chunk_size: int = 1 * 2**20,
        controller: Optional[AdaptivePushdownController] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan=None,
        max_task_attempts: int = 3,
        parallelism: Optional[int] = None,
        proxy_concurrency: Optional[int] = 8,
        trace: Optional[bool] = None,
        qos=None,
        qos_clock=None,
        tenant: Optional[str] = None,
        sleeper: Optional[Callable[[float], None]] = None,
        # Accepted and ignored: there is one query path
        # (docs/concurrency.md); the keyword survives only because
        # benchmarks/hotpath/workloads.py passes it.
        async_mode: Optional[bool] = None,
        skipping: Optional[bool] = None,
        placement: Optional[str] = None,
    ):
        # Scheduler pool size: how many partition tasks run at once.
        # Defaults to the REPRO_PARALLELISM env var (CI runs the whole
        # suite at 8) and finally to 1 -- today's serial behavior.
        if parallelism is None:
            parallelism = int(os.environ.get("REPRO_PARALLELISM", "1"))
        self.parallelism = parallelism
        # Observability: each context installs a fresh span collector
        # and metrics registry so counters and traces never bleed
        # between stacks built in the same process (every tier resolves
        # get_collector()/get_registry() at call time).  ``trace=None``
        # defers to the REPRO_TRACE env var; True/False force it.
        if trace is None:
            trace = os.environ.get("REPRO_TRACE", "") not in ("", "0")
        self.tracer = set_collector(TraceCollector(enabled=trace))
        self.registry = set_registry(MetricsRegistry())
        self.engine = StorletEngine()
        self.cluster = SwiftCluster(
            storage_node_count=storage_node_count,
            disks_per_node=disks_per_node,
            proxy_count=proxy_count,
            replica_count=replica_count,
            proxy_middleware=[self.engine.proxy_middleware()],
            object_middleware=[self.engine.object_middleware()],
            proxy_concurrency=proxy_concurrency,
        )
        self.client = SwiftClient(
            self.cluster,
            account,
            retry_policy=retry_policy,
            # Bounded connection pool sized so the pool is never the
            # bottleneck below the configured parallelism but still
            # models a finite client (a real swiftclient keeps a small
            # connection pool per endpoint).
            max_connections=max(4, parallelism * 2),
            tenant=tenant,
            sleeper=sleeper,
        )
        # Object-level data skipping: ``skipping=None`` defers to the
        # REPRO_SKIPPING env var (the CI skipping job runs the whole
        # suite with the catalog armed); True/False force it.
        self.connector = StocatorConnector(
            self.client, chunk_size=chunk_size, skipping=skipping
        )
        # Pin the connector's mirror target so this context's boundary
        # counters survive a later context replacing the global registry.
        self.connector.metrics.registry = self.registry
        self.spark_context = SparkContext(
            "scoop",
            num_workers=num_workers,
            max_task_attempts=max_task_attempts,
            parallelism=parallelism,
        )
        self.session = SparkSession(self.spark_context)
        self.controller = controller
        self._last_report: Optional[QueryRunReport] = None
        # Cost-based placement (docs/placement.md): ``placement=None``
        # defers to the REPRO_PLACEMENT env var; when neither is set the
        # engine stays off and every task runs on the object node,
        # exactly as before.  With an engine installed,
        # registered relations consult it per query and ``run_query``
        # feeds actual byte counts back into its estimates.
        self.placement = engine_from_environment(placement)

        # Table format resolution: ``REPRO_FORMAT=columnar`` makes
        # :meth:`register_csv_table` convert uploaded CSV to RCF1 and
        # register the columnar relation instead (per-call ``format=``
        # overrides win).
        self.default_format = os.environ.get("REPRO_FORMAT", "csv")

        # Deploy the stock pushdown/ETL filters (stored as regular objects).
        self.engine.deploy(CsvStorlet(), self.client)
        self.engine.deploy(ColumnarStorlet(), self.client)
        self.engine.deploy(CsvToColumnarStorlet(), self.client)
        self.engine.deploy(AggregatingStorlet(), self.client)
        self.engine.deploy(CleansingStorlet(), self.client)
        self.engine.deploy(ColumnSplitStorlet(), self.client)
        self.engine.deploy(CompressStorlet(), self.client)
        self.engine.deploy(DecompressStorlet(), self.client)

        # Chaos wiring: installed after deployment so the control-plane
        # PUTs above run fault-free and every plan sees the same start.
        self.fault_plan = fault_plan
        self.fault_injector = None
        if fault_plan is not None:
            from repro.faults.inject import install_fault_plan

            self.fault_injector = install_fault_plan(
                self.cluster, fault_plan, engine=self.engine
            )

        # QoS wiring (docs/admission.md): also installed after the
        # storlet deployments, so control-plane PUTs never bill against
        # tenant quotas.  Brownout reads each storage node's cumulative
        # sandbox CPU through a lazily-bound gauge.
        self.qos = qos
        if qos is not None:
            self.cluster.install_qos(qos, clock=qos_clock)
            if qos.brownout_cpu_watermark is not None:
                for node_name in self.cluster.object_servers:
                    self.cluster.install_brownout_gauge(
                        node_name, self._node_cpu_gauge(node_name)
                    )

    def _node_cpu_gauge(self, node_name: str):
        """A gauge reading ``node_name``'s cumulative storlet CPU
        seconds (0.0 until its sandbox is warmed)."""

        def gauge() -> float:
            sandbox = self.engine.all_sandboxes().get(node_name)
            return sandbox.stats.cpu_seconds if sandbox is not None else 0.0

        return gauge

    # -- data management ----------------------------------------------------

    def upload_csv(
        self,
        container: str,
        name: str,
        data: Union[bytes, str],
        etl_schema: Optional[Schema] = None,
    ) -> str:
        """Upload a CSV object; with ``etl_schema``, cleanse it on the way
        in via the PUT-path ETL storlet policy."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        self.client.put_container(container)
        if etl_schema is not None:
            self.set_etl_policy(container, etl_schema)
        return self.client.put_object(container, name, data)

    def set_etl_policy(self, container: str, schema: Schema) -> None:
        """Enforce cleansing on every PUT into ``container``."""
        self.client.put_container(container)
        self.engine.clear_policies(self.client.account, container)
        self.engine.set_policy(
            self.client.account,
            container,
            StorletPolicy(
                storlet=CleansingStorlet.name,
                method="PUT",
                parameters={"schema": schema.to_header()},
            ),
        )

    def convert_csv_to_columnar(
        self,
        source_container: str,
        target_container: str,
        schema: Schema,
        prefix: str = "",
        has_header: bool = False,
        delimiter: str = ",",
        stripe_rows: Optional[int] = None,
        stripe_bytes: Optional[int] = None,
    ) -> List[str]:
        """Convert every CSV object of a container to RCF1 via the ETL path.

        Installs the ``csv2columnar`` storlet as a PUT policy on the
        target container, then has the store copy each source object
        through it (one server-side copy request per object) -- the
        paper's "compute at ingestion" move applied to format
        conversion: the store itself reads, parses, types and re-encodes
        the data while it is written, so no object body crosses the link
        to the compute cluster.

        ``stripe_bytes`` defaults to the connector's chunk size: stripes
        sized to the split granule give the scheduler as many columnar
        splits to speculate over as the row path has, so early-stopping
        plans (LIMIT) abandon a comparable share of the dataset.

        The target mirrors the source under ``prefix``: a ``.rcf``
        object there whose source is gone is deleted, so a re-conversion
        after a source DELETE cannot keep answering with its rows.  Each
        written object carries its source's name and etag
        (``x-object-meta-copied-from[-etag]``, stamped by the copy).
        """
        self.client.put_container(target_container)
        self.engine.clear_policies(self.client.account, target_container)
        if stripe_bytes is None:
            stripe_bytes = self.connector.chunk_size
        parameters = {
            "schema": schema.to_header(),
            "has_header": "true" if has_header else "false",
            "stripe_bytes": str(stripe_bytes),
        }
        if delimiter != ",":
            parameters["delimiter"] = delimiter
        if stripe_rows is not None:
            parameters["stripe_rows"] = str(stripe_rows)
        self.engine.set_policy(
            self.client.account,
            target_container,
            StorletPolicy(
                storlet=CsvToColumnarStorlet.name,
                method="PUT",
                parameters=parameters,
            ),
        )
        written = []
        for name in self.client.list_objects(
            source_container, prefix=prefix
        ):
            target_name = name.rsplit(".", 1)[0] + ".rcf"
            # Fresh metadata: the source's own catalog and ETL counters
            # describe the CSV, not the object being written.
            self.client.copy_object(
                source_container,
                name,
                target_container,
                target_name,
                headers={"content-type": "application/octet-stream"},
                fresh_metadata=True,
            )
            written.append(target_name)
        # A target named past ``prefix`` (suffix excluded) can only have
        # come from a source under it; one not just written has none.
        kept = set(written)
        for name in self.client.list_objects(target_container, prefix=prefix):
            if (
                name.endswith(".rcf")
                and len(name) - len(".rcf") >= len(prefix)
                and name not in kept
            ):
                self.client.delete_object(target_container, name)
        return written

    # -- table registration -----------------------------------------------------

    def register_csv_table(
        self,
        table: str,
        container: str,
        schema: Optional[Schema] = None,
        prefix: str = "",
        has_header: bool = False,
        pushdown: bool = True,
        compress_transfer: bool = False,
        tenant: str = "default",
        adaptive: bool = False,
        format: Optional[str] = None,
        agg_pushdown: Optional[bool] = None,
    ):
        """Register CSV data as a SQL table.

        ``format`` resolves against :attr:`default_format` (the
        ``REPRO_FORMAT`` env var): under ``columnar`` the CSV objects
        are first converted to RCF1 in a shadow container through the
        PUT-path ETL storlet and the *columnar* relation is registered
        instead -- byte-identical query results, columnar data plane.
        Pass ``format="csv"`` to pin the row path regardless of the
        environment.
        """
        decision = dict(
            pushdown=pushdown,
            compress_transfer=compress_transfer,
            tenant=tenant,
            adaptive=adaptive,
        )
        if (format or self.default_format) == "columnar":
            if schema is None:
                schema = infer_csv_schema(
                    self.connector, container, prefix, has_header
                )
            shadow = f"{container}--columnar"
            self.convert_csv_to_columnar(
                container, shadow, schema, prefix=prefix, has_header=has_header
            )
            return self.register_columnar_table(
                table, shadow, schema=schema, **decision
            )
        return self._register(
            CsvRelation,
            table,
            container,
            prefix=prefix,
            schema=schema,
            has_header=has_header,
            agg_pushdown=agg_pushdown,
            **decision,
        )

    def register_columnar_table(
        self,
        table: str,
        container: str,
        schema: Optional[Schema] = None,
        prefix: str = "",
        pushdown: bool = True,
        compress_transfer: bool = False,
        tenant: str = "default",
        adaptive: bool = False,
    ) -> ColumnarRelation:
        """Register RCF1 columnar data as a SQL table (schema defaults
        to the first object's footer)."""
        return self._register(
            ColumnarRelation,
            table,
            container,
            adaptive=adaptive,
            prefix=prefix,
            schema=schema,
            pushdown=pushdown,
            compress_transfer=compress_transfer,
            tenant=tenant,
        )

    def _register(
        self, relation_class, table: str, container: str, adaptive: bool, **options
    ):
        """Register a store relation as ``table``; its delegator gets
        this context's controller (when ``adaptive``) and engine."""
        relation = relation_class(
            self.spark_context,
            self.connector,
            container,
            controller=self.controller if adaptive else None,
            placement=self.placement,
            **options,
        )
        self.session.register_table(table, relation)
        return relation

    # -- querying -----------------------------------------------------------------

    def sql(self, text: str) -> DataFrame:
        return self.session.sql(text)

    def run_query(self, text: str) -> Tuple[DataFrame, QueryRunReport]:
        """Execute a query and report its ingestion cost.

        ``collect()`` drains the streaming scan inside the metering
        window, so the report reflects exactly the chunks the query
        pulled across the boundary: early-terminating plans (LIMIT
        without ORDER BY) stop their GETs and are charged accordingly.
        """
        metrics = self.connector.metrics
        before = (
            metrics.requests,
            metrics.bytes_transferred,
            metrics.bytes_requested,
            metrics.pushdown_requests,
            metrics.pushdown_fallbacks,
        )
        skipped_before = len(self.connector.catalog_skipped)
        decisions_before = (
            len(self.placement.decisions)
            if self.placement is not None
            else 0
        )
        frame = self.session.sql(text)
        rows = frame.collect()
        report = QueryRunReport(
            rows=len(rows),
            bytes_transferred=metrics.bytes_transferred - before[1],
            bytes_requested=metrics.bytes_requested - before[2],
            requests=metrics.requests - before[0],
            pushdown_requests=metrics.pushdown_requests - before[3],
            pushdown_fallbacks=metrics.pushdown_fallbacks - before[4],
            objects_skipped=(
                len(self.connector.catalog_skipped) - skipped_before
            ),
        )
        self._last_report = report
        if self.placement is not None:
            # Close the feedback loop: the actual kept fraction of this
            # run refines the engine's estimate for the same query shape.
            # Attribution is explicit -- only the decision(s) this very
            # query produced are candidates, so a run that made no
            # decision (controller veto, pushdown off) can never pollute
            # an earlier query's signature.  The byte counts carry a
            # selectivity signal only when pushdown actually executed on
            # a storage tier with no plain-ingest fallbacks mixed in;
            # otherwise bytes_transferred ~= bytes_requested no matter
            # how selective the query is, and observing would teach the
            # engine a bogus kept fraction of ~1.0.  Multi-relation
            # queries take several decisions whose bytes cannot be
            # apportioned from aggregate counters, so those are skipped
            # too.
            new_decisions = self.placement.decisions[decisions_before:]
            if (
                len(new_decisions) == 1
                and report.pushdown_requests > 0
                and report.pushdown_fallbacks == 0
            ):
                self.placement.observe_report(
                    report.bytes_requested,
                    report.bytes_transferred,
                    decision=new_decisions[0],
                )
        return frame, report

    def make_adaptive_controller(
        self,
        window_invocations: int = 50,
        **controller_kwargs,
    ) -> AdaptivePushdownController:
        """Build a Crystal-style controller probed from this context's
        own storlet sandboxes and install it.

        The probe estimates current storage CPU pressure from the CPU
        seconds the last ``window_invocations`` storlet invocations on
        storage nodes consumed, relative to what those nodes could have
        delivered over the same wall-clock span.
        """

        def probe() -> float:
            records = []
            for node, sandbox in self.engine.all_sandboxes().items():
                if node.startswith("storage"):
                    records.extend(sandbox.records)
            if not records:
                return 0.0
            recent = records[-window_invocations:]
            cpu = sum(record.cpu_seconds for record in recent)
            wall = sum(record.wall_seconds for record in recent)
            if wall <= 0:
                return 0.0
            node_count = max(1, len(self.cluster.object_servers))
            return min(1.0, cpu / (wall * node_count))

        controller = AdaptivePushdownController(
            storage_cpu_probe=probe, **controller_kwargs
        )
        self.controller = controller
        return controller

    # -- observability ---------------------------------------------------------------

    def resilience_summary(self) -> Dict[str, float]:
        """One flat view of every fault-absorption counter in the stack."""
        stats = self.client.stats
        summary: Dict[str, float] = {
            "client_requests": stats.requests,
            "client_retries": stats.retries,
            "client_backoff_seconds": stats.backoff_seconds,
            "client_exhausted": stats.exhausted,
            "get_failovers": self.cluster.counters["get_failovers"],
            "put_degraded": self.cluster.counters["put_degraded"],
            "task_retries": self.spark_context.task_retries(),
            "pushdown_fallbacks": self.connector.metrics.pushdown_fallbacks,
            "failed_devices": len(self.cluster.failed_devices),
        }
        if self.fault_plan is not None:
            summary["faults_injected"] = self.fault_plan.fired()
        return summary

    def concurrency_summary(self) -> Dict[str, object]:
        """Contention counters for the concurrent data path.

        Kept separate from :meth:`resilience_summary` on purpose: these
        are *timing-dependent* (how often a thread found a pool or proxy
        saturated) and therefore legitimately vary between runs, while
        the resilience summary is part of the determinism contract.
        """
        return {
            "parallelism": self.parallelism,
            "client_pool_waits": self.client.stats.pool_waits,
            "proxy_queue_waits": self.cluster.counters["proxy_queue_waits"],
            "proxy_peak_inflight": self.cluster.counters[
                "proxy_peak_inflight"
            ],
        }

    def qos_summary(self) -> Dict[str, object]:
        """Admission/QoS counters (docs/admission.md): sheds by cause,
        breaker rejections and states, brownout demotions, per-tenant
        ledgers, and the retries the client paced via ``Retry-After``.

        Like :meth:`concurrency_summary`, this is clock- and
        timing-dependent by nature and deliberately not part of the
        determinism-asserted :meth:`resilience_summary`.
        """
        summary = dict(self.cluster.qos_summary())
        summary["retry_after_honored"] = self.client.stats.retry_after_honored
        return summary

    def explain_profile(
        self,
        report: Optional[QueryRunReport] = None,
        predicted_selectivity: Optional[float] = None,
    ) -> Dict[str, object]:
        """Where the bytes went, tier by tier, for the work so far.

        Pulls every observability surface into one dict:

        ``tiers``
            Per-tier ``{bytes_in, bytes_out, spans}`` from the trace
            collector (empty when tracing is disabled -- pass
            ``trace=True`` to the constructor or set ``REPRO_TRACE=1``).
        ``selectivity``
            ``achieved`` is the fraction of requested bytes the store
            discarded (for ``report`` -- defaulting to the last
            ``run_query`` -- and cumulatively); ``predicted`` is the
            adaptive controller's latest online estimate when one is
            installed, or the explicit override.
        ``storlet_cpu_seconds``
            CPU charged to storage-node sandboxes.
        ``retry``
            The backoff schedule the client *actually slept through*
            (``schedule_taken``, seconds, in order), plus retry and
            exhaustion counts.
        ``skipped_objects``
            Partitioning skips: ``(container, object, reason)``.
        ``catalog``
            Object-level data skipping: whether the knob is armed,
            how many whole objects the catalog refuted so far (each one
            zero GETs), and which (``skipped`` lists
            ``(container, object)``).
        ``sql``
            Which path answered and what ran interpreted: ``queries``
            counts queries by path (``batch``: kernels over column
            batches, the one plan pipeline; ``agg_pushdown``:
            aggregated at the store), and ``kernel_refusals`` lists
            each expression the fused compiler refused -- it ran as an
            interpreted kernel, ``bind`` looped over the batch -- with
            its stable ``reason`` code and ``count``; ``filters`` counts WHERE conjuncts by what became
            of them (``handled`` by the source and gone from the plan,
            ``unhandled``: pushed and re-applied, ``residual``: never
            pushed).
        ``delegation``
            Why scans did or did not push down: a ``count`` per
            ``outcome`` (``pushed`` / ``plain``) and ``reason``, the
            :class:`~repro.core.delegator.DelegationRecord` code.
        """
        if report is None:
            report = self._last_report
        if (
            predicted_selectivity is None
            and self.controller is not None
            and self.controller.decisions
        ):
            predicted_selectivity = self.controller.decisions[
                -1
            ].estimated_selectivity
        metrics = self.connector.metrics
        cumulative = 0.0
        if metrics.bytes_requested > 0:
            cumulative = max(
                0.0,
                1.0 - metrics.bytes_transferred / metrics.bytes_requested,
            )
        stats = self.client.stats
        profile: Dict[str, object] = {
            "tiers": self.tracer.byte_totals(),
            "trace_spans": len(self.tracer.snapshot()),
            "selectivity": {
                "achieved": (
                    report.data_selectivity if report is not None else None
                ),
                "achieved_cumulative": cumulative,
                "predicted": predicted_selectivity,
            },
            "storlet_cpu_seconds": self.storage_cpu_seconds(),
            "retry": {
                "schedule_taken": list(stats.delays),
                "retries": stats.retries,
                "exhausted": stats.exhausted,
            },
            "skipped_objects": list(self.connector.skipped_objects),
            "catalog": {
                "enabled": self.connector.skipping,
                "objects_skipped": len(self.connector.catalog_skipped),
                "skipped": list(self.connector.catalog_skipped),
            },
        }

        def counted(name: str) -> List[Dict[str, object]]:
            series = self.registry.counter_series(name)
            return [{**labels, "count": int(count)} for labels, count in series]

        profile["sql"] = {
            "queries": {
                labels["path"]: int(count)
                for labels, count in self.registry.counter_series("sql.queries")
            },
            "kernel_refusals": counted("sql.kernel_refusals"),
            "filters": {
                labels["disposition"]: int(count)
                for labels, count in self.registry.counter_series("sql.filters")
            },
        }
        profile["delegation"] = counted("core.delegations")
        if self.placement is not None:
            profile["placement"] = self.placement.explain()
        if self.fault_plan is not None:
            profile["faults_injected"] = self.fault_plan.fired()
        return profile

    def storage_cpu_seconds(self) -> float:
        """Total CPU charged to storage-node sandboxes so far."""
        return sum(
            sandbox.stats.cpu_seconds
            for node, sandbox in self.engine.all_sandboxes().items()
            if node.startswith("storage")
        )

    def sandbox_summary(self) -> Dict[str, Dict[str, float]]:
        return {
            node: {
                "invocations": sandbox.stats.invocations,
                "bytes_in": sandbox.stats.bytes_in,
                "bytes_out": sandbox.stats.bytes_out,
                "cpu_seconds": sandbox.stats.cpu_seconds,
                "discard_ratio": sandbox.stats.discard_ratio(),
            }
            for node, sandbox in self.engine.all_sandboxes().items()
        }
