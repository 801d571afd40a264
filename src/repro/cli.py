"""Command-line interface: ``python -m repro <command>``.

Commands:

``demo``
    The quickstart flow: upload generated meter data, run a query with
    and without pushdown, print results + ingest savings.
``generate``
    Write a synthetic GridPocket dataset as CSV files to a directory.
``experiment``
    Regenerate one (or all) of the paper's tables/figures and print it.
``queries``
    List the seven Table-I GridPocket queries.
``chaos``
    Run the Table-I queries under a seeded fault plan and verify the
    results match a fault-free run (the resilience acceptance check).
``trace``
    Run one traced pushdown query and export every tier's spans as
    JSON or Chrome ``trace_event`` format (chrome://tracing, Perfetto).
``bench``
    Run the paper's evaluation artifacts as named experiments
    (``BENCH_<name>.json`` + a Chrome trace each), regenerate
    EXPERIMENTS.md from the measured JSON, or gate drift/regressions
    (docs/benchmarking.md).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List, Optional

EXPERIMENT_NAMES = (
    "fig1",
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "staging",
    "chunks",
    "compression",
    "adaptive",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scoop (ICDE 2017) reproduction: object-store SQL pushdown"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="end-to-end pushdown demo")
    demo.add_argument("--meters", type=int, default=50)
    demo.add_argument("--intervals", type=int, default=1000)
    _add_resilience_options(demo)

    generate = commands.add_parser(
        "generate", help="write a synthetic dataset as CSV files"
    )
    generate.add_argument("out_dir", type=pathlib.Path)
    generate.add_argument("--meters", type=int, default=100)
    generate.add_argument("--intervals", type=int, default=1440)
    generate.add_argument("--interval-minutes", type=int, default=10)
    generate.add_argument("--objects", type=int, default=4)
    generate.add_argument("--seed", type=int, default=20170417)
    generate.add_argument(
        "--header", action="store_true", help="prepend a header line"
    )

    experiment = commands.add_parser(
        "experiment", help="regenerate a table/figure of the paper"
    )
    experiment.add_argument(
        "name", choices=EXPERIMENT_NAMES + ("all",), help="which artifact"
    )

    commands.add_parser("queries", help="list the Table-I queries")

    chaos = commands.add_parser(
        "chaos",
        help="run the Table-I queries under fault injection and verify "
        "results against a fault-free run",
    )
    chaos.add_argument("--meters", type=int, default=25)
    chaos.add_argument("--intervals", type=int, default=96)
    _add_resilience_options(chaos)

    trace = commands.add_parser(
        "trace",
        help="run a traced pushdown query and export the spans",
    )
    trace.add_argument("--meters", type=int, default=25)
    trace.add_argument("--intervals", type=int, default=96)
    trace.add_argument(
        "--format",
        choices=("json", "chrome"),
        default="json",
        help=(
            "json: span list + per-tier byte totals; chrome: "
            "trace_event format for chrome://tracing / Perfetto"
        ),
    )
    trace.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the export to a file instead of stdout",
    )
    _add_resilience_options(trace)

    bench = commands.add_parser(
        "bench",
        help="run paper experiments, generate reports, gate drift",
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_commands.add_parser(
        "run", help="run experiments and capture BENCH_<name>.json"
    )
    bench_run.add_argument(
        "--figures",
        default="all",
        help=(
            "comma-separated experiment names (e.g. fig5,fig10) or "
            "'all' (default)"
        ),
    )
    bench_run.add_argument(
        "--quick",
        action="store_true",
        help="shrink the expensive functional stages (CI-sized run)",
    )
    bench_run.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=pathlib.Path("results"),
        help="directory for BENCH_<name>.json + trace files "
        "(default: results)",
    )
    bench_run.add_argument(
        "--arrivals",
        type=int,
        default=None,
        help=(
            "workday experiment: total query arrivals to simulate "
            "(default: 20000 full / 2000 quick); other experiments "
            "ignore it"
        ),
    )
    bench_run.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="prior results directory to gate regressions against",
    )
    bench_run.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative headline drift allowed vs --baseline "
        "(default: 0.05)",
    )

    bench_report = bench_commands.add_parser(
        "report", help="regenerate EXPERIMENTS.md from measured JSON"
    )
    bench_report.add_argument(
        "--results",
        type=pathlib.Path,
        default=pathlib.Path("results"),
        help="directory holding BENCH_<name>.json (default: results)",
    )
    bench_report.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("EXPERIMENTS.md"),
        help="document to (re)generate (default: EXPERIMENTS.md)",
    )
    bench_report.add_argument(
        "--check",
        action="store_true",
        help="diff the committed document against a regeneration "
        "instead of writing; non-zero exit on drift",
    )

    bench_commands.add_parser(
        "list", help="list the registered experiments"
    )
    return parser


#: ``repro bench --figures ...`` (no subcommand) is sugar for
#: ``repro bench run ...``; these are the tokens that suppress it.
_BENCH_SUBCOMMANDS = ("run", "report", "list")


def _normalize_argv(argv: List[str]) -> List[str]:
    """Insert the implicit ``run`` after a bare ``bench`` command."""
    for index, token in enumerate(argv):
        if token.startswith("-"):
            continue
        if token != "bench":
            return argv
        rest = argv[index + 1:]
        if rest and rest[0] in _BENCH_SUBCOMMANDS + ("-h", "--help"):
            return argv
        return argv[: index + 1] + ["run"] + rest
    return argv


def _add_resilience_options(parser: argparse.ArgumentParser) -> None:
    from repro.faults.plans import NAMED_PLANS

    parser.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help=(
            "concurrent partition tasks per stage (default: 1, today's "
            "serial behavior); results are identical at any setting"
        ),
    )
    parser.add_argument(
        "--skipping",
        action="store_true",
        help=(
            "arm the object-level data-skipping catalog (also: "
            "REPRO_SKIPPING=1): whole objects whose per-column stats "
            "refute the query's filters are skipped with zero GETs; "
            "results are identical either way (docs/skipping.md)"
        ),
    )
    parser.add_argument(
        "--placement",
        choices=("adaptive", "object", "proxy", "compute"),
        default=None,
        help=(
            "cost-based pushdown placement (also: REPRO_PLACEMENT): "
            "adaptive picks the cheapest tier per query from the "
            "calibrated cost model, the fixed choices pin it; unset "
            "runs every task on the object node (docs/placement.md)"
        ),
    )
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--retries",
        type=int,
        default=4,
        help="client request attempts per operation (default: 4)",
    )
    group.add_argument(
        "--backoff-base",
        type=float,
        default=0.05,
        help="first retry backoff in seconds (default: 0.05)",
    )
    group.add_argument(
        "--fault-seed",
        type=int,
        default=20170417,
        help="seed fixing the injected fault sequence",
    )
    group.add_argument(
        "--fault-plan",
        choices=NAMED_PLANS,
        default="none",
        help="named fault plan to inject (default: none)",
    )
    qos = parser.add_argument_group("admission control (docs/admission.md)")
    qos.add_argument(
        "--tenant",
        default=None,
        help="tenant this run's requests bill against (default: anonymous)",
    )
    qos.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        help=(
            "sustained requests/second the tenant may issue; enables "
            "token-bucket admission (over-quota requests shed with 429)"
        ),
    )
    qos.add_argument(
        "--tenant-burst",
        type=float,
        default=None,
        help="token-bucket burst size (default: 2x --tenant-rate)",
    )
    qos.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help=(
            "bound on queued requests per saturated proxy; beyond it "
            "requests shed with 503 + Retry-After (default: unbounded)"
        ),
    )


def _resilience_context(args, **context_kwargs):
    from repro.core import ScoopContext
    from repro.faults.plans import named_plan
    from repro.swift.retry import RetryPolicy

    policy = RetryPolicy(
        max_attempts=args.retries,
        backoff_base=args.backoff_base,
        seed=args.fault_seed,
    )
    plan = None
    if args.fault_plan != "none":
        plan = named_plan(args.fault_plan, seed=args.fault_seed)
    qos = None
    tenant = getattr(args, "tenant", None)
    rate = getattr(args, "tenant_rate", None)
    queue_depth = getattr(args, "queue_depth", None)
    if rate is not None or queue_depth is not None:
        from repro.qos import QosConfig, TenantQuota

        quota = None
        if rate is not None:
            quota = TenantQuota(
                name=tenant or "anonymous",
                request_rate=rate,
                request_burst=getattr(args, "tenant_burst", None) or rate * 2,
            )
        qos = QosConfig(
            tenants=(quota,) if quota is not None else (),
            max_queue_depth=queue_depth,
        )
    # CLI QoS runs off the real monotonic clock, so Retry-After pacing
    # must really sleep — otherwise every retry of a shed request fires
    # instantly and is shed again.
    sleeper = time.sleep if qos is not None else None
    return ScoopContext(
        retry_policy=policy,
        fault_plan=plan,
        parallelism=getattr(args, "parallelism", None),
        qos=qos,
        tenant=tenant,
        sleeper=sleeper,
        # --skipping forces the catalog on; without it the
        # REPRO_SKIPPING env default still applies (skipping=None).
        skipping=True if getattr(args, "skipping", False) else None,
        # And for --placement and REPRO_PLACEMENT (None = engine off).
        placement=getattr(args, "placement", None),
        **context_kwargs,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to a subcommand; returns exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_normalize_argv(list(argv)))
    if args.command == "demo":
        return _demo(args)
    if args.command == "generate":
        return _generate(args)
    if args.command == "experiment":
        return _experiment(args)
    if args.command == "queries":
        return _queries()
    if args.command == "chaos":
        return _chaos(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "bench":
        return _bench(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _bench(args) -> int:
    from repro.bench import (
        check_document,
        compare_to_baseline,
        experiment_names,
        load_results,
        run_suite,
        write_report,
    )
    from repro.bench.experiments import EXPERIMENTS

    if args.bench_command == "list":
        for name in experiment_names():
            print(f"{name}: {EXPERIMENTS[name].title}")
        return 0

    if args.bench_command == "report":
        if args.check:
            try:
                diff = check_document(args.results, args.out)
            except (FileNotFoundError, ValueError) as error:
                print(f"report check failed: {error}", file=sys.stderr)
                return 1
            if diff:
                print(
                    f"{args.out} drifted from {args.results}:",
                    file=sys.stderr,
                )
                for line in diff[:80]:
                    print(line, file=sys.stderr)
                return 1
            print(f"{args.out} matches {args.results}")
            return 0
        write_report(args.results, args.out)
        print(f"wrote {args.out} from {args.results}")
        return 0

    # bench run
    if args.figures.strip().lower() == "all":
        names = experiment_names()
    else:
        names = [
            token.strip()
            for token in args.figures.split(",")
            if token.strip()
        ]
    mode = "quick" if args.quick else "full"

    def progress(name, document):
        """Print a one-line summary as each experiment completes."""
        checks = document["checks"]
        passed = sum(1 for check in checks if check["passed"])
        wall = document["timing"]["wall_seconds"]
        print(
            f"  {name}: {passed}/{len(checks)} checks, "
            f"{document['trace']['spans']} spans, {wall:.2f}s"
        )

    options = {}
    if args.arrivals is not None:
        options["workday_arrivals"] = args.arrivals
    print(f"running {len(names)} experiment(s) ({mode}) -> {args.out_dir}")
    try:
        documents = run_suite(
            names,
            quick=args.quick,
            out_dir=args.out_dir,
            progress=progress,
            options=options,
        )
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    failed = [
        (document["experiment"], check)
        for document in documents
        for check in document["checks"]
        if not check["passed"]
    ]
    for name, check in failed:
        print(
            f"FAILED check [{name}] {check['name']}: {check['detail']}",
            file=sys.stderr,
        )
    if args.baseline is not None:
        try:
            regressions = compare_to_baseline(
                documents, args.baseline, args.tolerance
            )
        except (FileNotFoundError, ValueError) as error:
            print(f"baseline compare failed: {error}", file=sys.stderr)
            return 1
        for line in regressions:
            print(f"REGRESSION vs {args.baseline}: {line}", file=sys.stderr)
        if regressions:
            return 1
    # Surface what was captured (also proves the directory round-trips).
    load_results(args.out_dir)
    print(f"captured {len(documents)} BENCH document(s) in {args.out_dir}")
    return 1 if failed else 0


def _demo(args) -> int:
    from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset

    ctx = _resilience_context(args)
    spec = DatasetSpec(
        meters=args.meters, intervals=args.intervals, objects=4
    )
    sizes = upload_dataset(ctx.client, "meters", spec)
    print(f"uploaded {sum(sizes.values()):,} bytes over {len(sizes)} objects")
    ctx.register_csv_table("largeMeter", "meters", schema=METER_SCHEMA)
    ctx.register_csv_table(
        "plain", "meters", schema=METER_SCHEMA, pushdown=False
    )
    sql = (
        "SELECT vid, sum(index) AS total FROM {} "
        "WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01%' "
        "GROUP BY vid ORDER BY vid LIMIT 10"
    )
    frame, report = ctx.run_query(sql.format("largeMeter"))
    plain_frame, plain_report = ctx.run_query(sql.format("plain"))
    assert frame.collect() == plain_frame.collect()
    frame.show()
    print(
        f"\npushdown moved {report.bytes_transferred:,} bytes; "
        f"plain ingest moved {plain_report.bytes_transferred:,} "
        f"(data selectivity {report.data_selectivity:.1%})"
    )
    if ctx.fault_plan is not None:
        _print_resilience(ctx)
    return 0


def _chaos(args) -> int:
    from repro.gridpocket import (
        DatasetSpec,
        GRIDPOCKET_QUERIES,
        METER_SCHEMA,
        upload_dataset,
    )

    spec = DatasetSpec(
        meters=args.meters, intervals=args.intervals, objects=3
    )

    def run_all(ctx):
        """Upload the corpus and run every Table-I query on ``ctx``."""
        upload_dataset(ctx.client, "meters", spec)
        ctx.register_csv_table("largeMeter", "meters", schema=METER_SCHEMA)
        results = {}
        for query in GRIDPOCKET_QUERIES:
            frame, _report = ctx.run_query(query.sql("largeMeter"))
            results[query.name] = frame.collect()
        return results

    from repro.core import ScoopContext

    print("running fault-free baseline...")
    baseline = run_all(
        ScoopContext(chunk_size=48 * 1024, parallelism=args.parallelism)
    )

    print(
        f"running plan {args.fault_plan!r} (seed {args.fault_seed})..."
    )
    ctx = _resilience_context(args, chunk_size=48 * 1024)
    faulted = run_all(ctx)

    mismatched = [
        name for name in baseline if baseline[name] != faulted[name]
    ]
    _print_resilience(ctx)
    if mismatched:
        print(f"FAIL: results diverged for {', '.join(mismatched)}")
        return 1
    print(f"OK: all {len(baseline)} queries byte-identical to baseline")
    return 0


def _trace(args) -> int:
    import json

    from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset

    ctx = _resilience_context(args, trace=True)
    spec = DatasetSpec(
        meters=args.meters, intervals=args.intervals, objects=3
    )
    upload_dataset(ctx.client, "meters", spec)
    ctx.register_csv_table("largeMeter", "meters", schema=METER_SCHEMA)
    # A selective-but-matching predicate: the trace must show data
    # actually moving through the connector tier (a predicate no row
    # satisfies would let columnar stripe pruning skip every GET and
    # leave nothing to trace).
    _frame, report = ctx.run_query(
        "SELECT vid, index, city FROM largeMeter "
        "WHERE city LIKE 'R%'"
    )

    # The invariant the trace is for: connector span bytes reconcile
    # exactly with the transfer metrics.
    totals = ctx.tracer.byte_totals()
    connector_bytes = totals.get("connector", {}).get("bytes_out", 0)
    if connector_bytes != ctx.connector.metrics.bytes_transferred:
        print(
            "trace/metrics mismatch: "
            f"{connector_bytes} != "
            f"{ctx.connector.metrics.bytes_transferred}",
            file=sys.stderr,
        )
        return 1

    if args.format == "chrome":
        exported = ctx.tracer.export_chrome()
    else:
        exported = ctx.tracer.export_json()
    text = json.dumps(exported, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)
    span_count = len(ctx.tracer.snapshot())
    print(
        f"{span_count} spans across {len(totals)} tiers; "
        f"query moved {report.bytes_transferred:,} bytes "
        f"(selectivity {report.data_selectivity:.1%})",
        file=sys.stderr,
    )
    return 0


def _print_resilience(ctx) -> None:
    print("resilience counters:")
    for key, value in sorted(ctx.resilience_summary().items()):
        print(f"  {key}: {value}")


def _generate(args) -> int:
    from repro.gridpocket import DatasetSpec, METER_SCHEMA
    from repro.gridpocket.generator import MeterDataGenerator

    spec = DatasetSpec(
        meters=args.meters,
        intervals=args.intervals,
        interval_minutes=args.interval_minutes,
        objects=args.objects,
        seed=args.seed,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    for name, data in MeterDataGenerator(spec).csv_objects():
        target = args.out_dir / name
        if args.header:
            header = (",".join(METER_SCHEMA.names) + "\n").encode()
            data = header + data
        target.write_bytes(data)
        total += len(data)
        print(f"  wrote {target} ({len(data):,} bytes)")
    print(f"{spec.total_rows():,} rows, {total:,} bytes total")
    return 0


def _experiment(args) -> int:
    from repro import experiments as exp

    chosen = EXPERIMENT_NAMES if args.name == "all" else (args.name,)
    for name in chosen:
        _run_experiment(exp, name)
    return 0


def _run_experiment(exp, name: str) -> None:
    if name == "fig1":
        points = exp.fig1_ingest_scaling()
        exp.render_table(
            "Fig. 1 -- ingest-then-compute vs dataset size",
            ["GB", "seconds"],
            [[p.dataset_gb, p.query_seconds] for p in points],
        )
    elif name == "table1":
        exp.render_table(
            "Table I -- GridPocket query selectivities",
            ["query", "col", "row", "data", "paper data"],
            [row.as_row() for row in exp.table1_selectivities()],
        )
    elif name == "fig5":
        points = exp.fig5_speedup_grid()
        exp.render_table(
            "Fig. 5 -- S_Q vs selectivity",
            ["dataset", "type", "selectivity", "S_Q"],
            [
                [p.dataset, p.selectivity_type, p.selectivity, p.speedup]
                for p in points
            ],
        )
    elif name == "fig6":
        points = exp.fig6_high_selectivity()
        exp.render_table(
            "Fig. 6 -- S_Q at high selectivity",
            ["dataset", "selectivity", "S_Q"],
            [[p.dataset, p.selectivity, p.speedup] for p in points],
        )
    elif name == "fig7":
        rows = exp.fig7_gridpocket_speedups()
        exp.render_table(
            "Fig. 7 -- GridPocket query speedups",
            ["query", "dataset", "sel", "plain s", "scoop s", "S_Q"],
            [r.as_row() for r in rows],
        )
    elif name == "fig8":
        points = exp.fig8_parquet_comparison()
        exp.render_table(
            "Fig. 8 -- Scoop vs Parquet",
            ["selectivity", "scoop", "parquet"],
            [
                [p.selectivity, p.scoop_speedup, p.parquet_speedup]
                for p in points
            ],
        )
    elif name == "fig9":
        summary = exp.fig9_resource_usage().summary()
        exp.render_table(
            "Fig. 9 -- resource usage (3TB, 99% selectivity)",
            ["metric", "value"],
            sorted(summary.items()),
        )
    elif name == "fig10":
        plain, pushdown = exp.fig10_storage_cpu()
        exp.render_table(
            "Fig. 10 -- storage CPU",
            ["series", "mean", "peak"],
            [
                ["plain", plain.mean(), plain.peak()],
                ["scoop", pushdown.mean(), pushdown.peak()],
            ],
        )
    elif name == "staging":
        exp.render_table(
            "Ablation -- staging",
            ["selectivity", "object s", "proxy s"],
            [
                [r.selectivity, r.object_node_seconds, r.proxy_seconds]
                for r in exp.ablation_staging()
            ],
        )
    elif name == "chunks":
        exp.render_table(
            "Ablation -- chunk size",
            ["chunk MB", "tasks", "seconds"],
            [
                [r.chunk_mb, r.task_count, r.pushdown_seconds]
                for r in exp.ablation_chunk_size()
            ],
        )
    elif name == "compression":
        exp.render_table(
            "Ablation -- filter + compression",
            ["selectivity", "pushdown", "pushdown+zlib", "parquet"],
            [
                [
                    r.selectivity,
                    r.pushdown_speedup,
                    r.compressed_speedup,
                    r.parquet_speedup,
                ]
                for r in exp.ablation_filter_plus_compression()
            ],
        )
    elif name == "adaptive":
        exp.render_table(
            "Ablation -- adaptive pushdown",
            ["storage cpu", "gold", "silver", "bronze"],
            [
                [s.storage_cpu, s.gold_pushed, s.silver_pushed, s.bronze_pushed]
                for s in exp.ablation_adaptive_pushdown()
            ],
        )


def _queries() -> int:
    from repro.gridpocket import GRIDPOCKET_QUERIES

    for query in GRIDPOCKET_QUERIES:
        print(f"{query.name}: {query.description}")
        print(f"  {query.sql('largeMeter')}")
        print(
            f"  paper selectivity: data {query.paper_data_selectivity}%"
            f" / rows {query.paper_row_selectivity}%"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
