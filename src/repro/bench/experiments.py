"""The named-experiment registry behind ``repro bench``.

One entry per evaluation artifact of the paper (Figs. 1 and 5-10,
Table I, the ablation set, the workday replay).  Each runner drives the
same :mod:`repro.experiments` functions the benchmark suite uses, but
through a :class:`~repro.bench.orchestrator.BenchContext`: every
simulation point is wrapped in a ``bench``-tier trace span and timed
into the fixed-bucket latency/CPU histograms, results land in tables
and a machine-readable ``headline``, and the suite's assertions become
recorded pass/fail ``checks`` instead of bare ``assert`` statements --
so a failing expectation is visible in ``BENCH_<name>.json`` and in the
generated EXPERIMENTS.md rather than only in a pytest traceback.

``quick`` mode shrinks only the expensive functional stages (the
Table-I sample, the concurrent-simulation replays); the pure
performance-model sweeps are already fast and run at full size either
way, so every check holds in both modes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.experiments.ablations import (
    ablation_adaptive_pushdown,
    ablation_chunk_size,
    ablation_filter_plus_compression,
    ablation_staging,
)
from repro.experiments.figures import (
    fig1_ingest_scaling,
    fig5_speedup_grid,
    fig8_crossover,
    fig8_parquet_comparison,
    fig9_resource_usage,
)
from repro.experiments.gridpocket_runs import (
    TABLE1_SAMPLE_SPEC,
    Table1Row,
    fig7_gridpocket_speedups,
    fig7_total_batch_seconds,
    table1_selectivities,
)
from repro.experiments.frontend import replay_workday_frontend
from repro.experiments.placement import (
    EXECUTION_MODES,
    PLACEMENT_MODES,
    groupby_fault_identity,
    model_sweep as placement_model_sweep,
    placement_identity_sweep,
)
from repro.experiments.skipping import fault_identity, skipping_sweep
from repro.faults import NAMED_PLANS
from repro.experiments.workday import (
    simulate_multitenant_workday,
    simulate_workday,
)
from repro.gridpocket.generator import DatasetSpec
from repro.perfmodel.concurrent import neighbour_impact
from repro.perfmodel.parameters import DATASETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.orchestrator import BenchContext

#: Quick-mode Table-I sample: fewer meters but the same 10-year span,
#: so the one-month queries keep their >99% row selectivity (shrinking
#: the span instead would break the paper's defining property).
TABLE1_QUICK_SPEC = DatasetSpec(
    meters=12, intervals=3650, interval_minutes=1440, start="2010-01-01"
)


@functools.lru_cache(maxsize=2)
def measured_table1(quick: bool) -> Tuple[Table1Row, ...]:
    """Functional Table-I measurements, cached per mode (the sample
    generation dominates; fig7/workday/table1 all share one pass)."""
    spec = TABLE1_QUICK_SPEC if quick else TABLE1_SAMPLE_SPEC
    return tuple(table1_selectivities(spec))


@dataclass(frozen=True)
class Experiment:
    """One named, runnable evaluation artifact."""

    name: str
    title: str
    paper: str
    runner: Callable[["BenchContext"], None]
    #: Static prose carried into the generated EXPERIMENTS.md section.
    notes: Tuple[str, ...] = field(default=())


def _pct(value: float) -> str:
    return f"{value * 100:.2f}%"


# --------------------------------------------------------------------------
# Fig. 1
# --------------------------------------------------------------------------


def _run_fig1(bench: "BenchContext") -> None:
    sizes_gb = (5, 10, 20, 30, 40, 50)
    points = []
    for size_gb in sizes_gb:
        with bench.point(f"plain ingest {size_gb}GB"):
            (point,) = fig1_ingest_scaling((size_gb,))
        bench.record_sim_seconds(point.query_seconds, mode="plain")
        points.append(point)
    bench.add_table(
        "Fig. 1 -- ingest-then-compute query time vs dataset size",
        ["dataset (GB)", "query time (s)", "s/GB"],
        [
            [p.dataset_gb, round(p.query_seconds, 1),
             round(p.query_seconds / p.dataset_gb, 2)]
            for p in points
        ],
    )
    bench.set_result(
        "points",
        [{"dataset_gb": p.dataset_gb, "query_seconds": p.query_seconds}
         for p in points],
    )
    marginal = [
        (points[i + 1].query_seconds - points[i].query_seconds)
        / (points[i + 1].dataset_gb - points[i].dataset_gb)
        for i in range(len(points) - 1)
    ]
    spread = max(marginal) - min(marginal)
    bench.set_headline("seconds_per_gb_at_50gb",
                       points[-1].query_seconds / points[-1].dataset_gb)
    bench.check(
        "linear growth (constant marginal cost)",
        spread < 0.25 * max(marginal),
        f"marginal s/GB spread {spread:.3f} vs max {max(marginal):.3f}",
    )


# --------------------------------------------------------------------------
# Table I
# --------------------------------------------------------------------------


def _run_table1(bench: "BenchContext") -> None:
    with bench.point("measure Table-I selectivities"):
        rows = measured_table1(bench.quick)
    bench.add_table(
        "Table I -- GridPocket query selectivities (measured vs paper)",
        ["query", "column sel.", "row sel.", "data sel.", "paper data sel."],
        [list(row.as_row()) for row in rows],
    )
    bench.set_result(
        "queries",
        [
            {
                "name": row.name,
                "column_selectivity": row.measured.column_selectivity,
                "row_selectivity": row.measured.row_selectivity,
                "data_selectivity": row.measured.data_selectivity,
                "paper_data_selectivity": row.query.paper_data_selectivity,
            }
            for row in rows
        ],
    )
    bench.set_headline(
        "min_data_selectivity",
        min(row.measured.data_selectivity for row in rows),
    )
    bench.check("all seven queries measured", len(rows) == 7,
                f"{len(rows)} rows")
    worst = min(rows, key=lambda r: r.measured.data_selectivity)
    bench.check(
        ">99% of bytes never leave the store",
        all(r.measured.row_selectivity > 0.99
            and r.measured.data_selectivity > 0.99 for r in rows),
        f"worst: {worst.name} at {_pct(worst.measured.data_selectivity)}",
    )


# --------------------------------------------------------------------------
# Fig. 5 / Fig. 6
# --------------------------------------------------------------------------

_FIG5_SELECTIVITIES = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)


def _run_fig5(bench: "BenchContext") -> None:
    points = []
    for dataset in ("small", "large"):
        for kind in ("row", "column", "mixed"):
            with bench.point(f"sweep {dataset}/{kind}"):
                points.extend(
                    fig5_speedup_grid(_FIG5_SELECTIVITIES, (kind,), (dataset,))
                )
    for dataset in ("small", "large"):
        bench.add_table(
            f"Fig. 5 -- S_Q vs data selectivity ({dataset} dataset)",
            ["selectivity", "S_Q row", "S_Q column", "S_Q mixed"],
            [
                [f"{selectivity * 100:.0f}%"]
                + [
                    round(next(
                        p.speedup for p in points
                        if p.dataset == dataset
                        and p.selectivity == selectivity
                        and p.selectivity_type == kind
                    ), 2)
                    for kind in ("row", "column", "mixed")
                ]
                for selectivity in _FIG5_SELECTIVITIES
            ],
        )
    bench.set_result(
        "points",
        [
            {
                "dataset": p.dataset,
                "selectivity": p.selectivity,
                "type": p.selectivity_type,
                "speedup": p.speedup,
            }
            for p in points
        ],
    )
    large_mixed = {
        p.selectivity: p.speedup for p in points
        if p.dataset == "large" and p.selectivity_type == "mixed"
    }
    small_mixed = {
        p.selectivity: p.speedup for p in points
        if p.dataset == "small" and p.selectivity_type == "mixed"
    }
    bench.set_headline("sq_3tb_mixed_80", large_mixed[0.8])
    bench.set_headline("sq_3tb_mixed_90", large_mixed[0.9])
    bench.check("S_Q ~ 1 at zero selectivity (paper: worst-case -3.4%)",
                abs(large_mixed[0.0] - 1.0) <= 0.1,
                f"S_Q {large_mixed[0.0]:.3f}")
    bench.check("80% selectivity gives ~5x (paper Fig. 5)",
                abs(large_mixed[0.8] - 5.0) <= 5.0 * 0.3,
                f"S_Q {large_mixed[0.8]:.2f}")
    bench.check("superlinear growth past 80%",
                large_mixed[0.9] > large_mixed[0.8] * 1.7,
                f"{large_mixed[0.9]:.2f} vs {large_mixed[0.8]:.2f}")
    bench.check("larger dataset wins at equal selectivity",
                large_mixed[0.9] > small_mixed[0.9],
                f"3TB {large_mixed[0.9]:.2f} vs 50GB {small_mixed[0.9]:.2f}")


_FIG6_SELECTIVITIES = (0.9, 0.95, 0.99, 0.999, 0.9999)


def _run_fig6(bench: "BenchContext") -> None:
    points = []
    for dataset in ("small", "medium", "large"):
        with bench.point(f"sweep {dataset}"):
            points.extend(
                fig5_speedup_grid(_FIG6_SELECTIVITIES, ("mixed",), (dataset,))
            )
    bench.add_table(
        "Fig. 6 -- S_Q at high data selectivity",
        ["selectivity", "S_Q 50GB", "S_Q 500GB", "S_Q 3TB"],
        [
            [f"{selectivity * 100:.2f}%"]
            + [
                round(next(
                    p.speedup for p in points
                    if p.dataset == dataset and p.selectivity == selectivity
                ), 2)
                for dataset in ("small", "medium", "large")
            ]
            for selectivity in _FIG6_SELECTIVITIES
        ],
    )
    best = {
        dataset: max(p.speedup for p in points if p.dataset == dataset)
        for dataset in ("small", "medium", "large")
    }
    bench.set_result("best_speedup", best)
    bench.set_headline("sq_best_3tb", best["large"])
    bench.check("headline: up to ~31x on 3TB", 20 < best["large"] < 45,
                f"best {best['large']:.1f}x")
    bench.check("ordering by dataset size",
                best["small"] < best["medium"] < best["large"],
                f"{best['small']:.1f} < {best['medium']:.1f} "
                f"< {best['large']:.1f}")
    bench.check(
        "diminishing returns 500GB -> 3TB (resource saturation)",
        (best["large"] - best["medium"]) < (best["medium"] - best["small"]),
        f"gaps {best['large'] - best['medium']:.1f} "
        f"vs {best['medium'] - best['small']:.1f}",
    )


# --------------------------------------------------------------------------
# Fig. 7
# --------------------------------------------------------------------------


def _run_fig7(bench: "BenchContext") -> None:
    table1 = list(measured_table1(bench.quick))
    rows = []
    for dataset in ("small", "medium"):
        with bench.point(f"replay queries on {dataset}"):
            rows.extend(fig7_gridpocket_speedups((dataset,), None, table1))
    for dataset in ("small", "medium"):
        bench.add_table(
            f"Fig. 7 -- GridPocket query speedups ({dataset} dataset)",
            ["query", "dataset", "data sel.", "plain (s)", "pushdown (s)",
             "S_Q"],
            [list(r.as_row()) for r in rows if r.dataset == dataset],
        )
    plain_total, pushdown_total = fig7_total_batch_seconds(rows, "medium")
    bench.record_sim_seconds(plain_total, mode="plain")
    bench.record_sim_seconds(pushdown_total, mode="pushdown")
    bench.add_table(
        "Fig. 7 -- whole-batch totals on 500 GB (paper: 4814.7 vs 155.5 s)",
        ["plain total (s)", "pushdown total (s)", "batch speedup"],
        [[round(plain_total, 1), round(pushdown_total, 1),
          round(plain_total / pushdown_total, 2)]],
    )
    bench.set_result(
        "rows",
        [
            {
                "query": r.query_name,
                "dataset": r.dataset,
                "data_selectivity": r.data_selectivity,
                "plain_seconds": r.plain_seconds,
                "pushdown_seconds": r.pushdown_seconds,
            }
            for r in rows
        ],
    )
    bench.set_headline("batch_plain_seconds", plain_total)
    bench.set_headline("batch_pushdown_seconds", pushdown_total)
    bench.set_headline("batch_speedup", plain_total / pushdown_total)
    slowest = min(rows, key=lambda r: r.speedup)
    bench.check("every query speeds up at least 2x",
                all(r.speedup > 2.0 for r in rows),
                f"slowest {slowest.query_name} at {slowest.speedup:.2f}x")
    medium = [r.speedup for r in rows if r.dataset == "medium"]
    small = [r.speedup for r in rows if r.dataset == "small"]
    bench.check("larger dataset gains more",
                min(medium) > max(small) * 0.9,
                f"min(500GB) {min(medium):.2f} vs max(50GB) {max(small):.2f}")
    bench.check("batch total >10x faster (paper: 4814.7 -> 155.5 s)",
                plain_total > pushdown_total * 10,
                f"{plain_total:.0f} s vs {pushdown_total:.0f} s")


# --------------------------------------------------------------------------
# Fig. 8
# --------------------------------------------------------------------------

_FIG8_SELECTIVITIES = (0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9)


def _run_fig8(bench: "BenchContext") -> None:
    points = []
    for selectivity in _FIG8_SELECTIVITIES:
        with bench.point(f"scoop vs parquet at {selectivity:.0%}"):
            points.extend(fig8_parquet_comparison((selectivity,)))
    bench.add_table(
        "Fig. 8 -- Scoop vs Parquet speedup (column selectivity, 50GB)",
        ["selectivity", "S_Q Scoop", "S_Q Parquet", "winner"],
        [
            [
                f"{p.selectivity * 100:.0f}%",
                round(p.scoop_speedup, 2),
                round(p.parquet_speedup, 2),
                "Scoop" if p.scoop_speedup > p.parquet_speedup else "Parquet",
            ]
            for p in points
        ],
    )
    bench.set_result(
        "points",
        [
            {
                "selectivity": p.selectivity,
                "scoop_speedup": p.scoop_speedup,
                "parquet_speedup": p.parquet_speedup,
            }
            for p in points
        ],
    )
    by_selectivity = {p.selectivity: p for p in points}
    crossover = fig8_crossover(points)
    ratio = (by_selectivity[0.9].scoop_speedup
             / by_selectivity[0.9].parquet_speedup)
    bench.set_headline("crossover_selectivity",
                       crossover if crossover is not None else -1.0)
    bench.set_headline("scoop_vs_parquet_at_90", ratio)
    bench.check(
        "Parquet wins the no-selectivity regime (compression effect)",
        by_selectivity[0.0].parquet_speedup
        > by_selectivity[0.0].scoop_speedup,
        f"Parquet {by_selectivity[0.0].parquet_speedup:.2f} vs "
        f"Scoop {by_selectivity[0.0].scoop_speedup:.2f}",
    )
    bench.check("crossover in the paper's band (~60%)",
                crossover is not None and 0.4 <= crossover <= 0.8,
                f"crossover at {crossover}")
    bench.check("~2.16x faster than Parquet at 90% (paper VI-C)",
                abs(ratio - 2.16) <= 2.16 * 0.35,
                f"ratio {ratio:.2f}")


# --------------------------------------------------------------------------
# Fig. 9 / Fig. 10
# --------------------------------------------------------------------------


def _run_fig9(bench: "BenchContext") -> None:
    with bench.point("ShowGraphHCHP-like on 3TB, both ways"):
        usage = fig9_resource_usage("large", 0.99)
    summary = usage.summary()
    bench.record_sim_seconds(summary["plain_seconds"], mode="plain")
    bench.record_sim_seconds(summary["pushdown_seconds"], mode="pushdown")
    saved = usage.compute_cpu_cycles_saved()
    bench.add_table(
        "Fig. 9 -- resource usage, ShowGraphHCHP-like query on 3TB",
        ["metric", "plain Spark/Swift", "Scoop pushdown"],
        [
            ["query time (s)", round(summary["plain_seconds"], 1),
             round(summary["pushdown_seconds"], 1)],
            ["worker CPU mean", _pct(summary["plain_worker_cpu_mean"]),
             _pct(summary["pushdown_worker_cpu_mean"])],
            ["worker memory peak", _pct(summary["plain_worker_mem_peak"]),
             _pct(summary["pushdown_worker_mem_peak"])],
            ["LB link peak (Gbps)",
             round(summary["plain_lb_peak_bps"] * 8 / 1e9, 2),
             round(usage.pushdown.peak_series("lb.throughput") * 8 / 1e9, 2)],
            ["LB mean while active (MB/s)",
             round(usage.plain.mean_series("lb.throughput") / 1e6, 1),
             round(summary["pushdown_lb_mean_bps"] / 1e6, 1)],
            ["compute CPU cycles saved", "--", _pct(saved)],
        ],
    )
    bench.set_result("summary", summary)
    bench.set_headline("cpu_cycles_saved", saved)
    bench.set_headline(
        "query_speedup", summary["plain_seconds"] / summary["pushdown_seconds"]
    )
    bench.check("compute cycles saved (paper: 97.8%)", saved > 0.9,
                _pct(saved))
    bench.check(
        "lower memory peak, held 12x+ shorter",
        summary["pushdown_worker_mem_peak"] < summary["plain_worker_mem_peak"]
        and summary["plain_seconds"] > summary["pushdown_seconds"] * 12,
        f"peaks {_pct(summary['plain_worker_mem_peak'])} -> "
        f"{_pct(summary['pushdown_worker_mem_peak'])}",
    )
    bench.check("plain saturates the 10 Gbps LB link",
                summary["plain_lb_peak_bps"] * 8 > 9.9e9,
                f"{summary['plain_lb_peak_bps'] * 8 / 1e9:.2f} Gbps peak")
    bench.check("Scoop moves a trickle through the LB",
                summary["pushdown_lb_mean_bps"] * 8 < 4e9,
                f"{summary['pushdown_lb_mean_bps'] * 8 / 1e9:.2f} Gbps mean")


def _run_fig10(bench: "BenchContext") -> None:
    with bench.point("storage-node CPU, both ways"):
        usage = fig9_resource_usage("large", 0.99)
    plain_series = usage.plain.series["storage.cpu"]
    pushdown_series = usage.pushdown.series["storage.cpu"]
    window = max(plain_series.times) if plain_series.times else 1.0
    pushdown_busy = pushdown_series.mean()
    pushdown_windowed = pushdown_series.integral() / window if window else 0.0
    bench.add_table(
        "Fig. 10 -- storage-node CPU utilization",
        ["series", "mean", "peak"],
        [
            ["plain Swift", _pct(plain_series.mean()),
             _pct(plain_series.peak())],
            ["Scoop (while running)", _pct(pushdown_busy),
             _pct(pushdown_series.peak())],
            ["Scoop (over plain-run window)", _pct(pushdown_windowed), "--"],
        ],
    )
    bench.set_result(
        "storage_cpu",
        {
            "plain_mean": plain_series.mean(),
            "plain_peak": plain_series.peak(),
            "pushdown_busy_mean": pushdown_busy,
            "pushdown_windowed_mean": pushdown_windowed,
        },
    )
    bench.set_headline("plain_cpu_mean", plain_series.mean())
    bench.set_headline("pushdown_cpu_busy_mean", pushdown_busy)
    bench.check("plain Swift leaves storage CPUs idle (paper: 1.25%)",
                plain_series.mean() < 0.05, _pct(plain_series.mean()))
    bench.check("pushdown does real work at the store (paper: 23.5%)",
                pushdown_busy > 0.2, _pct(pushdown_busy))
    bench.check("amortized over the plain window it still exceeds idle 3x",
                pushdown_windowed > plain_series.mean() * 3,
                f"{_pct(pushdown_windowed)} vs {_pct(plain_series.mean())}")


# --------------------------------------------------------------------------
# Ablations
# --------------------------------------------------------------------------


def _run_ablations(bench: "BenchContext") -> None:
    with bench.point("staging tier sweep"):
        staging = ablation_staging((0.5, 0.9, 0.99))
    bench.add_table(
        "Ablation -- storlet staging tier (3TB, mixed selectivity)",
        ["selectivity", "object-node (s)", "proxy (s)", "object advantage"],
        [
            [f"{r.selectivity * 100:.0f}%", round(r.object_node_seconds, 1),
             round(r.proxy_seconds, 1), round(r.object_advantage, 2)]
            for r in staging
        ],
    )
    advantages = [r.object_advantage for r in staging]
    bench.check("object-node advantage grows with selectivity",
                advantages == sorted(advantages) and advantages[-1] > 1.5,
                f"advantages {[round(a, 2) for a in advantages]}")

    chunk_sizes = (32, 64, 128, 256, 1024, 4096, 16384)
    with bench.point("chunk-size sweep"):
        chunks = ablation_chunk_size(chunk_sizes, "medium", 0.95)
    bench.add_table(
        "Ablation -- partition (chunk) size (500GB, 95% selectivity)",
        ["chunk (MB)", "tasks", "pushdown time (s)"],
        [[r.chunk_mb, r.task_count, round(r.pushdown_seconds, 1)]
         for r in chunks],
    )
    times = [r.pushdown_seconds for r in chunks]
    bench.check(
        "chunk size has a sweet spot (HDFS defaults are not it)",
        times[0] > min(times) and times[-1] > min(times),
        f"endpoints {times[0]:.1f}/{times[-1]:.1f} vs best {min(times):.1f}",
    )

    with bench.point("adaptive pushdown scenarios"):
        scenarios = ablation_adaptive_pushdown((0.2, 0.5, 0.7, 0.9))
    bench.add_table(
        "Ablation -- adaptive pushdown under storage CPU pressure",
        ["storage CPU", "gold", "silver", "bronze"],
        [
            [f"{s.storage_cpu * 100:.0f}%"]
            + ["push" if pushed else "ingest"
               for pushed in (s.gold_pushed, s.silver_pushed, s.bronze_pushed)]
            for s in scenarios
        ],
    )
    bench.check(
        "gold keeps pushdown; bronze then silver shed under pressure",
        all(s.gold_pushed for s in scenarios)
        and scenarios[0].bronze_pushed
        and not scenarios[-1].bronze_pushed
        and not scenarios[-1].silver_pushed,
        "decisions match the Crystal-style policy ladder",
    )

    with bench.point("filter + compression sweep"):
        compression = ablation_filter_plus_compression((0.0, 0.2, 0.5, 0.9))
    bench.add_table(
        "Ablation -- filter + transfer compression vs Parquet (50GB)",
        ["selectivity", "pushdown", "pushdown+zlib", "parquet"],
        [
            [f"{r.selectivity * 100:.0f}%", round(r.pushdown_speedup, 2),
             round(r.compressed_speedup, 2), round(r.parquet_speedup, 2)]
            for r in compression
        ],
    )
    bench.check(
        "filter+compression matches Parquet even at low selectivity",
        all(r.compressed_speedup > r.pushdown_speedup
            and r.compressed_speedup >= r.parquet_speedup * 0.95
            for r in compression),
        "Section VI-C's closing conjecture holds at every point",
    )

    scale = "small" if bench.quick else "medium"
    size = DATASETS[scale].size_bytes
    with bench.point(f"neighbour impact ({scale}/{scale})"):
        neighbours = neighbour_impact(size, size, 0.99)
    bench.add_table(
        f"Ablation -- what a {scale} neighbour suffers (shared cluster)",
        ["foreground strategy", "foreground (s)", "neighbour (s)"],
        [
            [r.foreground_mode, round(r.foreground_duration, 1),
             round(r.background_duration, 1)]
            for r in neighbours
        ],
    )
    by_mode = {r.foreground_mode: r for r in neighbours}
    neighbour_ratio = (by_mode["plain"].background_duration
                       / by_mode["pushdown"].background_duration)
    bench.set_result(
        "staging",
        [{"selectivity": r.selectivity, "advantage": r.object_advantage}
         for r in staging],
    )
    bench.set_result(
        "chunk_size",
        [{"chunk_mb": r.chunk_mb, "tasks": r.task_count,
          "seconds": r.pushdown_seconds} for r in chunks],
    )
    bench.set_result("neighbour_ratio", neighbour_ratio)
    bench.set_headline("staging_advantage_at_99", advantages[-1])
    bench.set_headline("neighbour_bg_ratio", neighbour_ratio)
    bench.check("pushdown frees the cluster for neighbours (VI-D)",
                neighbour_ratio > 1.5,
                f"background finishes {neighbour_ratio:.2f}x faster")


# --------------------------------------------------------------------------
# Workday
# --------------------------------------------------------------------------


def _run_workday(bench: "BenchContext") -> None:
    table1 = list(measured_table1(bench.quick))
    dataset = "small" if bench.quick else "medium"
    inter_arrival = 30.0 if bench.quick else 120.0
    results = []
    for mode in ("plain", "pushdown"):
        with bench.point(f"workday replay ({mode}, {dataset})"):
            results.append(
                simulate_workday(mode, inter_arrival, dataset, None, table1)
            )
    plain, pushdown = results
    for result in results:
        bench.record_sim_seconds(result.makespan(), mode=result.mode)
    bench.add_table(
        f"GridPocket workday -- 7 queries, one every {inter_arrival:.0f} s "
        f"({dataset} dataset each)",
        ["strategy", "mean response (s)", "max response (s)", "makespan (s)"],
        [
            [r.mode, round(r.mean_response_time(), 1),
             round(r.max_response_time(), 1), round(r.makespan(), 1)]
            for r in results
        ],
    )
    bench.set_result(
        "modes",
        {
            r.mode: {
                "mean_response_seconds": r.mean_response_time(),
                "max_response_seconds": r.max_response_time(),
                "makespan_seconds": r.makespan(),
            }
            for r in results
        },
    )
    ratio = plain.mean_response_time() / pushdown.mean_response_time()
    bench.set_headline("mean_response_ratio", ratio)
    bench.set_headline("pushdown_max_response_seconds",
                       pushdown.max_response_time())
    bench.check("mean response >20x better under arrival contention",
                ratio > 20,
                f"{plain.mean_response_time():.0f} s vs "
                f"{pushdown.mean_response_time():.0f} s")
    bench.check(
        "every pushdown query finishes before the next arrives",
        pushdown.max_response_time() < inter_arrival,
        f"max {pushdown.max_response_time():.1f} s < {inter_arrival:.0f} s",
    )

    # Multi-tenant leg (docs/admission.md): a seeded arrival trace from
    # three tenant classes runs behind token-bucket admission control.
    # The p99 SLO, the shed-rate band, and the zero-violation quota
    # audit are the recorded acceptance criteria.  ``--arrivals`` (or
    # ``workday_arrivals`` in the options dict) scales the trace; the
    # defaults exercise tens of thousands of arrivals in full mode and
    # cap quick mode for CI.
    arrivals = int(
        bench.options.get("workday_arrivals")
        or (2000 if bench.quick else 20000)
    )
    p99_slo = 30.0
    shed_bound = 0.5
    with bench.point(f"multi-tenant workday ({arrivals} arrivals)"):
        mt = simulate_multitenant_workday(
            dataset="small", table1=table1, arrivals=arrivals
        )
    bench.add_table(
        "Multi-tenant workday -- admission control per tenant class",
        ["tenant", "arrivals", "admitted", "shed", "shed rate"],
        [
            [name, int(s["arrivals"]), int(s["admitted"]), int(s["shed"]),
             _pct(s["shed_rate"])]
            for name, s in sorted(mt.tenant_summary.items())
        ],
    )
    bench.set_result(
        "multitenant",
        {
            "arrivals": len(mt.queries),
            "admitted": len(mt.admitted),
            "shed": mt.shed_count,
            "shed_rate": mt.shed_rate,
            "p99_response_seconds": mt.p99_response_time(),
            "mean_response_seconds": mt.mean_response_time(),
            "p99_slo_seconds": p99_slo,
            "quota_violations": mt.quota_violations,
            "audit_exhaustive": mt.audit_exhaustive,
            "audit_pairs": mt.audit_pairs,
            "tenants": mt.tenant_summary,
        },
    )
    bench.set_headline("multitenant_p99_seconds", mt.p99_response_time())
    bench.set_headline("multitenant_shed_rate", mt.shed_rate)
    bench.check(
        f"admitted p99 meets the {p99_slo:.0f} s SLO",
        0.0 < mt.p99_response_time() <= p99_slo,
        f"p99 {mt.p99_response_time():.1f} s",
    )
    bench.check(
        "shedding engages but stays bounded",
        0.0 < mt.shed_rate <= shed_bound,
        f"shed {mt.shed_count}/{len(mt.queries)} "
        f"({_pct(mt.shed_rate)}), bound {_pct(shed_bound)}",
    )
    bench.check(
        "zero sliding-window quota violations",
        mt.quota_violations == 0,
        f"{mt.quota_violations} violations across "
        f"{len(mt.tenant_summary)} tenants "
        f"({'exhaustive' if mt.audit_exhaustive else 'windowed'} audit, "
        f"{mt.audit_pairs} pairs)",
    )

    # Front-end concurrency sweep (docs/async.md): the same burst of
    # queries drains through the threaded front end at its pool cap and
    # through the event-loop core at the cap and at 10x, measuring the
    # in-flight capacity one process sustains and the latency the rest
    # of the burst pays.  Every response is byte-verified.
    base_limit = 32 if bench.quick else 100
    sweep = []
    for mode, limit in (
        ("threads", base_limit),
        ("async", base_limit),
        ("async", base_limit * 10),
    ):
        with bench.point(f"frontend burst ({mode}, {limit} in flight)"):
            sweep.append(
                replay_workday_frontend(
                    mode, queries=arrivals, inflight_limit=limit
                )
            )
    threaded, async_parity, async_10x = sweep
    bench.add_table(
        f"Front-end concurrency sweep -- {arrivals} queries, "
        "threaded pool vs event loop",
        ["front end", "in-flight limit", "peak in-flight", "p50 (s)",
         "p99 (s)", "drain (s)"],
        [
            [f"{r.mode}@{r.inflight_limit}", r.inflight_limit,
             r.peak_inflight, round(r.p50_seconds, 3),
             round(r.p99_seconds, 3), round(r.wall_seconds, 2)]
            for r in sweep
        ],
    )
    bench.set_result(
        "frontend",
        {
            "queries": arrivals,
            "points": [
                {
                    "mode": r.mode,
                    "inflight_limit": r.inflight_limit,
                    "dispatched": r.dispatched,
                    "completed": r.completed,
                    "byte_errors": r.byte_errors,
                    "peak_inflight": r.peak_inflight,
                    "p50_seconds": r.p50_seconds,
                    "p99_seconds": r.p99_seconds,
                    "wall_seconds": r.wall_seconds,
                }
                for r in sweep
            ],
        },
    )
    bench.set_headline(
        "frontend_async_peak_inflight", async_10x.peak_inflight
    )
    bench.set_headline(
        "frontend_async_p99_seconds", async_10x.p99_seconds
    )
    bench.check(
        "async front end sustains 10x the threaded in-flight capacity",
        async_10x.peak_inflight >= 10 * threaded.peak_inflight,
        f"{async_10x.peak_inflight} vs {threaded.peak_inflight} in flight",
    )
    bench.check(
        "async p99 at 10x concurrency stays within the threaded baseline",
        0.0 < async_10x.p99_seconds <= threaded.p99_seconds,
        f"{async_10x.p99_seconds:.3f} s vs {threaded.p99_seconds:.3f} s "
        f"(parity point {async_parity.p99_seconds:.3f} s)",
    )
    bench.check(
        "every front-end response byte-identical",
        sum(r.byte_errors for r in sweep) == 0
        and all(r.completed == r.dispatched for r in sweep),
        f"{sum(r.completed for r in sweep)} responses verified",
    )


# --------------------------------------------------------------------------
# Data skipping
# --------------------------------------------------------------------------

_SKIPPING_SELECTIVITIES = (0.0, 0.25, 0.5, 0.75, 0.875, 1.0)


def _run_skipping(bench: "BenchContext") -> None:
    objects = 4 if bench.quick else 8
    rows_per_object = 100 if bench.quick else 400
    with bench.point(
        f"selectivity sweep ({objects} objects x {rows_per_object} rows)"
    ):
        points = skipping_sweep(
            _SKIPPING_SELECTIVITIES, objects, rows_per_object
        )
    bench.add_table(
        "Data skipping -- whole-object GETs avoided vs object selectivity",
        ["object sel.", "skipped", "GETs off", "GETs armed", "GETs avoided",
         "bytes off", "bytes armed", "identical"],
        [
            [f"{p.object_selectivity * 100:.1f}%", p.objects_skipped,
             p.requests_off, p.requests_armed, p.gets_avoided,
             p.bytes_off, p.bytes_armed, "yes" if p.identical else "NO"]
            for p in points
        ],
    )
    bench.set_result(
        "points",
        [
            {
                "object_selectivity": p.object_selectivity,
                "objects_total": p.objects_total,
                "objects_skipped": p.objects_skipped,
                "requests_off": p.requests_off,
                "requests_armed": p.requests_armed,
                "bytes_off": p.bytes_off,
                "bytes_armed": p.bytes_armed,
                "rows": p.rows,
                "identical": p.identical,
            }
            for p in points
        ],
    )
    high = max(points, key=lambda p: p.object_selectivity)
    bench.set_headline("objects_skipped_at_full_selectivity",
                       high.objects_skipped)
    bench.set_headline(
        "gets_avoided_at_full_selectivity", high.gets_avoided
    )
    bench.check(
        "skipped objects > 0 at high selectivity",
        all(p.objects_skipped > 0
            for p in points if p.object_selectivity >= 0.5),
        f"{high.objects_skipped}/{high.objects_total} skipped at 100%",
    )
    bench.check(
        "skip count tracks object selectivity exactly",
        all(
            p.objects_skipped
            == int(round(p.objects_total * p.object_selectivity))
            for p in points
        ),
        "one skip per refuted code band",
    )
    bench.check(
        "arming the catalog only removes requests",
        all(p.requests_armed <= p.requests_off for p in points)
        and high.requests_armed == 0,
        f"{high.requests_off} -> {high.requests_armed} GETs at 100%",
    )
    bench.check(
        "byte-identical to the catalog-disabled run at every point",
        all(p.identical for p in points),
        f"{len(points)} differential points",
    )

    with bench.point(f"fault-plan identity ({len(NAMED_PLANS)} plans)"):
        fault_results, baseline_rows = fault_identity(NAMED_PLANS)
    bench.add_table(
        "Data skipping -- armed vs disabled under named fault plans",
        ["plan", "rows", "skipped", "identical"],
        [
            [r.plan, r.rows, r.objects_skipped, "yes" if r.identical else "NO"]
            for r in fault_results
        ],
    )
    bench.set_result(
        "fault_identity",
        [
            {
                "plan": r.plan,
                "rows": r.rows,
                "objects_skipped": r.objects_skipped,
                "identical": r.identical,
            }
            for r in fault_results
        ],
    )
    bench.check(
        "byte-identical under every named fault plan (non-vacuously)",
        baseline_rows > 0 and all(r.identical for r in fault_results),
        f"{len(fault_results)} plans x {baseline_rows} baseline rows",
    )


# --------------------------------------------------------------------------
# Placement
# --------------------------------------------------------------------------

#: Size x kept-fraction grid for the cost-model sweep: small enough that
#: fixed overheads matter, large enough that pushdown dominates.
_PLACEMENT_SIZES = (1e9, 10e9, 100e9)
_PLACEMENT_KEPT = (0.01, 0.05, 0.2, 0.5, 0.8, 1.0)
_PLACEMENT_SELECTIVITIES = (0.2, 0.5, 0.9)


def _gb(size_bytes: float) -> str:
    return f"{size_bytes / 1e9:.0f}GB"


def _run_placement(bench: "BenchContext") -> None:
    grid = len(_PLACEMENT_SIZES) * len(_PLACEMENT_KEPT)
    with bench.point(f"cost-model sweep ({grid} points)"):
        model_points = placement_model_sweep(
            _PLACEMENT_SIZES, _PLACEMENT_KEPT
        )
    bench.add_table(
        "Placement -- estimated duration per tier (adaptive picks argmin)",
        ["dataset", "kept", "object (s)", "proxy (s)", "compute (s)",
         "adaptive"],
        [
            [_gb(p.dataset_bytes), f"{p.kept_fraction * 100:.0f}%",
             round(p.durations["object"], 2),
             round(p.durations["proxy"], 2),
             round(p.durations["compute"], 2),
             f"{p.adaptive_tier} ({p.adaptive_duration:.2f}s)"]
            for p in model_points
        ],
    )
    bench.set_result(
        "model_points",
        [
            {
                "dataset_bytes": p.dataset_bytes,
                "kept_fraction": p.kept_fraction,
                "durations": {
                    tier: round(duration, 4)
                    for tier, duration in p.durations.items()
                },
                "adaptive_tier": p.adaptive_tier,
                "adaptive_duration": round(p.adaptive_duration, 4),
            }
            for p in model_points
        ],
    )
    regret = max(
        p.adaptive_duration - p.best_fixed_duration for p in model_points
    )
    chosen_tiers = {p.adaptive_tier for p in model_points}
    bench.set_headline("adaptive_max_regret_seconds", regret)
    bench.set_headline("adaptive_tiers_used", len(chosen_tiers))
    bench.set_result("adaptive_tiers", sorted(chosen_tiers))
    bench.check(
        "adaptive matches or beats the best fixed policy at every point",
        regret <= 1e-9,
        f"max regret {regret:.3g}s over {grid} points",
    )
    bench.check(
        "the decision is non-trivial (multiple tiers win somewhere)",
        len(chosen_tiers) >= 2,
        f"tiers chosen: {sorted(chosen_tiers)}",
    )

    objects = 3 if bench.quick else 4
    rows_per_object = 100 if bench.quick else 150
    with bench.point(
        f"functional identity sweep ({len(PLACEMENT_MODES)} modes)"
    ):
        identity_points = placement_identity_sweep(
            _PLACEMENT_SELECTIVITIES, objects, rows_per_object
        )
    bench.add_table(
        "Placement -- byte-identical rows under every placement mode",
        ["row sel.", "rows", "bytes adaptive", "bytes object",
         "bytes proxy", "bytes compute", "adaptive tier", "identical"],
        [
            [f"{p.row_selectivity * 100:.0f}%", p.rows,
             p.bytes_by_mode["adaptive"], p.bytes_by_mode["object"],
             p.bytes_by_mode["proxy"], p.bytes_by_mode["compute"],
             p.adaptive_tier, "yes" if p.all_identical else "NO"]
            for p in identity_points
        ],
    )
    bench.set_result(
        "identity_points",
        [
            {
                "row_selectivity": p.row_selectivity,
                "rows": p.rows,
                "bytes_by_mode": p.bytes_by_mode,
                "identical": p.identical,
                "adaptive_tier": p.adaptive_tier,
            }
            for p in identity_points
        ],
    )
    bench.check(
        "every placement mode returns the baseline's exact rows",
        all(p.all_identical for p in identity_points)
        and any(p.rows > 0 for p in identity_points),
        f"{len(identity_points)} selectivity points x "
        f"{len(PLACEMENT_MODES)} modes",
    )

    gb_objects = 3
    gb_rows = 80 if bench.quick else 120
    cells = len(NAMED_PLANS) * len(EXECUTION_MODES)
    with bench.point(f"GROUP-BY pushdown fault identity ({cells} cells)"):
        fault_results, oracle_rows = groupby_fault_identity(
            NAMED_PLANS, gb_objects, gb_rows
        )
    with bench.point("GROUP-BY spill-to-compute identity"):
        spill_results, _ = groupby_fault_identity(
            ("none",), gb_objects, gb_rows, max_groups=2
        )
    bench.add_table(
        "GROUP-BY pushdown -- byte-identical to the compute-side oracle",
        ["plan", "execution", "rows", "fallbacks", "identical"],
        [
            [r.plan, r.execution, r.rows, r.fallbacks,
             "yes" if r.identical else "NO"]
            for r in fault_results
        ],
    )
    bench.set_result(
        "groupby_fault_identity",
        [
            {
                "plan": r.plan,
                "execution": r.execution,
                "rows": r.rows,
                "fallbacks": r.fallbacks,
                "identical": r.identical,
            }
            for r in fault_results
        ],
    )
    bench.set_headline("groupby_oracle_rows", oracle_rows)
    bench.check(
        "GROUP-BY pushdown byte-identical under every plan, serial and "
        "threaded",
        oracle_rows > 0 and all(r.identical for r in fault_results),
        f"{cells} cells x {oracle_rows} oracle rows",
    )
    bench.check(
        "bounded-cardinality spill stays byte-identical",
        all(r.identical for r in spill_results),
        "max_groups=2 forces the spill path on every split",
    )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_EXPERIMENT_LIST = [
    Experiment(
        name="fig1",
        title="Fig. 1 -- ingest-then-compute grows linearly",
        paper='"executing a given query on increasingly larger datasets '
              'involves a linear growth in query completion times."',
        runner=_run_fig1,
        notes=(
            "Ingestion dominates plain ingest-then-compute, so doubling "
            "the data doubles the time; this is the motivating plot the "
            "rest of the evaluation answers.",
        ),
    ),
    Experiment(
        name="table1",
        title="Table I -- GridPocket query selectivities",
        paper="the seven production queries discard >99% of bytes "
              "(paper Table I, data selectivity 99.57-99.99%).",
        runner=_run_table1,
        notes=(
            "Selectivities are *measured* on the functional layer: each "
            "query's Catalyst-extracted pushdown spec runs over a "
            "generated multi-year sample, exactly what the storlet "
            "evaluates at the store.",
        ),
    ),
    Experiment(
        name="fig5",
        title="Fig. 5 -- S_Q vs data selectivity, by selectivity type",
        paper="S_Q ~ 1 at zero selectivity, superlinear growth "
              "(80% -> ~5x), row slightly ahead of column/mixed, larger "
              "datasets see larger speedups.",
        runner=_run_fig5,
    ),
    Experiment(
        name="fig6",
        title="Fig. 6 -- S_Q in the very-high-selectivity regime",
        paper='"queries with high percentages of data selectivity may '
              'benefit from execution times up to 31 times shorter."',
        runner=_run_fig6,
    ),
    Experiment(
        name="fig7",
        title="Fig. 7 -- the seven real GridPocket queries",
        paper="importing a fresh 500 GB per query, the whole set takes "
              "4,814.7 s plain vs 155.48 s with Scoop.",
        runner=_run_fig7,
    ),
    Experiment(
        name="fig8",
        title="Fig. 8 -- Scoop vs Apache Parquet",
        paper="Parquet wins at low selectivity (compression shortens "
              "ingest); Scoop overtakes around 60% and is ~2.16x faster "
              "at 90%.",
        runner=_run_fig8,
    ),
    Experiment(
        name="fig9",
        title="Fig. 9 -- compute-cluster resources with and without Scoop",
        paper="Scoop reduces compute CPU cycles by 97.8%, lowers the "
              "memory peak and holds it 12-15x shorter; plain ingest "
              "saturates the LB's 10 Gbps link.",
        runner=_run_fig9,
    ),
    Experiment(
        name="fig10",
        title="Fig. 10 -- storage-node CPU utilization",
        paper="storage nodes are almost idle under plain Swift (average "
              "1.25%) but do real work under pushdown (average 23.5%).",
        runner=_run_fig10,
    ),
    Experiment(
        name="ablations",
        title="Ablations -- staging, chunk size, adaptive pushdown, "
              "compression, neighbours",
        paper="design choices from Sections V-A, VI-C, VI-D and VII, "
              "each isolated.",
        runner=_run_ablations,
        notes=(
            "Beyond-the-paper sweeps over the design space DESIGN.md "
            "calls out: where the storlet runs, how objects are "
            "partitioned, who keeps pushdown under CPU pressure, and "
            "what a co-tenant experiences.",
        ),
    ),
    Experiment(
        name="skipping",
        title="Data skipping -- whole objects refuted from the catalog",
        paper="the data-selectivity argument one level up: per-object "
              "min/max/bloom statistics computed at PUT time refute "
              "whole objects with zero GETs.",
        runner=_run_skipping,
        notes=(
            "Functional and differential: a real context ingests through "
            "the catalog-emitting storlets, then every sweep point and "
            "every named fault plan is checked byte-identical against a "
            "catalog-disabled baseline -- skipping may only remove "
            "requests, never rows.",
        ),
    ),
    Experiment(
        name="placement",
        title="Placement -- cost-based tier choice vs fixed policies",
        paper="Section IV-A makes placement part of the pushdown-task "
              "definition; the staging ablation (Section VI-B) shows the "
              "tiers are not interchangeable.",
        runner=_run_placement,
        notes=(
            "Beyond the paper's fixed deployment: the calibrated cost "
            "model estimates object/proxy/compute per query and adaptive "
            "placement picks the argmin, so it can never lose to a fixed "
            "policy on the model's own terms -- the checks verify that, "
            "plus byte-identity of every placement mode and of GROUP-BY "
            "pushdown (partial aggregation at the storlet tier) under "
            "every named fault plan in serial and threaded execution.",
        ),
    ),
    Experiment(
        name="workday",
        title="Workday -- seven analyst queries on a schedule",
        paper='"data scientists in GridPocket could execute the same set '
              'of queries only in 155.48 seconds."',
        runner=_run_workday,
        notes=(
            "One step past the paper's back-to-back sum: queries arrive "
            "on a schedule and contend on the shared cluster, so plain "
            "ingests pile up behind the saturated load-balancer link "
            "while pushdown queries finish before the next one arrives.",
        ),
    ),
]

#: Name -> experiment, in canonical report order.
EXPERIMENTS: Dict[str, Experiment] = {
    experiment.name: experiment for experiment in _EXPERIMENT_LIST
}


def experiment_names() -> List[str]:
    """Every registered experiment name, in canonical report order."""
    return list(EXPERIMENTS)
