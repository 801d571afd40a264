"""Fig. 9: compute-cluster CPU (a), memory (b) and inter-cluster network
(c) while running a ~99%-selectivity query (ShowGraphHCHP) on 3 TB, with
and without Scoop.

Paper anchors: plain ingest saturates the LB's 10 Gbps link; Scoop
reduces compute CPU cycles by 97.8%, lowers the memory peak and holds it
12-15x shorter; the LB sees only a small average flow for a short time.
"""

from benchmarks.conftest import run_bench
from repro.experiments import fig9_resource_usage
from repro.experiments.report import render_series


def test_fig9_resource_usage_with_and_without_scoop(benchmark):
    document = run_bench(benchmark, "fig9")
    summary = document["results"]["summary"]
    # (a) CPU: paper reports 97.8% fewer compute cycles.
    assert document["headline"]["cpu_cycles_saved"] > 0.9
    # (c) network: plain saturates 10 Gbps; Scoop moves a trickle.
    assert summary["plain_lb_peak_bps"] * 8 > 9.9e9
    assert summary["pushdown_lb_mean_bps"] * 8 < 4e9

    # The familiar ASCII chart (re-derived; the model is deterministic).
    usage = fig9_resource_usage("large", 0.99)
    render_series(
        "Fig. 9(c) -- LB link throughput over time (GB/s)",
        [
            ("plain Spark/Swift", _scaled(usage.plain.series["lb.throughput"])),
            ("Scoop", _scaled(usage.pushdown.series["lb.throughput"])),
        ],
    )


def _scaled(series, factor=1e-9):
    """GB/s view of a bytes/s series (for the ASCII chart)."""
    from repro.perfmodel.flow import ResourceSeries

    scaled = ResourceSeries(series.name)
    scaled.times = list(series.times)
    scaled.values = [value * factor for value in series.values]
    return scaled
