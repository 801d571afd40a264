"""Tests for the experiment harness (tables/figures reproduction)."""

import pytest

from repro.experiments import (
    ablation_adaptive_pushdown,
    ablation_chunk_size,
    fig1_ingest_scaling,
    fig5_speedup_grid,
    fig7_gridpocket_speedups,
    fig8_parquet_comparison,
    fig9_resource_usage,
    render_table,
    simulate_workday,
    table1_selectivities,
)
from repro.experiments.figures import fig8_crossover
from repro.experiments.gridpocket_runs import fig7_total_batch_seconds


@pytest.fixture(scope="module")
def table1():
    return table1_selectivities()


class TestFig1:
    def test_linear_growth(self):
        points = fig1_ingest_scaling(sizes_gb=(10, 20, 30))
        assert [p.dataset_gb for p in points] == [10, 20, 30]
        deltas = [
            points[i + 1].query_seconds - points[i].query_seconds
            for i in range(len(points) - 1)
        ]
        assert deltas[1] == pytest.approx(deltas[0], rel=0.15)


class TestTable1:
    def test_all_queries_measured(self, table1):
        assert len(table1) == 7
        names = {row.name for row in table1}
        assert "ShowGraphHCHP" in names

    def test_row_selectivity_matches_paper_band(self, table1):
        """Paper Table I: every query discards >99% of rows."""
        for row in table1:
            assert row.measured.row_selectivity > 0.99, row.name

    def test_data_selectivity_high(self, table1):
        for row in table1:
            assert row.measured.data_selectivity > 0.99, row.name

    def test_rotterdam_query_more_selective_than_date_only(self, table1):
        by_name = {row.name: row for row in table1}
        assert (
            by_name["Showgraphcons"].measured.row_selectivity
            > by_name["ShowMapCons"].measured.row_selectivity
        )

    def test_as_row_shape(self, table1):
        row = table1[0].as_row()
        assert len(row) == 5
        assert row[0] == "ShowMapCons"


class TestFig5Fig6:
    def test_grid_shape(self):
        points = fig5_speedup_grid(
            selectivities=(0.0, 0.8),
            selectivity_types=("row", "mixed"),
            datasets=("small",),
        )
        assert len(points) == 4

    def test_speedups_grow_with_selectivity(self):
        points = fig5_speedup_grid(
            selectivities=(0.0, 0.6, 0.9),
            selectivity_types=("mixed",),
            datasets=("large",),
        )
        speedups = [p.speedup for p in points]
        assert speedups == sorted(speedups)
        assert speedups[0] == pytest.approx(1.0, abs=0.1)


class TestFig7:
    def test_speedups_positive_and_ranked_by_scale(self, table1):
        rows = fig7_gridpocket_speedups(
            datasets=("small", "medium"), table1=table1
        )
        assert len(rows) == 14
        small = {r.query_name: r.speedup for r in rows if r.dataset == "small"}
        medium = {
            r.query_name: r.speedup for r in rows if r.dataset == "medium"
        }
        for name in small:
            assert medium[name] > small[name] > 2.0

    def test_batch_totals_shape(self, table1):
        """Paper: the whole set takes 4,814.7s plain vs 155.48s with
        Scoop on 500 GB -- we check the >10x batch-level gap."""
        rows = fig7_gridpocket_speedups(datasets=("medium",), table1=table1)
        plain_total, pushdown_total = fig7_total_batch_seconds(rows, "medium")
        assert plain_total > pushdown_total * 10


class TestFig8:
    def test_crossover_in_expected_band(self):
        points = fig8_parquet_comparison(
            selectivities=(0.0, 0.2, 0.4, 0.6, 0.8, 0.9)
        )
        crossover = fig8_crossover(points)
        assert crossover is not None
        assert 0.4 <= crossover <= 0.8

    def test_scoop_factor_at_ninety(self):
        """Paper: at 90% selectivity Scoop is ~2.16x faster than Parquet."""
        points = fig8_parquet_comparison(selectivities=(0.9,))
        ratio = points[0].scoop_speedup / points[0].parquet_speedup
        assert 1.5 < ratio < 3.5


class TestFig9Fig10:
    @pytest.fixture(scope="class")
    def usage(self):
        return fig9_resource_usage()

    def test_summary_keys(self, usage):
        summary = usage.summary()
        assert summary["plain_seconds"] > summary["pushdown_seconds"] * 10

    def test_lb_saturation_contrast(self, usage):
        assert usage.plain.peak_series("lb.throughput") == pytest.approx(
            1.25e9, rel=0.02
        )
        assert usage.pushdown.mean_series("lb.throughput") < 0.5e9

    def test_fig10_series(self, usage):
        plain_series = usage.plain.series["storage.cpu"]
        pushdown_series = usage.pushdown.series["storage.cpu"]
        assert pushdown_series.mean() > plain_series.mean() * 10
        assert plain_series.mean() < 0.05


class TestAblations:
    def test_chunk_size_has_interior_optimum(self):
        results = ablation_chunk_size(
            chunk_sizes_mb=(32, 256, 8192), dataset="medium"
        )
        times = [r.pushdown_seconds for r in results]
        assert times[1] < times[0]
        assert times[1] < times[2]

    def test_adaptive_shedding_order(self):
        scenarios = ablation_adaptive_pushdown(cpu_levels=(0.2, 0.7, 0.9))
        idle, soft, hard = scenarios
        assert idle.gold_pushed and idle.silver_pushed and idle.bronze_pushed
        assert soft.gold_pushed and soft.silver_pushed
        assert not soft.bronze_pushed
        assert hard.gold_pushed
        assert not hard.silver_pushed and not hard.bronze_pushed


class TestRenderTable:
    def test_render_includes_everything(self, capsys):
        rendered = render_table(
            "Demo", ["a", "bb"], [[1, "x"], [2.5, "yy"]]
        )
        assert "Demo" in rendered
        assert "bb" in rendered
        assert "2.50" in rendered
        assert capsys.readouterr().out  # printed too

    def test_render_empty_rows(self):
        rendered = render_table("Empty", ["col"], [])
        assert "col" in rendered


class TestWorkday:
    @pytest.fixture(scope="class")
    def comparison(self, table1):
        return [
            simulate_workday(mode, inter_arrival_seconds=120, table1=table1)
            for mode in ("plain", "pushdown")
        ]

    def test_plain_queries_pile_up(self, comparison):
        plain, _pushdown = comparison
        # Later queries wait behind earlier ones: response times grow.
        responses = [q.response_time for q in plain.queries]
        assert responses[-1] > responses[0] * 0.9
        assert plain.mean_response_time() > 1000

    def test_pushdown_keeps_up_with_arrivals(self, comparison):
        _plain, pushdown = comparison
        # Every query finishes before the next arrives (no queueing).
        assert pushdown.max_response_time() < 120
        assert (
            pushdown.mean_response_time()
            < _plain.mean_response_time() / 20
        )

    def test_makespans_ordered(self, comparison):
        plain, pushdown = comparison
        assert pushdown.makespan() < plain.makespan()
