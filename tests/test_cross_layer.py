"""Cross-layer consistency: functional measurements vs the perf model.

The reproduction's two layers must tell the same story: the *fraction*
of bytes a query moves on the functional rig (real storlets, real CSV)
must match the fraction the performance model sends over the simulated
LB link for the same selectivity.  If these drift apart, the figure
reproductions no longer describe the implemented system.
"""

import pytest

from repro.gridpocket import synthetic_query
from repro.perfmodel import IngestSimulation, SelectivityProfile


class TestTransferFractionAgreement:
    @pytest.mark.parametrize("target", [0.3, 0.7, 0.95])
    def test_functional_and_model_fractions_match(self, scoop, target):
        sql = synthetic_query(target)
        _frame, report = scoop.run_query(sql)
        functional_fraction = (
            report.bytes_transferred / report.bytes_requested
        )

        simulation = IngestSimulation()
        result = simulation.run(
            "pushdown",
            10e9,
            SelectivityProfile.rows(report.data_selectivity),
        )
        model_fraction = result.bytes_over_lb / result.dataset_bytes
        assert model_fraction == pytest.approx(
            functional_fraction, abs=0.05
        )

    def test_projection_fraction_agreement(self, scoop):
        sql = synthetic_query(0.0, columns=["vid", "date", "index"])
        _frame, report = scoop.run_query(sql)
        functional_fraction = (
            report.bytes_transferred / report.bytes_requested
        )
        simulation = IngestSimulation()
        result = simulation.run(
            "pushdown",
            10e9,
            SelectivityProfile.columns(report.data_selectivity),
        )
        model_fraction = result.bytes_over_lb / result.dataset_bytes
        assert model_fraction == pytest.approx(
            functional_fraction, abs=0.05
        )


class TestStorletCostAgreement:
    def test_sandbox_cpu_tracks_bytes_processed(self, scoop):
        """Functional sandbox CPU accounting should scale linearly with
        scanned bytes, like the model's per-byte storlet cost."""
        before_cpu = scoop.storage_cpu_seconds()
        scoop.connector.metrics.reset()
        scoop.sql(synthetic_query(0.5)).collect()
        first_cpu = scoop.storage_cpu_seconds() - before_cpu
        first_bytes = scoop.connector.metrics.bytes_requested

        before_cpu = scoop.storage_cpu_seconds()
        scoop.connector.metrics.reset()
        scoop.sql(synthetic_query(0.5)).collect()
        second_cpu = scoop.storage_cpu_seconds() - before_cpu
        second_bytes = scoop.connector.metrics.bytes_requested

        assert first_bytes == second_bytes
        assert first_cpu == pytest.approx(second_cpu, rel=0.01)

    def test_row_filter_cheaper_than_column_projection_functionally(
        self, scoop
    ):
        """The sandbox cost model's asymmetry (also in the perf model)
        holds on the functional path."""
        before = scoop.storage_cpu_seconds()
        scoop.sql(synthetic_query(0.5)).collect()  # row filter only
        row_cpu = scoop.storage_cpu_seconds() - before

        before = scoop.storage_cpu_seconds()
        scoop.sql(
            synthetic_query(0.0, columns=["vid", "date", "index"])
        ).collect()  # projection only
        column_cpu = scoop.storage_cpu_seconds() - before
        assert column_cpu > row_cpu
