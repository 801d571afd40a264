"""Tests for the testbed constants and the sampled resource series."""

import pytest

from repro.perfmodel.flow import ResourceSeries
from repro.perfmodel.parameters import OSIC_SPEC


class TestTestbed:
    def test_osic_defaults_match_paper(self):
        assert OSIC_SPEC.proxy_count == 6
        assert OSIC_SPEC.storage_count == 29
        assert OSIC_SPEC.worker_count == 25
        assert OSIC_SPEC.lb_bandwidth == pytest.approx(10e9 / 8)
        assert OSIC_SPEC.node_spec.cores == 24


class TestResourceSeries:
    def test_statistics(self):
        series = ResourceSeries("x")
        for time, value in [(0, 1.0), (1, 3.0), (2, 5.0)]:
            series.record(time, value)
        assert series.mean() == pytest.approx(3.0)
        assert series.peak() == 5.0
        assert len(series) == 3

    def test_integral_trapezoidal(self):
        series = ResourceSeries("x")
        series.record(0, 0.0)
        series.record(2, 2.0)
        assert series.integral() == pytest.approx(2.0)

    def test_empty_series(self):
        series = ResourceSeries("x")
        assert series.mean() == 0.0
        assert series.peak() == 0.0
        assert series.integral() == 0.0
