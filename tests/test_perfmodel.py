"""Tests for the performance model: the paper's qualitative findings
must hold as invariants of the simulation."""

import dataclasses
import hashlib
import os
import struct
import subprocess
import sys

import pytest

from repro.perfmodel import (
    DATASETS,
    IngestSimulation,
    PerfParameters,
    SelectivityProfile,
)
from repro.perfmodel.concurrent import (
    ConcurrentIngestSimulation,
    JobSpec,
    neighbour_impact,
)


@pytest.fixture(scope="module")
def sim():
    return IngestSimulation()


SMALL = DATASETS["small"].size_bytes
LARGE = DATASETS["large"].size_bytes


class TestSelectivityProfile:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            SelectivityProfile(1.5)
        with pytest.raises(ValueError):
            SelectivityProfile(-0.1)

    def test_constructors(self):
        assert SelectivityProfile.rows(0.5).row_filtering
        assert SelectivityProfile.columns(0.5).column_projection
        mixed = SelectivityProfile.mixed(0.5)
        assert mixed.row_filtering and mixed.column_projection
        assert mixed.kept_fraction == pytest.approx(0.5)


class TestBasicRuns:
    def test_unknown_mode_raises(self, sim):
        with pytest.raises(ValueError):
            sim.run("warp", SMALL)

    def test_plain_duration_scales_linearly(self, sim):
        """Fig. 1: ingest-then-compute grows linearly with dataset size."""
        t10 = sim.run("plain", 10e9).duration
        t20 = sim.run("plain", 20e9).duration
        t30 = sim.run("plain", 30e9).duration
        assert (t30 - t20) == pytest.approx(t20 - t10, rel=0.15)

    def test_plain_saturates_lb_at_scale(self, sim):
        """Fig. 9(c): the 10 Gbps LB link saturates during plain ingest."""
        result = sim.run("plain", LARGE)
        assert result.mean_series("lb.utilization") > 0.95

    def test_task_count_from_chunk_size(self, sim):
        result = sim.run("plain", SMALL)
        assert result.task_count == pytest.approx(
            SMALL / sim.params.chunk_size, abs=1
        )


class TestSpeedupInvariants:
    def test_speedup_near_one_at_zero_selectivity(self, sim):
        """Paper: worst-case penalty of 3.4% at no selectivity."""
        speedup = sim.speedup(LARGE, SelectivityProfile.mixed(0.0))
        assert 0.9 < speedup < 1.05

    def test_speedup_monotonic_in_selectivity(self, sim):
        profile = SelectivityProfile.mixed
        speedups = [
            sim.speedup(LARGE, profile(s)) for s in (0.2, 0.5, 0.8, 0.95)
        ]
        assert speedups == sorted(speedups)

    def test_superlinear_growth(self, sim):
        """Fig. 5: 80% -> ~5x but 90% -> >10x (superlinear in s)."""
        at_80 = sim.speedup(LARGE, SelectivityProfile.mixed(0.8))
        at_90 = sim.speedup(LARGE, SelectivityProfile.mixed(0.9))
        assert at_80 == pytest.approx(5.0, rel=0.25)
        assert at_90 > at_80 * 1.7

    def test_headline_30x_at_extreme_selectivity(self, sim):
        """The abstract's headline: up to ~30x on high selectivity."""
        speedup = sim.speedup(LARGE, SelectivityProfile.mixed(0.9999))
        assert 20 < speedup < 45

    def test_row_cheaper_than_column_at_high_selectivity(self, sim):
        """Fig. 5: row selectivity outperforms column/mixed."""
        rows = sim.run(
            "pushdown", LARGE, SelectivityProfile.rows(0.999)
        ).duration
        columns = sim.run(
            "pushdown", LARGE, SelectivityProfile.columns(0.999)
        ).duration
        mixed = sim.run(
            "pushdown", LARGE, SelectivityProfile.mixed(0.999)
        ).duration
        assert rows < columns <= mixed

    def test_larger_datasets_speed_up_more(self, sim):
        """Fig. 6: 3 TB gains exceed 50 GB gains at equal selectivity."""
        profile = SelectivityProfile.mixed(0.99)
        small = sim.speedup(SMALL, profile)
        large = sim.speedup(LARGE, profile)
        assert large > small * 1.5


class TestParquetMode:
    def test_parquet_beats_plain_at_zero_selectivity(self, sim):
        """Fig. 8: compression shortens ingest regardless of query."""
        plain = sim.run("plain", SMALL).duration
        parquet = sim.run(
            "parquet", SMALL, SelectivityProfile.columns(0.0)
        ).duration
        assert plain / parquet > 1.5

    def test_parquet_speedup_flat_in_selectivity(self, sim):
        """Parquet moves the whole object whatever the query keeps."""
        low = sim.run(
            "parquet", SMALL, SelectivityProfile.columns(0.1)
        ).duration
        high = sim.run(
            "parquet", SMALL, SelectivityProfile.columns(0.9)
        ).duration
        assert low == pytest.approx(high, rel=0.05)

    def test_scoop_overtakes_parquet_at_high_selectivity(self, sim):
        """Fig. 8: the crossover -- Scoop wins from ~60-70% upward."""
        profile = SelectivityProfile.columns(0.9)
        scoop = sim.run("pushdown", SMALL, profile).duration
        parquet = sim.run("parquet", SMALL, profile).duration
        assert parquet / scoop > 1.5

    def test_parquet_beats_scoop_at_low_selectivity(self, sim):
        profile = SelectivityProfile.columns(0.2)
        scoop = sim.run("pushdown", SMALL, profile).duration
        parquet = sim.run("parquet", SMALL, profile).duration
        assert parquet < scoop


class TestStaging:
    def test_object_node_beats_proxy_at_high_selectivity(self, sim):
        """Section V-A: running at object nodes avoids moving whole
        objects to the 6-proxy pool with its far smaller CPU capacity."""
        profile = SelectivityProfile.mixed(0.99)
        object_node = sim.run("pushdown", LARGE, profile).duration
        proxy = sim.run("pushdown_proxy", LARGE, profile).duration
        assert proxy > object_node * 1.5


class TestResourceAccounting:
    def test_pushdown_uses_storage_cpu(self, sim):
        profile = SelectivityProfile.mixed(0.99)
        plain = sim.run("plain", LARGE, profile)
        pushdown = sim.run("pushdown", LARGE, profile)
        assert (
            pushdown.mean_series("storage.cpu")
            > plain.mean_series("storage.cpu") * 10
        )

    def test_pushdown_saves_compute_cpu_cycles(self, sim):
        """Fig. 9(a): Scoop cuts compute-cluster CPU cycles drastically."""
        profile = SelectivityProfile.mixed(0.99)
        plain = sim.run("plain", LARGE, profile)
        pushdown = sim.run("pushdown", LARGE, profile)
        plain_cycles = plain.series["worker.cpu"].integral()
        pushdown_cycles = pushdown.series["worker.cpu"].integral()
        assert pushdown_cycles < plain_cycles * 0.1

    def test_pushdown_offloads_lb(self, sim):
        """Fig. 9(c): with Scoop only a trickle crosses the LB."""
        profile = SelectivityProfile.mixed(0.99)
        pushdown = sim.run("pushdown", LARGE, profile)
        assert pushdown.bytes_over_lb == pytest.approx(LARGE * 0.01, rel=0.01)
        assert pushdown.peak_series("lb.throughput") < 0.6e9

    def test_memory_peak_lower_and_shorter_with_scoop(self, sim):
        """Fig. 9(b): lower peak, and held for far less time."""
        profile = SelectivityProfile.mixed(0.99)
        plain = sim.run("plain", LARGE, profile)
        pushdown = sim.run("pushdown", LARGE, profile)
        assert (
            pushdown.peak_series("worker.memory")
            < plain.peak_series("worker.memory")
        )
        assert plain.duration > pushdown.duration * 10

    def test_storage_memory_shows_sandbox_overhead(self, sim):
        """Fig. 10 discussion: the warm sandbox keeps 4-6% memory."""
        profile = SelectivityProfile.mixed(0.5)
        plain = sim.run("plain", LARGE, profile)
        pushdown = sim.run("pushdown", LARGE, profile)
        assert plain.mean_series("storage.memory") == pytest.approx(0.02)
        assert 0.04 <= pushdown.mean_series("storage.memory") <= 0.08


class TestParameterSensitivity:
    def test_small_chunks_add_latency(self):
        base = PerfParameters()
        tiny = dataclasses.replace(base, chunk_size=16e6)
        profile = SelectivityProfile.mixed(0.95)
        normal = IngestSimulation(base).run("pushdown", SMALL, profile)
        chunked = IngestSimulation(tiny).run("pushdown", SMALL, profile)
        assert chunked.duration > normal.duration

    def test_huge_chunks_starve_parallelism(self):
        base = PerfParameters()
        huge = dataclasses.replace(base, chunk_size=32e9)
        profile = SelectivityProfile.mixed(0.95)
        normal = IngestSimulation(base).run("pushdown", LARGE, profile)
        starved = IngestSimulation(huge).run("pushdown", LARGE, profile)
        assert starved.duration > normal.duration * 1.5

    def test_bigger_lb_shrinks_plain_time(self):
        base = PerfParameters()
        fat_testbed = dataclasses.replace(
            base.testbed, lb_bandwidth=base.testbed.lb_bandwidth * 4
        )
        fat = dataclasses.replace(base, testbed=fat_testbed)
        slow = IngestSimulation(base).run("plain", LARGE).duration
        fast = IngestSimulation(fat).run("plain", LARGE).duration
        assert fast < slow / 2


def _series_digest(series, value_text=repr) -> str:
    """16 hex digits of SHA-256 over each series' name, times and values."""
    digest = hashlib.sha256()
    for name in sorted(series):
        sampled = series[name]
        digest.update(name.encode())
        digest.update(struct.pack(f"<{len(sampled.times)}d", *sampled.times))
        digest.update(" ".join(map(value_text, sampled.values)).encode())
    return digest.hexdigest()[:16]


MEDIUM = DATASETS["medium"].size_bytes

GOLDEN_PROFILES = {
    "none": SelectivityProfile(0.0),
    "mixed80": SelectivityProfile.mixed(0.8),
    "rows99": SelectivityProfile.rows(0.99),
}

#: (mode, profile) -> (duration, bytes_over_lb, task_count, wave_count,
#: series digest): recorded values the replay must reproduce bit for bit.
GOLDEN_RUNS = {
    ("plain", "mixed80"): (
        404.40000000000003, 500000000000.0, 3907, 7, "54f1d4c6be0c6616",
    ),
    ("plain", "none"): (
        404.40000000000003, 500000000000.0, 3907, 7, "54f1d4c6be0c6616",
    ),
    ("plain", "rows99"): (
        404.40000000000003, 500000000000.0, 3907, 7, "54f1d4c6be0c6616",
    ),
    ("pushdown", "mixed80"): (
        84.28, 99999999999.99998, 3907, 7, "e8464d8f17d9c20c",
    ),
    ("pushdown", "none"): (
        404.56, 500000000000.0, 3907, 7, "92c659c7079fa24e",
    ),
    ("pushdown", "rows99"): (
        14.866307668621113, 5000000000.000005, 3907, 7, "d03d681bd1a56f39",
    ),
    ("pushdown_proxy", "mixed80"): (
        84.28, 99999999999.99998, 3907, 7, "aaa670aebd6e6b58",
    ),
    ("pushdown_proxy", "none"): (
        404.56, 500000000000.0, 3907, 7, "a5826ddc12daa406",
    ),
    ("pushdown_proxy", "rows99"): (
        42.33159229872309, 5000000000.000005, 3907, 7, "92c8fc9d89fc4e27",
    ),
    ("pushdown_compressed", "mixed80"): (
        28.45668799590478, 29999999999.999992, 3907, 7, "91782e426be16b98",
    ),
    ("pushdown_compressed", "none"): (
        124.4442807780906, 150000000000.0, 3907, 7, "df5e6e19eb35099d",
    ),
    ("pushdown_compressed", "rows99"): (
        14.866307668621113, 1500000000.0000014, 3907, 7, "120d2c88bd5ff64d",
    ),
    ("parquet", "mixed80"): (
        132.4, 160000000000.0, 1250, 3, "dc4dee3b582cf5c1",
    ),
    ("parquet", "none"): (
        132.4, 160000000000.0, 1250, 3, "dc4dee3b582cf5c1",
    ),
    ("parquet", "rows99"): (
        132.4, 160000000000.0, 1250, 3, "dc4dee3b582cf5c1",
    ),
}


class TestGoldenReplay:
    """The replay's outputs, pinned exactly.

    A change to the kernel's event order, the flow allocation or the
    job loop shows here as a changed value.
    """

    @pytest.mark.parametrize("mode", IngestSimulation.MODES)
    @pytest.mark.parametrize("profile", sorted(GOLDEN_PROFILES))
    def test_single_run(self, sim, mode, profile):
        result = sim.run(mode, MEDIUM, GOLDEN_PROFILES[profile])
        observed = (
            result.duration,
            result.bytes_over_lb,
            result.task_count,
            result.wave_count,
            _series_digest(result.series),
        )
        assert observed == GOLDEN_RUNS[mode, profile]

    def test_staggered_two_tenants(self):
        outcome = ConcurrentIngestSimulation().run_concurrent(
            [
                JobSpec("early", "plain", MEDIUM),
                JobSpec(
                    "late",
                    "pushdown",
                    MEDIUM,
                    SelectivityProfile.mixed(0.9),
                    start_time=40.0,
                ),
            ]
        )
        finishes = [(job.name, job.finish_time) for job in outcome.jobs]
        assert finishes == [
            ("early", 443.40000000000003),
            ("late", 126.87469820172149),
        ]
        # Twelve significant digits, as first recorded; the full
        # precision is pinned across processes by
        # ``TestOneReplayPerProcess``.
        digest = _series_digest(
            {"lb": outcome.lb_utilization}, lambda value: f"{value:.12g}"
        )
        assert digest == "99ca9f793f3a6bc6"

    def test_neighbour_impact(self):
        observed = [
            (r.foreground_mode, r.foreground_duration, r.background_duration)
            for r in neighbour_impact(MEDIUM, MEDIUM, 0.99)
        ]
        assert observed == [
            ("plain", 803.4000000000001, 803.4000000000001),
            ("pushdown", 28.010118525038386, 414.85506792058516),
        ]


#: The staggered two-tenant replay, printing ``lb_utilization`` at full
#: precision.
_STAGGERED_SCRIPT = """
from repro.perfmodel import DATASETS, SelectivityProfile
from repro.perfmodel.concurrent import ConcurrentIngestSimulation, JobSpec

medium = DATASETS["medium"].size_bytes
outcome = ConcurrentIngestSimulation().run_concurrent([
    JobSpec("early", "plain", medium),
    JobSpec("late", "pushdown", medium, SelectivityProfile.mixed(0.9), start_time=40.0),
])
series = outcome.lb_utilization
print(repr(list(zip(series.times, series.values))))
"""


class TestOneReplayPerProcess:
    """Flows are kept in arrival order, not in sets hashed by address,
    so a replay's sums and tie-breaks do not follow memory layout: two
    fresh interpreters give the same series to the last bit."""

    def test_staggered_two_tenants_bit_identical_across_processes(self):
        source = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(source))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _STAGGERED_SCRIPT],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = [run.communicate(timeout=300)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert outputs[0] == outputs[1]
        assert len(eval(outputs[0])) > 100
