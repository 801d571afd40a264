"""Tests for the concurrent multi-tenant simulation (Section VI-D)."""

import pytest

from repro.perfmodel import DATASETS, SelectivityProfile
from repro.perfmodel.concurrent import (
    ConcurrentIngestSimulation,
    JobSpec,
    neighbour_impact,
)


@pytest.fixture(scope="module")
def sim():
    return ConcurrentIngestSimulation()


MEDIUM = DATASETS["medium"].size_bytes


class TestBasics:
    def test_empty_specs_raise(self, sim):
        with pytest.raises(ValueError):
            sim.run_concurrent([])

    def test_unknown_mode_raises(self, sim):
        with pytest.raises(ValueError):
            sim.run_concurrent([JobSpec("x", "warp", 1e9)])

    @pytest.mark.parametrize("mode", ConcurrentIngestSimulation.MODES)
    def test_single_job_matches_solo_run(self, sim, mode):
        """One tenant is the single-query replay minus its 1.0 s
        memory-release tail, to the last bit."""
        solo = sim.run(mode, MEDIUM).duration
        concurrent = sim.run_concurrent([JobSpec("only", mode, MEDIUM)])
        assert solo == concurrent.job("only").duration + 1.0

    def test_job_lookup(self, sim):
        outcome = sim.run_concurrent([JobSpec("a", "plain", 10e9)])
        assert outcome.job("a").mode == "plain"
        with pytest.raises(KeyError):
            outcome.job("ghost")

    def test_staggered_start_respected(self, sim):
        outcome = sim.run_concurrent(
            [
                JobSpec("early", "plain", 10e9),
                JobSpec("late", "plain", 10e9, start_time=100.0),
            ]
        )
        late = outcome.job("late")
        assert late.start_time == 100.0
        assert late.finish_time > 100.0


class TestContention:
    def test_two_plain_jobs_halve_the_link(self, sim):
        solo = sim.run("plain", MEDIUM).duration
        outcome = sim.run_concurrent(
            [
                JobSpec("a", "plain", MEDIUM),
                JobSpec("b", "plain", MEDIUM),
            ]
        )
        # Both saturate the LB together: each takes about twice as long.
        assert outcome.job("a").duration == pytest.approx(
            2 * solo, rel=0.1
        )

    def test_pushdown_neighbour_barely_hurts(self, sim):
        """Section VI-D: with Scoop the network has 'more resources to
        serve other jobs'."""
        solo = sim.run("plain", MEDIUM).duration
        outcome = sim.run_concurrent(
            [
                JobSpec(
                    "scoop",
                    "pushdown",
                    MEDIUM,
                    SelectivityProfile.mixed(0.99),
                ),
                JobSpec("victim", "plain", MEDIUM),
            ]
        )
        victim = outcome.job("victim").duration
        assert victim < solo * 1.15  # barely slower than running alone
        assert outcome.job("scoop").duration < victim / 5

    def test_neighbour_impact_helper(self):
        results = neighbour_impact(MEDIUM, MEDIUM, 0.99)
        by_mode = {r.foreground_mode: r for r in results}
        # A plain foreground roughly doubles the victim's time...
        assert (
            by_mode["plain"].background_duration
            > by_mode["pushdown"].background_duration * 1.6
        )
        # ...while the pushdown foreground is also far faster itself.
        assert (
            by_mode["pushdown"].foreground_duration
            < by_mode["plain"].foreground_duration / 5
        )

    def test_many_pushdown_tenants_scale(self, sim):
        """Five concurrent 95%-selectivity tenants finish faster than a
        single plain tenant of the same size."""
        solo_plain = sim.run("plain", 100e9).duration
        outcome = sim.run_concurrent(
            [
                JobSpec(
                    f"t{i}",
                    "pushdown",
                    100e9,
                    SelectivityProfile.mixed(0.95),
                )
                for i in range(5)
            ]
        )
        assert outcome.makespan() < solo_plain

    def test_lb_utilization_sampled(self, sim):
        outcome = sim.run_concurrent(
            [JobSpec("a", "plain", 50e9)]
        )
        assert outcome.lb_utilization.peak() > 0.5
