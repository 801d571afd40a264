"""Cost-based placement: model, engine, feedback loop and wiring."""

import pytest

from repro.core import ScoopContext
from repro.placement import (
    PlacementCostModel,
    PlacementEngine,
    engine_from_environment,
    task_signature,
)
from repro.placement.cost import TIERS
from repro.sql.types import Schema

SCHEMA = Schema.of("vid", "date", "index:int", "city")
CSV = "\n".join(
    f"v{i % 5},2017-04-01,{i % 9},city{i % 3}" for i in range(240)
) + "\n"


def build_context(**kwargs):
    ctx = ScoopContext(chunk_size=4096, **kwargs)
    ctx.upload_csv("meters", "a.csv", CSV[: len(CSV) // 2])
    ctx.upload_csv("meters", "b.csv", CSV[len(CSV) // 2 :])
    ctx.register_csv_table("m", "meters", schema=SCHEMA)
    return ctx


class TestCostModel:
    def test_estimates_every_tier(self):
        model = PlacementCostModel()
        estimates = model.estimate_all(1e10, 0.1, row_filtering=True)
        assert set(estimates) == set(TIERS)
        assert all(e.duration > 0 for e in estimates.values())

    def test_pushdown_wins_large_selective(self):
        model = PlacementCostModel()
        estimates = model.estimate_all(100e9, 0.05, row_filtering=True)
        assert estimates["object"].duration < estimates["compute"].duration

    def test_plain_wins_small_datasets(self):
        # Fixed storlet overheads dominate tiny jobs: classic ingest is
        # cheapest, which is why adaptive placement keeps functional
        # (megabyte-scale) runs compute-side.
        model = PlacementCostModel()
        estimates = model.estimate_all(64e6, 0.1, row_filtering=True)
        assert estimates["compute"].duration <= estimates["object"].duration

    def test_proxy_cpu_saturates_at_high_selectivity(self):
        # The staging ablation, as a cost-model fact: at very high
        # selectivity over a big dataset the proxy's small CPU pool is
        # the bottleneck the object tier does not have.
        model = PlacementCostModel()
        estimates = model.estimate_all(100e9, 0.05, row_filtering=True)
        assert estimates["object"].duration < estimates["proxy"].duration

    def test_aggregation_shrinks_transfer(self):
        model = PlacementCostModel()
        plain = model.estimate("object", 10e9, 0.5, row_filtering=True)
        agg = model.estimate(
            "object", 10e9, 0.5, row_filtering=True, aggregation=True
        )
        assert agg.bytes_over_interconnect < plain.bytes_over_interconnect

    def test_memoizes_repeat_estimates(self):
        model = PlacementCostModel()
        first = model.estimate("object", 1e9, 0.3, row_filtering=True)
        assert model.estimate("object", 1e9, 0.3, row_filtering=True) is first

    def test_rejects_unknown_tier(self):
        with pytest.raises(ValueError):
            PlacementCostModel().estimate("edge", 1e9, 0.5)


class TestEngine:
    def test_adaptive_picks_argmin(self):
        engine = PlacementEngine()
        decision = engine.decide("sig", 100e9, kept_hint=0.05,
                                 row_filtering=True)
        best = min(
            decision.estimates.values(), key=lambda e: e.duration
        )
        assert decision.tier == best.tier

    @pytest.mark.parametrize("mode", ["object", "proxy", "compute"])
    def test_fixed_modes_pin_the_tier(self, mode):
        engine = PlacementEngine(mode=mode)
        decision = engine.decide("sig", 100e9, kept_hint=0.05)
        assert decision.tier == mode
        assert "fixed" in decision.reason
        # Estimates still recorded: fixed runs keep explainability.
        assert set(decision.estimates) == set(TIERS)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            PlacementEngine(mode="everywhere")

    def test_feedback_refines_estimates(self):
        engine = PlacementEngine(smoothing=0.5)
        decision = engine.decide(
            "sig", 100e9, kept_hint=0.05, row_filtering=True
        )
        assert decision.tier != "compute"
        refined = engine.observe_report(1000.0, 100.0, decision=decision)
        assert refined == pytest.approx(0.1)
        # EWMA: 0.5 * 0.3 + 0.5 * 0.1 = 0.2
        assert engine.observe("sig", 0.3) == pytest.approx(0.2)
        decision = engine.decide("sig", 100e9, kept_hint=0.05)
        assert decision.kept_fraction == pytest.approx(0.2)

    def test_observe_report_without_decision_is_noop(self):
        assert PlacementEngine().observe_report(100.0, 10.0) is None

    def test_observe_report_ignores_compute_decisions(self):
        # A compute-side run transfers every byte, so its ~1.0 ratio
        # says nothing about the query's real selectivity and must not
        # enter the EWMA (it would lock adaptive mode onto compute).
        engine = PlacementEngine(mode="compute")
        decision = engine.decide("sig", 100e9, kept_hint=0.05)
        assert engine.observe_report(
            1000.0, 1000.0, decision=decision
        ) is None
        assert "sig" not in engine.kept_estimates

    def test_observe_report_attributes_to_the_passed_decision(self):
        # Attribution is explicit: reporting bytes for one decision
        # never touches another signature's estimate, even when a later
        # decision exists.
        engine = PlacementEngine()
        first = engine.decide(
            "sig-a", 100e9, kept_hint=0.05, row_filtering=True
        )
        engine.decide("sig-b", 100e9, kept_hint=0.05, row_filtering=True)
        engine.observe_report(1000.0, 100.0, decision=first)
        assert engine.kept_estimates.keys() == {"sig-a"}

    def test_explain_is_json_friendly(self):
        import json

        engine = PlacementEngine()
        decision = engine.decide(
            "sig", 100e9, kept_hint=0.05, row_filtering=True
        )
        engine.observe_report(100.0, 50.0, decision=decision)
        explained = engine.explain()
        json.dumps(explained)
        assert explained["mode"] == "adaptive"
        assert explained["decisions"][0]["tier"] in TIERS

    def test_environment_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLACEMENT", raising=False)
        assert engine_from_environment() is None
        monkeypatch.setenv("REPRO_PLACEMENT", "object")
        assert engine_from_environment().mode == "object"
        assert engine_from_environment("adaptive").mode == "adaptive"


class TestContextWiring:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLACEMENT", raising=False)
        assert build_context().placement is None

    def test_env_var_arms_the_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLACEMENT", "adaptive")
        ctx = build_context()
        assert ctx.placement is not None
        assert ctx.placement.mode == "adaptive"

    @pytest.mark.parametrize("mode", ["adaptive", "object", "proxy",
                                      "compute"])
    def test_modes_byte_identical(self, mode):
        sql = "SELECT vid, index FROM m WHERE index > 4 ORDER BY vid, index"
        baseline = build_context().run_query(sql)[0].collect()
        ctx = build_context(placement=mode)
        frame, _report = ctx.run_query(sql)
        assert frame.collect() == baseline
        assert ctx.placement.decisions

    def test_fixed_object_mode_keeps_pushdown_savings(self):
        sql = "SELECT vid FROM m WHERE index > 7"
        _frame, fixed = build_context(placement="object").run_query(sql)
        _frame, compute = build_context(placement="compute").run_query(sql)
        assert fixed.pushdown_requests > 0
        assert compute.pushdown_requests == 0
        assert fixed.bytes_transferred < compute.bytes_transferred

    def test_run_query_closes_the_feedback_loop(self):
        ctx = build_context(placement="object")
        ctx.run_query("SELECT vid FROM m WHERE index > 4")
        assert ctx.placement.kept_estimates

    def test_compute_runs_do_not_poison_the_feedback_loop(self):
        # Regression: with work placed compute-side the run transfers
        # every requested byte, so run_query must not record a kept
        # fraction of ~1.0 for a selective query -- adaptive mode could
        # never escape that self-reinforcing mis-estimate.
        ctx = build_context(placement="compute")
        _frame, report = ctx.run_query("SELECT vid FROM m WHERE index > 7")
        assert report.pushdown_requests == 0
        assert ctx.placement.kept_estimates == {}

    def test_explain_profile_has_placement_section(self):
        ctx = build_context(placement="adaptive")
        ctx.run_query("SELECT vid FROM m WHERE index > 4")
        profile = ctx.explain_profile()
        assert profile["placement"]["mode"] == "adaptive"
        assert profile["placement"]["decisions"]

    def test_signature_distinguishes_query_shapes(self):
        from repro.core.pushdown import PushdownTask

        narrow = PushdownTask(schema=SCHEMA, columns=["vid"])
        wide = PushdownTask(schema=SCHEMA, columns=None)
        assert task_signature("c", "", narrow) != task_signature(
            "c", "", wide
        )


class TestExperiment:
    def test_model_sweep_adaptive_never_loses(self):
        from repro.experiments.placement import model_sweep

        points = model_sweep((1e9, 10e9), (0.1, 0.5, 1.0))
        assert len(points) == 6
        for point in points:
            assert point.adaptive_duration <= point.best_fixed_duration + 1e-9

    def test_cli_exposes_placement_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["demo", "--placement", "adaptive"])
        assert args.placement == "adaptive"
