"""Tests for the benchmark orchestration subsystem (repro.bench):
schema validation, the orchestrator's capture contract (JSON + Chrome
trace + percentile histograms), the report generator (golden-file and
drift gate), baseline comparison, and the ``repro bench`` CLI."""

import copy
import json
import pathlib

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    SchemaError,
    check_document,
    compare_to_baseline,
    generate_markdown,
    load_results,
    run_experiment,
    validate,
    validate_result,
    write_report,
)
from repro.bench.experiments import EXPERIMENTS, experiment_names
from repro.cli import main
from repro.obs import validate_chrome_trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _fixture_document() -> dict:
    """A small, fully fixed result document (registered name: fig1)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": "fig1",
        "title": "Fig. 1 -- ingest-then-compute grows linearly",
        "mode": "full",
        "paper": "linear growth in query completion times.",
        "tables": [
            {
                "title": "Fig. 1 -- query time vs dataset size",
                "headers": ["dataset (GB)", "query time (s)"],
                "rows": [[5, 8.2], [50, 44.2]],
            }
        ],
        "results": {"points": [{"dataset_gb": 5, "query_seconds": 8.2}]},
        "headline": {"seconds_per_gb_at_50gb": 0.884},
        "checks": [
            {
                "name": "linear growth",
                "passed": True,
                "detail": "spread 0.000 vs max 0.800",
            }
        ],
        "metrics": {"histograms": {}},
        "timing": {"wall_seconds": 0.25},
        "trace": {"file": "trace_fig1.json", "spans": 7, "dropped": 0},
    }


class TestSchemaValidator:
    def test_fixture_document_validates(self):
        validate_result(_fixture_document())

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("headline"), "missing required key"),
            (lambda d: d.update(mode="fast"), "not in"),
            (lambda d: d.update(schema_version=99), "not in"),
            (lambda d: d["checks"].clear(), "minItems"),
            (lambda d: d["checks"][0].update(passed="yes"), "boolean"),
            (lambda d: d["timing"].update(wall_seconds=-1), "minimum"),
            (lambda d: d["tables"][0]["headers"].append(3), "string"),
            (lambda d: d.update(trace={"spans": 0, "dropped": 0}), "minimum"),
        ],
    )
    def test_violations_name_the_path(self, mutate, fragment):
        document = _fixture_document()
        mutate(document)
        with pytest.raises(SchemaError, match=fragment):
            validate_result(document)

    def test_unknown_schema_keyword_is_an_error(self):
        with pytest.raises(SchemaError, match="unsupported"):
            validate(1, {"type": "integer", "maximum": 5})

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "number"})


class TestOrchestrator:
    def test_registry_names_are_canonical(self):
        assert experiment_names() == [
            "fig1", "table1", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "ablations", "skipping", "placement", "workday",
        ]

    def test_unknown_experiment_raises_with_known_names(self):
        with pytest.raises(KeyError, match="fig10"):
            run_experiment("fig99")

    def test_run_captures_schema_valid_json_trace_and_percentiles(
        self, tmp_path
    ):
        document = run_experiment("fig1", quick=True, out_dir=tmp_path)
        validate_result(document)

        on_disk = json.loads((tmp_path / "BENCH_fig1.json").read_text())
        validate_result(on_disk)
        assert on_disk["experiment"] == "fig1"
        assert on_disk["mode"] == "quick"
        assert all(check["passed"] for check in on_disk["checks"])

        chrome = json.loads((tmp_path / "trace_fig1.json").read_text())
        validate_chrome_trace(chrome)
        bench_events = [
            e for e in chrome["traceEvents"] if e.get("cat") == "bench"
        ]
        assert len(bench_events) == on_disk["trace"]["spans"]
        # Every point span carries the experiment's minted trace id.
        trace_ids = {e["args"]["trace_id"] for e in bench_events}
        assert trace_ids == {"t00000001"}

        histograms = on_disk["metrics"]["histograms"]
        point_series = histograms["bench.point_seconds{experiment=fig1}"]
        assert point_series["count"] == 6  # one per dataset size
        for quantile in ("p50", "p95", "p99"):
            assert point_series[quantile] >= 0
        sim_series = histograms["bench.sim_seconds{experiment=fig1,mode=plain}"]
        assert sim_series["count"] == 6
        # Simulated durations are deterministic: p99 ~ the 50 GB run.
        assert sim_series["p99"] == pytest.approx(44.2, rel=0.01)

    def test_no_out_dir_touches_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        document = run_experiment("fig1", quick=True)
        assert "file" not in document["trace"]
        assert list(tmp_path.iterdir()) == []


class TestReportGenerator:
    def _results_dir(self, tmp_path) -> pathlib.Path:
        results = tmp_path / "results"
        results.mkdir()
        document = _fixture_document()
        document["trace"].pop("file")
        (results / "BENCH_fig1.json").write_text(json.dumps(document))
        return results

    def test_golden_file_markdown_is_byte_identical(self, tmp_path):
        """A fixed results JSON renders exactly the committed golden
        markdown -- any generator change must update the golden file
        consciously."""
        results = self._results_dir(tmp_path)
        text = generate_markdown(load_results(results))
        golden = (GOLDEN_DIR / "experiments_fig1.md").read_text()
        assert text == golden

    def test_check_passes_then_fails_after_one_cell_mutation(
        self, tmp_path
    ):
        results = self._results_dir(tmp_path)
        out = tmp_path / "EXPERIMENTS.md"
        write_report(results, out)
        assert check_document(results, out) == []

        document = json.loads((results / "BENCH_fig1.json").read_text())
        document["tables"][0]["rows"][1][1] = 99.9  # one cell
        (results / "BENCH_fig1.json").write_text(json.dumps(document))
        diff = check_document(results, out)
        assert diff
        assert any("99.9" in line for line in diff)

    def test_check_missing_document_is_full_drift(self, tmp_path):
        results = self._results_dir(tmp_path)
        assert check_document(results, tmp_path / "absent.md")

    def test_load_results_rejects_misnamed_documents(self, tmp_path):
        results = self._results_dir(tmp_path)
        (results / "BENCH_fig5.json").write_text(
            (results / "BENCH_fig1.json").read_text()
        )
        with pytest.raises(SchemaError, match="does not match filename"):
            load_results(results)

    def test_load_results_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_results(tmp_path)


class TestBaselineComparison:
    def _dirs(self, tmp_path):
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        document = _fixture_document()
        document["trace"].pop("file")
        (baseline / "BENCH_fig1.json").write_text(json.dumps(document))
        return baseline, document

    def test_identical_results_pass(self, tmp_path):
        baseline, document = self._dirs(tmp_path)
        assert compare_to_baseline([document], baseline) == []

    def test_headline_drift_is_flagged(self, tmp_path):
        baseline, document = self._dirs(tmp_path)
        drifted = copy.deepcopy(document)
        drifted["headline"]["seconds_per_gb_at_50gb"] *= 1.5
        regressions = compare_to_baseline([drifted], baseline, 0.05)
        assert len(regressions) == 1
        assert "seconds_per_gb_at_50gb" in regressions[0]

    def test_small_drift_within_tolerance_passes(self, tmp_path):
        baseline, document = self._dirs(tmp_path)
        drifted = copy.deepcopy(document)
        drifted["headline"]["seconds_per_gb_at_50gb"] *= 1.01
        assert compare_to_baseline([drifted], baseline, 0.05) == []

    def test_check_regression_is_flagged(self, tmp_path):
        baseline, document = self._dirs(tmp_path)
        regressed = copy.deepcopy(document)
        regressed["checks"][0]["passed"] = False
        regressions = compare_to_baseline([regressed], baseline)
        assert any("check regressed" in line for line in regressions)


class TestBenchCli:
    def test_bench_run_quick_writes_documents(self, tmp_path, capsys):
        code = main(
            ["bench", "run", "--figures", "fig1", "--quick",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "BENCH_fig1.json").exists()
        assert (tmp_path / "trace_fig1.json").exists()
        out = capsys.readouterr().out
        assert "1/1 checks" in out
        # The run prints the experiment's tables, title and headers.
        assert "== Fig. 1 -- ingest-then-compute query time vs dataset size ==" in out
        assert "| dataset (GB) |" in out

    def test_bare_bench_normalizes_to_run(self, tmp_path):
        code = main(
            ["bench", "--figures", "fig1", "--quick",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "BENCH_fig1.json").exists()

    def test_bench_unknown_figure_exits_2(self, tmp_path, capsys):
        code = main(
            ["bench", "--figures", "nope", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_bench_report_and_check_flow(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(
            ["bench", "--figures", "fig1", "--quick",
             "--out-dir", str(out_dir)]
        ) == 0
        doc_path = tmp_path / "EXPERIMENTS.md"
        assert main(
            ["bench", "report", "--results", str(out_dir),
             "--out", str(doc_path)]
        ) == 0
        assert main(
            ["bench", "report", "--results", str(out_dir),
             "--out", str(doc_path), "--check"]
        ) == 0
        # Drift: change one rendered cell in the measured JSON.
        bench_path = out_dir / "BENCH_fig1.json"
        document = json.loads(bench_path.read_text())
        document["tables"][0]["rows"][0][1] = 123.456
        bench_path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(
            ["bench", "report", "--results", str(out_dir),
             "--out", str(doc_path), "--check"]
        ) == 1
        assert "drifted" in capsys.readouterr().err

    def test_bench_run_gates_against_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        assert main(
            ["bench", "--figures", "fig1", "--quick",
             "--out-dir", str(baseline)]
        ) == 0
        fresh = tmp_path / "fresh"
        assert main(
            ["bench", "--figures", "fig1", "--quick",
             "--out-dir", str(fresh), "--baseline", str(baseline)]
        ) == 0
        # Poison the baseline headline: the rerun must now fail.
        bench_path = baseline / "BENCH_fig1.json"
        document = json.loads(bench_path.read_text())
        document["headline"]["seconds_per_gb_at_50gb"] *= 10
        bench_path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(
            ["bench", "--figures", "fig1", "--quick",
             "--out-dir", str(fresh), "--baseline", str(baseline)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_bench_list_names_every_experiment(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
