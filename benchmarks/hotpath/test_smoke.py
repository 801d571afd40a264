"""Smoke tests of the hotpath benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/hotpath`` (tier-1's
``testpaths = ["tests"]`` does not collect this file).  Every run here is
``--quick``: a tiny corpus and two passes, so numbers mean nothing --
only names, accounting and the peel's arithmetic are checked.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from peel import LAYERS, self_times
from workloads import QUERIES, QUICK, WORKLOADS, Bench

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in CONTRACT["workloads"]]


def run_quick(workload: str, trace: int, out: Path) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick",
            "--workload", workload, "--trace", str(trace), "--out", str(out),
        ],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_result_matches(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workload_names_match_the_contract():
    assert list(WORKLOADS) == WORKLOAD_NAMES
    assert CONTRACT["paths"] == ["benchmarks/hotpath"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_match_the_contract(workload, tmp_path):
    result = run_quick(workload, 0, tmp_path)
    assert_result_matches(result, CONTRACT["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric_and_its_spans(workload, tmp_path):
    result = run_quick(workload, 1, tmp_path)
    assert_result_matches(result, CONTRACT["per_layer"])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    for query in QUERIES:
        shares = [metrics[f"{layer}.self_share.{query}"] for layer in LAYERS]
        assert sum(shares) == pytest.approx(1.0)

    (span_file,) = tmp_path.glob(f"spans-{workload}-*.json")
    spans = json.loads(span_file.read_text())["spans"]
    assert {span["layer"] for span in spans} <= set(LAYERS)
    assert all(span["end"] >= span["start"] for span in spans)
    by_id = {span["id"]: span for span in spans}
    children = [span for span in spans if span["parent"] is not None]
    assert children and all(
        by_id[span["parent"]]["run_id"] == span["run_id"] for span in children
    )
    if workload == "csv_plain_threads":
        # Pushdown off: the storlets depth is skipped, not faked.
        assert metrics["storlets.invocations"] == 0
        assert not any(span["name"] == "L1" for span in spans)
    if WORKLOADS[workload].parallelism == 1:
        assert metrics["swift.pool_waits"] + metrics["swift.proxy_queue_waits"] == 0


def test_peel_self_times_sum_to_l4():
    depths = dict(zip(LAYERS, (0.004, 1.53, 1.60, 1.69, 1.71)))
    selfs = self_times(depths)
    assert sum(selfs.values()) == pytest.approx(depths["sql"])
    assert selfs["storlets"] == pytest.approx(1.526)


def test_corrupted_result_is_counted_as_failed(monkeypatch):
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    bench = Bench(WORKLOADS["csv_pushdown_serial"], QUICK, seed=7)
    bench.setup()
    bench.run_pass()
    assert (bench.attempted, bench.failed) == (len(QUERIES), 0)

    run_query = bench.ctx.run_query

    def corrupted(sql):
        frame, report = run_query(sql)
        rows = frame.collect()
        rows[0] = rows[0][:-1] + ("corrupted",)
        return SimpleNamespace(collect=lambda: rows), report

    monkeypatch.setattr(bench.ctx, "run_query", corrupted)
    bench.run_pass()
    assert (bench.attempted, bench.failed) == (2 * len(QUERIES), len(QUERIES))

