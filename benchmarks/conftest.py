"""Shared helpers for the benchmark suite.

``test_paper_experiments.py`` runs every experiment of the
``repro.bench`` registry through :func:`run_bench` -- the same code path
as ``python -m repro bench`` -- so pytest-benchmark tracks each
regeneration's cost, the registry's tables are printed from the captured
result document, and every recorded check must pass.
"""


def run_bench(benchmark, name: str) -> None:
    """Run one named experiment once through the orchestrator, print its
    tables, and assert every recorded check passed."""
    # Imported here: ``pytest benchmarks/hotpath`` loads this file too,
    # and the ledger imports nothing of repro.bench.
    from repro.bench import run_experiment
    from repro.bench.reportgen import render_document_tables

    document = benchmark.pedantic(
        run_experiment, args=(name,), rounds=1, iterations=1
    )
    render_document_tables(document)
    failed = [
        f"{check['name']}: {check['detail']}"
        for check in document["checks"]
        if not check["passed"]
    ]
    assert not failed, f"{name} checks failed: {failed}"
