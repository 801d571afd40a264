"""Benchmark orchestration and reporting (``repro bench``).

The evaluation artifacts of the paper -- Figs. 1 and 5-10, Table I,
the ablations, the workday replay -- run as named experiments through
one orchestrator (docs/benchmarking.md):

* :mod:`repro.bench.experiments` -- the registry, one runner per
  figure/table with recorded pass/fail checks;
* :mod:`repro.bench.orchestrator` -- traces, histograms and
  ``BENCH_<name>.json`` capture around each run;
* :mod:`repro.bench.schema` -- the result-document contract and its
  dependency-free validator;
* :mod:`repro.bench.reportgen` -- EXPERIMENTS.md generation, the
  ``--check`` drift gate and baseline comparison.
"""

from repro.bench.experiments import EXPERIMENTS, Experiment, experiment_names
from repro.bench.orchestrator import BenchContext, run_experiment, run_suite
from repro.bench.reportgen import (
    check_document,
    compare_to_baseline,
    generate_markdown,
    load_results,
    write_report,
)
from repro.bench.schema import (
    BENCH_RESULT_SCHEMA,
    SCHEMA_VERSION,
    SchemaError,
    validate,
    validate_result,
)

__all__ = [
    "BENCH_RESULT_SCHEMA",
    "EXPERIMENTS",
    "SCHEMA_VERSION",
    "BenchContext",
    "Experiment",
    "SchemaError",
    "check_document",
    "compare_to_baseline",
    "experiment_names",
    "generate_markdown",
    "load_results",
    "run_experiment",
    "run_suite",
    "validate",
    "validate_result",
    "write_report",
]
