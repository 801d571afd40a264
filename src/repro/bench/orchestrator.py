"""Run named experiments with tracing, histograms and JSON capture.

:func:`run_experiment` is the single entry point the CLI and the
benchmark suite share: it builds the run's own
:class:`~repro.obs.trace.TraceCollector` and
:class:`~repro.obs.metrics.MetricsRegistry` (handed to the runner on its
:class:`BenchContext`; nothing process-wide is touched), declares the
fixed-bucket latency/CPU histograms, opens a root
``bench``-tier span for the experiment and one child span per
simulation point, and finally assembles a schema-validated result
document -- optionally written to ``BENCH_<name>.json`` next to a
Chrome ``trace_event`` export that must round-trip through
:func:`~repro.obs.trace.validate_chrome_trace` before it is accepted.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.bench.experiments import EXPERIMENTS, experiment_names
from repro.bench.schema import SCHEMA_VERSION, validate_result
from repro.obs.metrics import (
    LATENCY_BUCKETS_SECONDS,
    SIMULATED_SECONDS_BUCKETS,
    MetricsRegistry,
)
from repro.obs.trace import TraceCollector, validate_chrome_trace

#: Histogram of wall-clock seconds per simulation point.
POINT_SECONDS = "bench.point_seconds"
#: Histogram of process-CPU seconds per simulation point.
POINT_CPU_SECONDS = "bench.point_cpu_seconds"
#: Histogram of *simulated* durations the points reported.
SIM_SECONDS = "bench.sim_seconds"


class BenchContext:
    """What one experiment runner sees while it executes.

    Collects tables/results/headline/checks for the result document and
    wraps each simulation point in a trace span plus latency/CPU
    histogram observations.
    """

    def __init__(
        self,
        experiment_name: str,
        tracer: TraceCollector,
        registry: MetricsRegistry,
        quick: bool,
        options: Optional[Dict[str, Any]] = None,
    ):
        """Bind the context to one experiment run's collectors."""
        self.experiment_name = experiment_name
        self.tracer = tracer
        self.registry = registry
        self.quick = quick
        #: Free-form per-run knobs (e.g. ``workday_arrivals`` from the
        #: CLI's ``--arrivals``); experiments read what they understand
        #: and ignore the rest.
        self.options: Dict[str, Any] = dict(options or {})
        self.trace_id = tracer.new_trace_id()
        self.tables: List[Dict[str, Any]] = []
        self.results: Dict[str, Any] = {}
        self.headline: Dict[str, float] = {}
        self.checks: List[Dict[str, Any]] = []

    @contextlib.contextmanager
    def point(self, label: str) -> Iterator[None]:
        """Trace and time one simulation point of the experiment."""
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        with self.tracer.span(
            "bench", label, trace_id=self.trace_id,
            experiment=self.experiment_name,
        ):
            yield
        labels = {"experiment": self.experiment_name}
        self.registry.observe(
            POINT_SECONDS, time.perf_counter() - wall_start, **labels
        )
        self.registry.observe(
            POINT_CPU_SECONDS, time.process_time() - cpu_start, **labels
        )

    def record_sim_seconds(self, seconds: float, **labels: Any) -> None:
        """Record a *simulated* duration a point reported (model time,
        not wall time) into the ``bench.sim_seconds`` histogram."""
        self.registry.observe(
            SIM_SECONDS, seconds, experiment=self.experiment_name, **labels
        )

    def add_table(
        self,
        title: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[Any]],
    ) -> None:
        """Append one result table (rendered by reports and benchmarks)."""
        self.tables.append(
            {
                "title": title,
                "headers": list(headers),
                "rows": [list(row) for row in rows],
            }
        )

    def set_result(self, key: str, value: Any) -> None:
        """Store one raw machine-readable result under ``key``."""
        self.results[key] = value

    def set_headline(self, key: str, value: float) -> None:
        """Store one headline metric (the baseline-comparison gate
        watches these for regressions)."""
        self.headline[key] = float(value)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        """Record one named expectation; returns ``passed`` unchanged."""
        self.checks.append(
            {"name": name, "passed": bool(passed), "detail": detail}
        )
        return passed


def run_experiment(
    name: str,
    quick: bool = False,
    out_dir: Union[str, Path, None] = None,
    options: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one named experiment; return its validated result document.

    With ``out_dir`` the document is written to ``BENCH_<name>.json``
    and the run's Chrome trace to ``trace_<name>.json`` (validated
    before acceptance); without it nothing touches the filesystem,
    which is what the pytest benchmark suite uses.
    """
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(experiment_names())
        raise KeyError(f"unknown experiment {name!r} (known: {known})")
    tracer = TraceCollector(enabled=True)
    registry = MetricsRegistry()
    registry.declare_histogram(POINT_SECONDS, LATENCY_BUCKETS_SECONDS)
    registry.declare_histogram(POINT_CPU_SECONDS, LATENCY_BUCKETS_SECONDS)
    registry.declare_histogram(SIM_SECONDS, SIMULATED_SECONDS_BUCKETS)
    wall_start = time.perf_counter()
    bench = BenchContext(name, tracer, registry, quick, options=options)
    with tracer.span(
        "bench", f"experiment {name}", trace_id=bench.trace_id,
        mode="quick" if quick else "full",
    ):
        experiment.runner(bench)
    wall_seconds = time.perf_counter() - wall_start
    chrome = tracer.export_chrome()
    validate_chrome_trace(chrome)
    spans = len(tracer.snapshot())
    histograms = {
        series: stats.to_dict()
        for metric in (POINT_SECONDS, POINT_CPU_SECONDS, SIM_SECONDS)
        for series, stats in registry.histogram_series(metric).items()
    }

    document: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "experiment": name,
        "title": experiment.title,
        "mode": "quick" if quick else "full",
        "paper": experiment.paper,
        "tables": bench.tables,
        "results": bench.results,
        "headline": bench.headline,
        "checks": bench.checks,
        "metrics": {"histograms": histograms},
        "timing": {"wall_seconds": wall_seconds},
        "trace": {"spans": spans, "dropped": tracer.dropped},
    }
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        trace_file = out_path / f"trace_{name}.json"
        trace_file.write_text(json.dumps(chrome, indent=2) + "\n")
        document["trace"]["file"] = trace_file.name
        validate_result(document)
        (out_path / f"BENCH_{name}.json").write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
    else:
        validate_result(document)
    return document


def run_suite(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    out_dir: Union[str, Path, None] = None,
    progress: Optional[Any] = None,
    options: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Run several experiments in registry order; return their documents.

    ``progress`` is an optional callable invoked as
    ``progress(name, document)`` after each experiment completes.
    """
    selected = list(names) if names else experiment_names()
    order = {name: index for index, name in enumerate(experiment_names())}
    unknown = [name for name in selected if name not in order]
    if unknown:
        known = ", ".join(experiment_names())
        raise KeyError(f"unknown experiments {unknown} (known: {known})")
    documents = []
    for name in sorted(set(selected), key=order.__getitem__):
        document = run_experiment(
            name, quick=quick, out_dir=out_dir, options=options
        )
        if progress is not None:
            progress(name, document)
        documents.append(document)
    return documents
