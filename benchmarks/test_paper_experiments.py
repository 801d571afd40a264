"""Every evaluation artifact of the paper, one case per registered
experiment (Figs. 1 and 5-10, Table I, the ablations, data skipping,
placement, the workday replay).

Each case is ``python -m repro bench --figures <name>`` in full mode:
the registry (``repro.bench.experiments``) states each figure's tables
and checks exactly once, and a failed check fails the case.
"""

import pytest

from benchmarks.conftest import run_bench
from repro.bench import experiment_names


@pytest.mark.parametrize("name", experiment_names())
def test_paper_experiment(benchmark, name):
    run_bench(benchmark, name)
