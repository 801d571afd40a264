"""hotpath: a wall-clock ledger for the real code path.

    python3 benchmarks/hotpath/run.py                       # every workload, both modes
    python3 benchmarks/hotpath/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/hotpath/run.py --repeat 2            # run-to-run check against the bounds
    python3 benchmarks/hotpath/run.py --quick               # tiny corpus, 2 passes

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (alias ``--traced``).  Without it,
each workload runs in a fresh subprocess and every metric is printed by
name with its unit.  Metric names, units and bounds come from
``BENCHMARK.json``; see README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def clean_environment() -> Dict[str, str]:
    """The environment minus every ``REPRO_*`` switch, so a workload is
    defined by explicit constructor arguments only."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def run_end_to_end(workload, scale, seed: int, seconds: float) -> dict:
    """Measure one workload with all tracing off."""
    from refclock import ReferenceClock
    from workloads import QUERIES, Bench

    oracle, clock = None, ReferenceClock()
    setups: List[float] = []
    for _ in range(scale.setup_repeats):
        bench = Bench(workload, scale, seed, oracle=oracle, clock=clock)
        setups.append(bench.setup())
        oracle = bench.oracle
    rows = bench.corpus.rows

    bench.run_pass()  # unmeasured warm-up (its operations still count)
    passes: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < scale.min_passes or time.perf_counter() < deadline:
        passes.append(bench.run_pass())

    def median(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    if workload.ingest:
        rows_per_s = rows / statistics.median(
            p["put_s"] + p["convert_s"] for p in passes
        )
    else:
        rows_per_s = len(QUERIES) * rows / median("pass_s")
    metrics = {f"{name}_s": median(f"{name}_s") for name in QUERIES}
    metrics.update(
        setup_s=statistics.median(setups),
        rows_per_s=rows_per_s,
        link_bytes_per_row=sum(p["link_bytes"] for p in passes) / (len(passes) * rows),
        requests_per_op=sum(p["requests"] for p in passes)
        / sum(p["ops"] for p in passes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(
        f"# {workload.name}: {len(passes)} measured passes over {rows} rows "
        f"({bench.corpus.csv_bytes / 1e6:.2f} MB CSV), {len(setups)} set-ups; "
        "times are medians over passes in reference-speed seconds (machine at "
        f"{clock.machine_speed():.2f}x reference speed)"
    )
    return {
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def run_one(args: argparse.Namespace) -> int:
    """``--workload`` given: measure in this process, print the JSON line."""
    os.environ.clear()
    os.environ.update(clean_environment())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"hotpath: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import FULL, QUICK, WORKLOADS

    contract = load_contract()
    workload = WORKLOADS[args.workload]
    scale = QUICK if args.quick else FULL
    seconds = 0.0 if args.quick else args.seconds
    if args.trace:
        from peel import run_traced

        declared = contract["per_layer"]
        span_path = args.out / f"spans-{workload.name}-seed{args.seed}.json"
        result = run_traced(workload, scale, args.seed, seconds, span_path)
    else:
        declared = contract["end_to_end"]
        result = run_end_to_end(workload, scale, args.seed, seconds)
    measured = result["metrics"]
    undeclared = set(measured) - {metric["name"] for metric in declared}
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {
        metric["name"]: {"value": measured[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    for name, entry in metrics.items():
        print(f"{workload.name:26s} {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{workload.name:26s} operations attempted {result['attempted']}, "
          f"failed {result['failed']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def spawn(workload: str, trace: int, args: argparse.Namespace) -> dict:
    """Run one workload in a fresh subprocess; returns its JSON line."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(args.out),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(
        command, env=clean_environment(), stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}")
    *report, result = done.stdout.strip().splitlines()
    print("\n".join(report))
    return json.loads(result)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each mode asked for (both by default)."""
    modes = [0, 1] if args.trace is None else [args.trace]
    failed = 0
    for workload in [w["name"] for w in load_contract()["workloads"]]:
        for trace in modes:
            failed += spawn(workload, trace, args)["failed"]
    print("hotpath: every operation verified" if not failed
          else f"hotpath: {failed} FAILED operations")
    return 1 if failed else 0


def run_repeat(args: argparse.Namespace) -> int:
    """Run the end-to-end set ``--repeat`` times, alternating workload
    order, and hold each metric's run-to-run spread to its bound."""
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    values: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    failed = 0
    for repeat in range(args.repeat):
        for workload in names if repeat % 2 == 0 else reversed(names):
            result = spawn(workload, 0, args)
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values[workload].setdefault(metric, []).append(entry["value"])
    exceeded = 0
    print(f"\n{'workload':26s} {'metric':22s} {'spread':>9s} {'bound':>7s}")
    for workload in names:
        for metric in contract["end_to_end"]:
            samples = values[workload][metric["name"]]
            spread = (max(samples) - min(samples)) / statistics.median(samples)
            over = spread > metric["bound"]
            exceeded += over
            print(
                f"{workload:26s} {metric['name']:22s} {spread:9.4f} "
                f"{metric['bound']:7.3f}{'  EXCEEDED' if over else ''}"
            )
    print(f"hotpath repeat: {exceeded} metrics beyond their bound, "
          f"{failed} failed operations")
    return 1 if exceeded or failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run just this workload, in-process")
    parser.add_argument("--seed", type=int, default=20170417)
    parser.add_argument("--seconds", type=float, default=load_contract()["run_seconds"],
                        help="measured window per run (the pass floor still holds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; 1: per-layer peel")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="tiny corpus, 2 passes: a smoke run, not a measurement")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run the end-to-end set N times and check the spread")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for the traced run's span files")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    if args.repeat:
        return run_repeat(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
