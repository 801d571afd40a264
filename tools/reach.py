#!/usr/bin/env python
"""List the functions under ``src/repro`` that no documented run enters.

Stdlib-only: a ``sys.setprofile`` + ``threading.setprofile`` hook, no
coverage package.  Each run below executes in its own subprocess under
the hook, which records every code object it sees called:

* the ledger workloads of ``BENCHMARK.json``, each as
  ``benchmarks/hotpath/run.py --quick --workload W`` at ``--trace 0``
  and at ``--trace 1`` (``--workload`` keeps the workload in-process);
* every script in ``examples/``;
* ``python -m repro bench --figures all --quick``, ``bench report
  --check`` and ``bench list``;
* ``demo``, ``queries``, ``generate`` and ``trace``;
* ``chaos --fault-plan P`` for each named fault plan.

Then every function that none of the runs entered is printed with its
line count, grouped by file with a per-file total, and a last line
``reach: U unreached of T function lines``.  A function's lines run from
its ``def`` line to its last line; a nested function counts on its own
and also inside its parent.  Comprehensions and lambdas are not
functions here.  ``REPRO_*`` switches are cleared for every run, so the
list depends on the runs alone.

Usage::

    python tools/reach.py

The list is an input, not a verdict: a function nobody here reaches may
still be part of the SQL dialect a user query can reach.  Exits 1 when
a run fails (its stderr is printed), else 0.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: ``(file, first line, name)``: a function's identity in the source
#: and on a running code object (``co_firstlineno`` is the line of the
#: first decorator when there is one).
Key = Tuple[str, int, str]


@dataclass(frozen=True)
class Function:
    """One ``def`` in the source."""

    path: str
    qualname: str
    def_line: int
    last_line: int

    @property
    def lines(self) -> int:
        return self.last_line - self.def_line + 1


# -- analysis -----------------------------------------------------------------


def inventory(src: pathlib.Path) -> Dict[Key, Function]:
    """Every ``def`` / ``async def`` in the ``.py`` files under ``src``."""
    functions: Dict[Key, Function] = {}
    for path in sorted(src.resolve().rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for key, function in _defs(str(path), tree, ""):
            functions[key] = function
    return functions


def _defs(path: str, node: ast.AST, prefix: str) -> Iterable[Tuple[Key, Function]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            yield (path, first, child.name), Function(
                path, qualname, child.lineno, child.end_lineno
            )
            yield from _defs(path, child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(path, child, prefix + child.name + ".")
        else:
            yield from _defs(path, child, prefix)


def unreached(functions: Dict[Key, Function], seen: Set[Key]) -> List[Function]:
    """The functions whose key no run recorded, in source order."""
    return [f for key, f in functions.items() if key not in seen]


def report(functions: Dict[Key, Function], missed: List[Function], root: pathlib.Path) -> str:
    """Unreached functions by file (largest file total first), and totals."""
    by_file: Dict[str, List[Function]] = {}
    for function in missed:
        by_file.setdefault(function.path, []).append(function)
    lines: List[str] = []
    ranked = sorted(by_file.items(), key=lambda item: (-sum(f.lines for f in item[1]), item[0]))
    for path, group in ranked:
        shown = os.path.relpath(path, root)
        lines.append(f"{shown}: {sum(f.lines for f in group)} unreached function lines")
        for function in group:
            lines.append(f"  {function.lines:5d}  L{function.def_line:<5d} {function.qualname}")
    total = sum(f.lines for f in functions.values())
    lines.append(
        f"reach: {sum(f.lines for f in missed)} unreached of {total} function lines "
        f"({len(missed)} of {len(functions)} functions)"
    )
    return "\n".join(lines)


# -- recording ------------------------------------------------------------------


def record(target: List[str], src: pathlib.Path, out: pathlib.Path) -> int:
    """Run ``target`` (``-m module args...`` or ``script args...``) in
    this process under the profile hook; write the keys it entered under
    ``src`` to ``out`` as JSON.  Returns the run's exit status."""
    codes = set()

    def hook(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    status: object = 0
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if target[0] == "-m":
            sys.argv = [target[1]] + target[2:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            script = str(pathlib.Path(target[0]).resolve())
            sys.argv = [script] + target[1:]
            sys.path[0] = os.path.dirname(script)
            runpy.run_path(script, run_name="__main__")
    except SystemExit as error:
        status = error.code
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = str(src.resolve()) + os.sep
        keys = sorted(
            {
                (c.co_filename, c.co_firstlineno, c.co_name)
                for c in codes
                if c.co_filename.startswith(prefix)
            }
        )
        out.write_text(json.dumps(keys))
    if status is None:
        return 0
    return status if isinstance(status, int) else 1


def runs(tmp: pathlib.Path) -> List[List[str]]:
    """The command lines the probe runs (relative to the repo root)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.faults.plans import NAMED_PLANS

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    commands: List[List[str]] = []
    for workload in contract["workloads"]:
        for trace in ("0", "1"):
            commands.append(
                ["benchmarks/hotpath/run.py", "--quick", "--workload", workload["name"],
                 "--trace", trace, "--out", str(tmp / "hotpath")]
            )
    for example in sorted((ROOT / "examples").glob("*.py")):
        commands.append([str(example.relative_to(ROOT))])
    repro = ["-m", "repro"]
    commands += [
        repro + ["bench", "--figures", "all", "--quick", "--out-dir", str(tmp / "bench")],
        repro + ["bench", "report", "--check"],
        repro + ["bench", "list"],
        repro + ["demo"],
        repro + ["queries"],
        repro + ["generate", str(tmp / "generate")],
        repro + ["trace", "--out", str(tmp / "trace.json")],
    ]
    commands += [repro + ["chaos", "--fault-plan", plan] for plan in NAMED_PLANS]
    return commands


def collect(
    commands: List[List[str]], src: pathlib.Path, tmp: pathlib.Path
) -> Tuple[Set[Key], List[str]]:
    """Run each command in its own recording subprocess; return the
    union of entered keys and a description of every failed run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    seen: Set[Key] = set()
    failures: List[str] = []
    for index, command in enumerate(commands):
        out = tmp / f"reach-{index}.json"
        child = [sys.executable, str(pathlib.Path(__file__).resolve()),
                 "--record", str(out), "--src", str(src), "--"] + command
        print(f"reach: {' '.join(command)}", file=sys.stderr, flush=True)
        done = subprocess.run(
            child, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        if done.returncode != 0 or not out.exists():
            failures.append(f"{' '.join(command)} exited {done.returncode}\n{done.stderr}")
        if out.exists():
            seen.update(tuple(key) for key in json.loads(out.read_text()))
    return seen, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", type=pathlib.Path, help=argparse.SUPPRESS)
    parser.add_argument("--src", type=pathlib.Path, default=SRC, help=argparse.SUPPRESS)
    parser.add_argument("target", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record is not None:
        target = args.target[1:] if args.target[:1] == ["--"] else args.target
        return record(target, args.src, args.record)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        tmp = pathlib.Path(scratch)
        seen, failures = collect(runs(tmp), args.src, tmp)
    functions = inventory(args.src)
    print(report(functions, unreached(functions, seen), ROOT))
    for failure in failures:
        print(f"reach: run failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
