"""The reach probe: what it counts as a function, and what it reports."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import reach  # noqa: E402

MODULE = '''\
def called():
    squares = [x * x for x in range(3)]
    return sorted(squares, key=lambda v: -v)


def never():
    a = 1
    b = 2
    return {k: k for k in range(a + b)}


class Box:
    @staticmethod
    def used():
        def inner():
            return 1

        return (v + inner() for v in range(2))

    def unused(self):
        return None
'''

SCRIPT = '''\
import mod

mod.called()
list(mod.Box.used())
'''


@pytest.fixture
def package(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(MODULE)
    (tmp_path / "script.py").write_text(SCRIPT)
    return src


def _by_name(functions):
    return {function.qualname: (key, function) for key, function in functions.items()}


def test_inventory_counts_defs_only_from_def_line_to_last_line(package):
    named = _by_name(reach.inventory(package))
    # Comprehensions and lambdas are no functions here; a nested def is.
    assert sorted(named) == [
        "Box.unused", "Box.used", "Box.used.<locals>.inner", "called", "never",
    ]
    assert named["never"][1].lines == 4
    assert named["called"][1].lines == 3
    # A nested function also counts inside its parent; the decorator
    # line does not count, but keys the function as its code object does.
    assert named["Box.used"][1].lines == 5
    key, _function = named["Box.used"]
    assert key[1:] == (13, "used")


def test_unreached_lists_only_what_no_run_entered(package):
    functions = reach.inventory(package)
    named = _by_name(functions)
    seen = {named[name][0] for name in ("called", "Box.used", "Box.used.<locals>.inner")}
    missed = reach.unreached(functions, seen)
    assert [f.qualname for f in missed] == ["never", "Box.unused"]
    text = reach.report(functions, missed, package)
    assert "mod.py: 6 unreached function lines" in text
    assert "    4  L6     never" in text
    assert "called" not in text
    assert text.splitlines()[-1] == (
        "reach: 6 unreached of 16 function lines (2 of 5 functions)"
    )


def test_recording_run_enters_what_the_script_calls(package, tmp_path):
    out = tmp_path / "seen.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"), "--record", str(out),
         "--src", str(package), "--", str(tmp_path / "script.py")],
        check=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(package)},
    )
    seen = {tuple(key) for key in json.loads(out.read_text())}
    functions = reach.inventory(package)
    assert [f.qualname for f in reach.unreached(functions, seen)] == [
        "never", "Box.unused",
    ]
