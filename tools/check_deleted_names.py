#!/usr/bin/env python
"""Fail when a name that was deleted on purpose reappears in the tree.

Stdlib-only.  The names live in one list, ``tools/deleted_names.txt``,
grouped by the design rule that replaced them (its header gives the
format).  Each entry names the paths it scans -- directories, searched
recursively, or single files -- and a regular expression matched
against every line, optionally as whole words only.  ``__pycache__``
and dot-directories are skipped: they hold build and test leftovers,
not source.

Usage::

    python tools/check_deleted_names.py

Exits non-zero listing every hit as ``path:line: text`` under its rule,
and every entry path that does not exist.
"""

from __future__ import annotations

import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Iterator, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAMES = ROOT / "tools" / "deleted_names.txt"


@dataclass(frozen=True)
class Entry:
    """One list line: a pattern and the paths it must not match in."""

    rule: str
    paths: Tuple[str, ...]
    regex: str
    whole_word: bool
    pattern: "re.Pattern[str]"


def load(text: str) -> List[Entry]:
    """Parse the deleted-names list."""
    entries: List[Entry] = []
    rule = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            rule = line[1:-1]
            continue
        spec, colon, regex = line.partition(":")
        paths = spec.split()
        whole_word = bool(paths) and paths[0] == "-w"
        if whole_word:
            paths = paths[1:]
        regex = regex.strip()
        if rule is None or not colon or not paths or not regex:
            raise ValueError(f"deleted_names.txt:{number}: bad entry {raw!r}")
        compiled = rf"(?<!\w)(?:{regex})(?!\w)" if whole_word else regex
        entries.append(
            Entry(rule, tuple(paths), regex, whole_word, re.compile(compiled))
        )
    return entries


def _files(target: pathlib.Path) -> Iterator[pathlib.Path]:
    if target.is_file():
        yield target
        return
    for path in sorted(target.rglob("*")):
        parts = path.relative_to(target).parts[:-1]
        if path.is_file() and not any(
            part == "__pycache__" or part.startswith(".") for part in parts
        ):
            yield path


def check(root: pathlib.Path, entries: List[Entry]) -> List[Tuple[str, str]]:
    """Every ``(rule, "path:line: text")`` hit of ``entries`` under
    ``root``; a missing entry path is a hit too."""
    hits = []
    for entry in entries:
        for name in entry.paths:
            target = root / name
            if not target.exists():
                hits.append((entry.rule, f"{name}: no such path"))
                continue
            for path in _files(target):
                text = path.read_bytes().decode("utf-8", errors="replace")
                for number, line in enumerate(text.splitlines(), 1):
                    if entry.pattern.search(line):
                        where = path.relative_to(root).as_posix()
                        hits.append((entry.rule, f"{where}:{number}: {line.strip()}"))
    return hits


def main() -> int:
    """Check the repository against the list; returns the exit code."""
    entries = load(NAMES.read_text())
    hits = check(ROOT, entries)
    for rule, hit in hits:
        print(f"[{rule}] {hit}", file=sys.stderr)
    if hits:
        print(f"{len(hits)} deleted name(s) found", file=sys.stderr)
        return 1
    print(f"no deleted names: {len(entries)} entries clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
