#!/usr/bin/env python
"""Check intra-repo links and paths in README.md, DESIGN.md and docs/.

Stdlib-only (this repo has no dependencies, and CI should not need
any to lint docs).  For every markdown file checked, each inline link
or image ``[text](target)`` whose target is *not* an external URL or a
pure ``#fragment`` must resolve to a file or directory inside the
repository; when the target carries a ``#heading`` fragment and points
at a markdown file, the heading must exist in that file (GitHub slug
rules: lowercase, punctuation stripped, spaces to hyphens).

Each back-ticked repo path -- a one-word code span starting with one of
:data:`PATH_ROOTS` -- must exist too, relative to the repository root
(``repro/`` under ``src/``).  A ``:line`` or ``::test`` suffix is
dropped and a ``*`` glob must match something; spans holding a
placeholder (``<``, ``{``) are not paths and are skipped.

Usage::

    python tools/check_links.py [files...]

With no arguments, checks ``README.md``, ``DESIGN.md`` and every
``docs/*.md`` relative to the repository root (the parent of this
script's directory).  Exits non-zero listing every broken link.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Iterable, List, Tuple

#: Inline markdown links/images: ``[text](target)`` / ``![alt](target)``.
#: Targets never contain whitespace in this repo's docs, which keeps the
#: pattern from swallowing prose parentheses.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: Schemes that mark a link as external (not checked).
EXTERNAL = ("http://", "https://", "mailto:")

#: Fenced code blocks, where link-looking text is code, not a link.
FENCE_RE = re.compile(r"^(```|~~~)")

#: One-word inline code spans.
CODE_RE = re.compile(r"`([^`\s]+)`")

#: Top-level names that make a code span a repo path.
PATH_ROOTS = ("src/", "repro/", "tests/", "benchmarks/", "examples/", "tools/")

#: A trailing ``:123`` / ``:12-20`` line reference or ``::test`` id.
SUFFIX_RE = re.compile(r"(::.*|:\d+(-\d+)?)$")


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a markdown heading."""
    slug = heading.strip().lower()
    # Inline code/emphasis markers vanish (underscores stay: in these
    # docs they are identifiers, not emphasis); then everything that is
    # not a word character, space or hyphen vanishes; spaces become
    # hyphens.
    slug = re.sub(r"[`*]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def heading_slugs(markdown: str) -> List[str]:
    """All heading anchors defined in a markdown document."""
    slugs = []
    in_fence = False
    for line in markdown.splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence and line.startswith("#"):
            slugs.append(github_slug(line.lstrip("#")))
    return slugs


def _prose_lines(markdown: str) -> Iterable[str]:
    """Every line outside fenced code blocks."""
    in_fence = False
    for line in markdown.splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
        elif not in_fence:
            yield line


def iter_links(markdown: str) -> Iterable[str]:
    """Every inline link target outside fenced code blocks."""
    for line in _prose_lines(markdown):
        for match in LINK_RE.finditer(line):
            yield match.group(1)


def iter_repo_paths(markdown: str) -> Iterable[str]:
    """Every back-ticked repo path outside fenced code blocks."""
    for line in _prose_lines(markdown):
        for match in CODE_RE.finditer(line):
            span = match.group(1)
            if span.startswith(PATH_ROOTS) and not any(c in span for c in "<{"):
                yield span


def repo_path_exists(span: str, root: pathlib.Path) -> bool:
    """Whether the repo path a code span names exists under ``root``."""
    name = SUFFIX_RE.sub("", span)
    if name.startswith("repro/"):
        name = "src/" + name
    if "*" in name:
        return any(root.glob(name))
    return (root / name).exists()


def check_file(path: pathlib.Path, root: pathlib.Path) -> List[Tuple[str, str]]:
    """Return ``(target, problem)`` pairs for one markdown file."""
    problems = []
    for target in iter_links(path.read_text(encoding="utf-8")):
        if target.startswith(EXTERNAL):
            continue
        if target.startswith("#"):
            # Same-file fragment.
            if github_slug(target[1:]) not in heading_slugs(
                path.read_text(encoding="utf-8")
            ):
                problems.append((target, "no such heading in this file"))
            continue
        name, _, fragment = target.partition("#")
        resolved = (path.parent / name).resolve()
        try:
            resolved.relative_to(root.resolve())
        except ValueError:
            problems.append((target, "escapes the repository"))
            continue
        if not resolved.exists():
            problems.append((target, "no such file"))
            continue
        if fragment and resolved.suffix == ".md":
            slugs = heading_slugs(resolved.read_text(encoding="utf-8"))
            if fragment not in slugs:
                problems.append((target, f"no heading #{fragment}"))
    for span in iter_repo_paths(path.read_text(encoding="utf-8")):
        if not repo_path_exists(span, root):
            problems.append((f"`{span}`", "no such path"))
    return problems


def default_files(root: pathlib.Path) -> List[pathlib.Path]:
    """README.md, DESIGN.md and every page under docs/."""
    return [root / "README.md", root / "DESIGN.md"] + sorted(
        (root / "docs").glob("*.md")
    )


def main(argv: List[str]) -> int:
    """CLI entry point; returns the exit status."""
    root = pathlib.Path(__file__).resolve().parent.parent
    files = (
        [pathlib.Path(arg) for arg in argv] if argv else default_files(root)
    )
    broken = 0
    for path in files:
        for target, problem in check_file(path, root):
            print(f"{path.relative_to(root)}: {target}: {problem}")
            broken += 1
    checked = len(files)
    if broken:
        print(f"{broken} broken link(s) across {checked} file(s)")
        return 1
    print(f"ok: {checked} file(s), no broken intra-repo links")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
