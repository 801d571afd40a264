"""The deleted-names gate: the repo is clean, and every entry still bites."""

import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_deleted_names  # noqa: E402

ENTRIES = check_deleted_names.load(check_deleted_names.NAMES.read_text())


def _sample(entry):
    """A line the entry's first alternative matches, taken from the list
    (so this file never spells a deleted name itself)."""
    first = entry.regex.split("|")[0].lstrip("^")
    sample = re.sub(r"\\(.)", r"\1", first)
    assert entry.pattern.search(sample), (entry.regex, sample)
    return sample


@pytest.fixture
def tree(tmp_path):
    """An empty tree holding every path the list names."""
    for entry in ENTRIES:
        for name in entry.paths:
            target = tmp_path / name
            if target.suffix:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.touch()
            else:
                target.mkdir(parents=True, exist_ok=True)
    return tmp_path


def test_repo_has_no_deleted_names(capsys):
    assert check_deleted_names.main() == 0
    assert "no deleted names" in capsys.readouterr().out


def test_empty_tree_is_clean(tree):
    assert check_deleted_names.check(tree, ENTRIES) == []


def test_every_entry_reports_a_planted_hit(tree):
    planted = []
    for index, entry in enumerate(ENTRIES):
        target = tree / entry.paths[0]
        if target.is_dir():
            target = target / f"planted_{index}.py"
        target.write_text(_sample(entry) + "\n")
        where = target.relative_to(tree).as_posix()
        planted.append((entry.rule, f"{where}:1: {_sample(entry)}"))
    hits = check_deleted_names.check(tree, ENTRIES)
    missing = [hit for hit in planted if hit not in hits]
    assert not missing, missing


def test_whole_word_entries_skip_longer_names(tree):
    words = [entry for entry in ENTRIES if entry.whole_word]
    assert words
    for index, entry in enumerate(words):
        line = f"x_{_sample(entry)}_y = {_sample(entry)}2\n"
        (tree / entry.paths[0] / f"longer_{index}.py").write_text(line)
    assert check_deleted_names.check(tree, words) == []


def test_file_scoped_entry_scans_only_its_file(tree):
    scoped = [
        entry for entry in ENTRIES if (tree / entry.paths[0]).is_file()
    ]
    assert scoped
    for index, entry in enumerate(scoped):
        sibling = (tree / entry.paths[0]).with_name(f"sibling_{index}.py")
        sibling.write_text(_sample(entry) + "\n")
    assert check_deleted_names.check(tree, scoped) == []


def test_build_leftovers_are_skipped_and_missing_paths_reported(tmp_path):
    entry = ENTRIES[0]
    cache = tmp_path / entry.paths[0] / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "module.pyc").write_text(_sample(entry) + "\n")
    hits = check_deleted_names.check(tmp_path, [entry])
    assert hits == [
        (entry.rule, f"{name}: no such path") for name in entry.paths[1:]
    ]
