"""The docs link checker: repo docs are clean, and breakage is caught."""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_links  # noqa: E402


def test_repo_docs_have_no_broken_links(capsys):
    assert check_links.main([]) == 0
    out = capsys.readouterr().out
    assert "no broken intra-repo links" in out


def test_docs_index_links_every_docs_page():
    index = (ROOT / "docs" / "README.md").read_text()
    pages = sorted(p.name for p in (ROOT / "docs").glob("*.md"))
    missing = [
        page
        for page in pages
        if page != "README.md" and f"]({page})" not in index
    ]
    assert not missing, f"docs/README.md does not link: {missing}"


def test_top_readme_links_the_docs_index():
    assert "docs/README.md" in (ROOT / "README.md").read_text()


class TestDetection:
    def _check(self, tmp_path, body):
        page = tmp_path / "page.md"
        page.write_text(body)
        return check_links.check_file(page, tmp_path)

    def test_missing_file_is_reported(self, tmp_path):
        problems = self._check(tmp_path, "see [x](nope.md)")
        assert problems == [("nope.md", "no such file")]

    def test_missing_heading_is_reported(self, tmp_path):
        (tmp_path / "other.md").write_text("# Real Heading\n")
        problems = self._check(tmp_path, "see [x](other.md#fake-heading)")
        assert problems == [("other.md#fake-heading", "no heading #fake-heading")]

    def test_valid_heading_passes(self, tmp_path):
        (tmp_path / "other.md").write_text("## The Lock Hierarchy!\n")
        assert self._check(tmp_path, "[x](other.md#the-lock-hierarchy)") == []

    def test_escape_is_reported(self, tmp_path):
        problems = self._check(tmp_path, "[x](../../etc/passwd)")
        assert problems and problems[0][1] == "escapes the repository"

    def test_external_and_fenced_links_are_skipped(self, tmp_path):
        body = (
            "[ok](https://example.com)\n"
            "```\n[not a link](missing.md)\n```\n"
        )
        assert self._check(tmp_path, body) == []

    def test_missing_repo_path_is_reported(self, tmp_path):
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "test_ablations.py").write_text("")
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "scoop.py").write_text("")
        body = (
            "`benchmarks/test_ablations.py::test_workday_queueing` and "
            "`repro/scoop.py:12` and `benchmarks/test_*.py` exist;\n"
            "`benchmarks/test_ablation_staging.py` does not; "
            "`tests/<name>.py` and `python tools/x.py` are no paths\n"
            "```\n`examples/fenced.py`\n```\n"
        )
        assert self._check(tmp_path, body) == [
            ("`benchmarks/test_ablation_staging.py`", "no such path")
        ]

    def test_same_file_fragment(self, tmp_path):
        assert self._check(tmp_path, "# Here\n[x](#here)") == []
        assert self._check(tmp_path, "[x](#gone)") == [
            ("#gone", "no such heading in this file")
        ]


@pytest.mark.parametrize(
    ("heading", "slug"),
    [
        ("Simple", "simple"),
        ("The GET/query data flow", "the-getquery-data-flow"),
        ("`explain_profile()` and you", "explain_profile-and-you"),
        ("Where timing comes from", "where-timing-comes-from"),
    ],
)
def test_github_slug(heading, slug):
    assert check_links.github_slug(heading) == slug
