"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "/tmp/x"])
        assert args.meters == 100
        assert args.out_dir == pathlib.Path("/tmp/x")


class TestGenerate:
    def test_writes_csv_files(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                str(tmp_path / "data"),
                "--meters",
                "5",
                "--intervals",
                "8",
                "--objects",
                "2",
            ]
        )
        assert code == 0
        files = sorted((tmp_path / "data").glob("*.csv"))
        assert len(files) == 2
        total_rows = sum(
            file.read_bytes().count(b"\n") for file in files
        )
        assert total_rows == 40

    def test_header_flag(self, tmp_path):
        main(
            [
                "generate",
                str(tmp_path / "data"),
                "--meters",
                "2",
                "--intervals",
                "2",
                "--objects",
                "1",
                "--header",
            ]
        )
        first_line = (
            (tmp_path / "data" / "meter-0000.csv")
            .read_bytes()
            .split(b"\n")[0]
        )
        assert first_line.startswith(b"vid,date,index")

    def test_deterministic_given_seed(self, tmp_path):
        for directory in ("a", "b"):
            main(
                [
                    "generate",
                    str(tmp_path / directory),
                    "--meters",
                    "3",
                    "--intervals",
                    "3",
                    "--objects",
                    "1",
                    "--seed",
                    "42",
                ]
            )
        assert (tmp_path / "a" / "meter-0000.csv").read_bytes() == (
            tmp_path / "b" / "meter-0000.csv"
        ).read_bytes()


    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--objects", "0", "objects"),
            ("--objects", "-2", "objects"),
            ("--interval-minutes", "0", "interval_minutes"),
            ("--meters", "-1", "meters"),
            ("--intervals", "-1", "intervals"),
        ],
    )
    def test_invalid_shape_is_an_error_not_a_traceback(
        self, tmp_path, capsys, flag, value, field
    ):
        code = main(["generate", str(tmp_path / "data"), flag, value])
        assert code == 2
        assert f"DatasetSpec.{field}" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()


class TestQueries:
    def test_lists_all_seven(self, capsys):
        assert main(["queries"]) == 0
        out = capsys.readouterr().out
        for name in (
            "ShowMapCons",
            "ShowPiemonth",
            "Showday",
            "ShowGraphHCHP",
        ):
            assert name in out


class TestDemo:
    def test_demo_runs_end_to_end(self, capsys):
        assert main(["demo", "--meters", "10", "--intervals", "50"]) == 0
        out = capsys.readouterr().out
        assert "data selectivity" in out
        assert "pushdown moved" in out


class TestTrace:
    def test_trace_json_round_trips(self, capsys):
        import json

        assert (
            main(["trace", "--meters", "5", "--intervals", "20"]) == 0
        )
        out = capsys.readouterr().out
        exported = json.loads(out)
        assert exported["span_count"] == len(exported["spans"])
        assert exported["byte_totals"]["connector"]["spans"] > 0

    def test_trace_chrome_format_to_file(self, tmp_path):
        import json

        target = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "--meters",
                    "5",
                    "--intervals",
                    "20",
                    "--format",
                    "chrome",
                    "--out",
                    str(target),
                ]
            )
            == 0
        )
        exported = json.loads(target.read_text())
        assert exported["traceEvents"]
        assert all(
            event["ph"] in ("X", "M") for event in exported["traceEvents"]
        )
