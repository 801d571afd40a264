"""Tests for storlet streams, logger and sandbox accounting details."""

import json

import pytest

from repro.columnar.layout import iter_stripe_batches
from repro.core.pushdown import PushdownTask
from repro.sql.types import Schema
from repro.storlets import (
    IStorlet,
    StorletException,
    StorletInputStream,
    StorletLogger,
)
from repro.storlets.aggregation import AggregationSpec
from repro.storlets.api import has_header
from repro.storlets.columnar_storlet import CsvToColumnarStorlet
from repro.storlets.csv_storlet import CsvStorlet
from repro.storlets.sandbox import CostModel, Sandbox
from tests.storlet_harness import run_sandboxed, run_storlet


class TestInputStream:
    def test_read_all(self):
        stream = StorletInputStream([b"ab", b"cd", b"ef"])
        assert stream.read() == b"abcdef"

    def test_read_exact_sizes(self):
        stream = StorletInputStream([b"abc", b"def", b"gh"])
        assert stream.read(2) == b"ab"
        assert stream.read(3) == b"cde"
        assert stream.read(10) == b"fgh"
        assert stream.read(5) == b""

    def test_read_then_iterate(self):
        stream = StorletInputStream([b"abc", b"def"])
        assert stream.read(1) == b"a"
        assert b"".join(stream.iter_chunks()) == b"bcdef"

    def test_empty_chunks_skipped(self):
        stream = StorletInputStream([b"", b"x", b"", b"y"])
        assert list(stream.iter_chunks()) == [b"x", b"y"]

    def test_metadata_carried(self):
        stream = StorletInputStream([b""], {"x-object-meta-a": "1"})
        assert stream.metadata == {"x-object-meta-a": "1"}


class _Emitter(IStorlet):
    """Yields its ``chunks`` as they are and emits one metadata key."""

    name = "emitter"

    def __init__(self, chunks):
        self.chunks = chunks

    def process(self, in_stream, parameters, logger, metadata):
        yield from self.chunks
        metadata["x-object-meta-k"] = "v"


class TestOutputStream:
    """What leaves a storlet: the sandbox's side of ``process``."""

    def test_write_collects_chunks(self):
        invocation = Sandbox("n").run_streaming(
            _Emitter([b"a", b"", b"bc"]), StorletInputStream([]), {}
        )
        assert list(invocation.chunks()) == [b"a", b"bc"]
        assert invocation.bytes_written == 3

    def test_non_bytes_rejected(self):
        with pytest.raises(StorletException):
            run_sandboxed(Sandbox("n"), _Emitter(["text"]), b"", {})

    def test_metadata_set(self):
        out = run_sandboxed(Sandbox("n"), _Emitter([b"x"]), b"", {})
        assert out.metadata["x-object-meta-k"] == "v"


class TestLogger:
    def test_collects_lines(self):
        logger = StorletLogger("x")
        logger.emit("one")
        logger.emitLog("two")  # Java SDK alias
        assert list(logger) == ["one", "two"]


class _Doubler(IStorlet):
    name = "doubler"

    def process(self, in_stream, parameters, logger, metadata):
        yield in_stream.read() * 2


class _Exploder(IStorlet):
    name = "exploder"

    def process(self, in_stream, parameters, logger, metadata):
        in_stream.read()
        raise ValueError("kaboom")
        yield


class TestSandbox:
    def test_accounting(self):
        sandbox = Sandbox("n")
        out = run_sandboxed(sandbox, _Doubler(), b"xyz", {})
        assert out.body == b"xyzxyz"
        assert sandbox.stats.invocations == 1
        assert sandbox.stats.bytes_in == 3
        assert sandbox.stats.bytes_out == 6
        assert sandbox.stats.cpu_seconds > 0

    def test_records_carry_parameters(self):
        sandbox = Sandbox("n")
        run_sandboxed(sandbox, _Doubler(), b"x", {"filters": "[]"})
        record = sandbox.records[0]
        assert record.storlet == "doubler"
        assert record.parameters == {"filters": "[]"}

    def test_memory_charged_once(self):
        sandbox = Sandbox("n", memory_overhead=1000)
        run_sandboxed(sandbox, _Doubler(), b"x", {})
        run_sandboxed(sandbox, _Doubler(), b"y", {})
        assert sandbox.stats.memory_bytes == 1000

    def test_crash_wrapped_and_counted(self):
        sandbox = Sandbox("n")
        with pytest.raises(StorletException):
            run_sandboxed(sandbox, _Exploder(), b"x", {})
        assert sandbox.stats.errors == 1

    def test_discard_ratio(self):
        sandbox = Sandbox("n")

        class Halver(IStorlet):
            name = "halver"

            def process(self, in_stream, parameters, logger, metadata):
                data = in_stream.read()
                yield data[: len(data) // 2]

        run_sandboxed(sandbox, Halver(), b"12345678", {})
        assert sandbox.stats.discard_ratio() == pytest.approx(0.5)

    def test_cost_model_asymmetry(self):
        """Column projection costs more than row filtering (the paper's
        Section VI-A observation, encoded in the cost model)."""
        model = CostModel()
        row_cost = model.invocation_cost(
            1000, 500, filtered_rows=True, projected_columns=False
        )
        column_cost = model.invocation_cost(
            1000, 500, filtered_rows=False, projected_columns=True
        )
        assert column_cost > row_cost


class TestSandboxLimits:
    def test_output_limit_enforced(self):
        sandbox = Sandbox("n", max_output_bytes=4)
        with pytest.raises(StorletException) as excinfo:
            run_sandboxed(sandbox, _Doubler(), b"abc", {})
        assert "output limit" in str(excinfo.value)
        assert sandbox.stats.errors == 1

    def test_output_within_limit_passes(self):
        sandbox = Sandbox("n", max_output_bytes=6)
        out = run_sandboxed(sandbox, _Doubler(), b"abc", {})
        assert out.body == b"abcabc"

    def test_cpu_budget_enforced(self):
        sandbox = Sandbox("n", max_cpu_seconds=1e-12)
        with pytest.raises(StorletException) as excinfo:
            run_sandboxed(sandbox, _Doubler(), b"x" * 10_000, {})
        assert "CPU budget" in str(excinfo.value)

    def test_engine_passes_limits_to_sandboxes(self):
        from repro.storlets import StorletEngine

        engine = StorletEngine(max_output_bytes=123)
        sandbox = engine.sandbox_for("storage0")
        assert sandbox.max_output_bytes == 123


class TestHasHeader:
    """Every CSV-reading storlet parses ``has_header`` one way: ``true``
    in any case, and a header only when asked for."""

    SCHEMA = Schema.of("vid", "city")
    HEADER = b"vid,city\n"
    BODY = b"m1,Paris\nm2,Rome\nm1,Milan\n"

    @pytest.mark.parametrize(
        "value, expected",
        [(None, False), ("false", False), ("true", True), ("True", True), ("TRUE", True), ("yes", False)],
    )
    def test_one_parse_with_a_false_default(self, value, expected):
        parameters = {} if value is None else {"has_header": value}
        assert has_header(parameters) is expected
        task = PushdownTask.from_parameters({"schema": self.SCHEMA.to_header(), **parameters})
        assert task.has_header is expected

    def test_a_headerless_object_converted_without_the_parameter_keeps_its_first_record(self):
        out = run_storlet(
            CsvToColumnarStorlet(), self.BODY, {"schema": self.SCHEMA.to_header()}
        )
        rows = [row for batch in iter_stripe_batches(out.body) for row in batch.rows]
        assert rows == [("m1", "Paris"), ("m2", "Rome"), ("m1", "Milan")]
        assert out.metadata["x-object-meta-columnar-rows"] == "3"

    def test_capitalised_true_skips_the_header_in_the_aggregating_storlet(self):
        """An all-STRING header types, so only skipping keeps it out of
        the groups -- with an ``aggregation`` task as without one."""
        spec = AggregationSpec(["vid"], [("count", "*")])
        parameters = {
            "schema": self.SCHEMA.to_header(),
            "aggregation": spec.to_json(),
            "has_header": "True",
        }
        out = run_storlet(CsvStorlet(), self.HEADER + self.BODY, parameters)
        groups = [json.loads(line)[1] for line in out.body.splitlines()]
        assert sorted(groups) == [["m1"], ["m2"]]
        csv = run_storlet(
            CsvStorlet(),
            self.HEADER + self.BODY,
            {"schema": self.SCHEMA.to_header(), "has_header": "True"},
        )
        assert csv.body == self.BODY
