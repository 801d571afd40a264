"""Tests for the transfer-compression storlets and the combined
filter+compress pushdown path (Section VI-C)."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.gridpocket import METER_SCHEMA
from repro.storlets import StorletException
from repro.storlets.compress_storlet import (
    CompressStorlet,
    DecompressStorlet,
    decompress_bytes,
)
from tests.storlet_harness import run_storlet


def run(storlet, data: bytes, parameters=None, chunk=1000):
    return run_storlet(storlet, data, parameters or {}, chunk_size=chunk)


class TestCompressStorlet:
    PAYLOAD = b"meter,2015-01-01,1.5,Rotterdam\n" * 500

    def test_round_trip(self):
        compressed = run(CompressStorlet(), self.PAYLOAD).body
        assert decompress_bytes(compressed) == self.PAYLOAD

    def test_actually_compresses(self):
        compressed = run(CompressStorlet(), self.PAYLOAD).body
        assert len(compressed) < len(self.PAYLOAD) / 5

    def test_sets_encoding_metadata(self):
        out = run(CompressStorlet(), self.PAYLOAD)
        assert (
            out.metadata["x-object-meta-storlet-content-encoding"] == "zlib"
        )

    def test_level_parameter(self):
        fast = run(CompressStorlet(), self.PAYLOAD, {"level": "1"}).body
        best = run(CompressStorlet(), self.PAYLOAD, {"level": "9"}).body
        assert decompress_bytes(fast) == decompress_bytes(best) == self.PAYLOAD
        assert len(best) <= len(fast)

    def test_invalid_level_raises(self):
        with pytest.raises(StorletException):
            run(CompressStorlet(), b"x", {"level": "0"})

    def test_empty_input(self):
        compressed = run(CompressStorlet(), b"").body
        assert decompress_bytes(compressed) == b""

    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(max_size=5000), chunk=st.integers(1, 999))
    def test_round_trip_property(self, data, chunk):
        compressed = run(CompressStorlet(), data, chunk=chunk).body
        expanded = run(DecompressStorlet(), compressed, chunk=chunk).body
        assert expanded == data


class TestDecompressStorlet:
    def test_decompresses(self):
        data = b"hello world " * 100
        expanded = run(DecompressStorlet(), zlib.compress(data)).body
        assert expanded == data

    def test_invalid_stream_raises(self):
        with pytest.raises(StorletException):
            run(DecompressStorlet(), b"definitely not zlib")


class TestCompressedPushdownPath:
    def test_results_identical_with_compression(self, fresh_scoop):
        from repro.gridpocket import DatasetSpec, upload_dataset

        upload_dataset(
            fresh_scoop.client,
            "m",
            DatasetSpec(meters=15, intervals=60, objects=2),
        )
        fresh_scoop.register_csv_table("t", "m", schema=METER_SCHEMA)
        fresh_scoop.register_csv_table(
            "tz", "m", schema=METER_SCHEMA, compress_transfer=True
        )
        sql = (
            "SELECT vid, sum(index) FROM {} WHERE city LIKE 'P%' "
            "GROUP BY vid ORDER BY vid"
        )
        plain_frame, _plain = fresh_scoop.run_query(sql.format("t"))
        zipped_frame, zipped = fresh_scoop.run_query(sql.format("tz"))
        assert plain_frame.collect() == zipped_frame.collect()
        assert zipped.pushdown_requests == zipped.requests

    def test_compression_reduces_transfer_at_low_selectivity(
        self, fresh_scoop
    ):
        from repro.gridpocket import DatasetSpec, upload_dataset

        upload_dataset(
            fresh_scoop.client,
            "m",
            DatasetSpec(meters=15, intervals=120, objects=2),
        )
        fresh_scoop.register_csv_table("t", "m", schema=METER_SCHEMA)
        fresh_scoop.register_csv_table(
            "tz", "m", schema=METER_SCHEMA, compress_transfer=True
        )
        sql = "SELECT * FROM {}"  # zero selectivity: compression only
        _f1, plain = fresh_scoop.run_query(sql.format("t"))
        _f2, zipped = fresh_scoop.run_query(sql.format("tz"))
        assert zipped.bytes_transferred < plain.bytes_transferred / 2

    def test_compress_task_never_noop(self):
        from repro.core import PushdownTask

        task = PushdownTask(schema=METER_SCHEMA, compress=True)
        assert not task.is_noop()

    def test_header_pipeline_includes_compressor(self):
        from repro.core import PushdownTask
        from repro.storlets.engine import StorletRequestHeaders

        task = PushdownTask(
            schema=METER_SCHEMA, columns=["vid"], compress=True
        )
        headers = {}
        task.apply_to_headers(headers)
        assert (
            headers[StorletRequestHeaders.RUN] == "csvstorlet,zlibcompress"
        )


class TestPerfModelCompressedMode:
    def test_combination_beats_parquet_at_zero_selectivity(self):
        from repro.perfmodel import (
            DATASETS,
            IngestSimulation,
            SelectivityProfile,
        )

        sim = IngestSimulation()
        small = DATASETS["small"].size_bytes
        profile = SelectivityProfile.mixed(0.0)
        compressed = sim.run("pushdown_compressed", small, profile).duration
        parquet = sim.run("parquet", small, profile).duration
        assert compressed <= parquet * 1.05

    def test_combination_always_beats_plain_pushdown(self):
        from repro.perfmodel import (
            DATASETS,
            IngestSimulation,
            SelectivityProfile,
        )

        sim = IngestSimulation()
        small = DATASETS["small"].size_bytes
        for selectivity in (0.0, 0.5, 0.9):
            profile = SelectivityProfile.mixed(selectivity)
            compressed = sim.run(
                "pushdown_compressed", small, profile
            ).duration
            pushdown = sim.run("pushdown", small, profile).duration
            assert compressed < pushdown
