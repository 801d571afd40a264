"""Tests for the Stocator-like connector."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.connector import StocatorConnector
from repro.core import PushdownTask
from repro.sql import EqualTo, Schema
from repro.swift import SwiftClient, SwiftCluster


@pytest.fixture
def rig():
    from repro.storlets import CsvStorlet, StorletEngine

    engine = StorletEngine()
    cluster = SwiftCluster(
        storage_node_count=2,
        disks_per_node=1,
        proxy_middleware=[engine.proxy_middleware()],
        object_middleware=[engine.object_middleware()],
    )
    client = SwiftClient(cluster, "AUTH_conn")
    engine.deploy(CsvStorlet())
    connector = StocatorConnector(client, chunk_size=100)
    client.put_container("c")
    return connector, client


class TestPartitionDiscovery:
    def test_splits_cover_object_exactly(self, rig):
        connector, client = rig
        client.put_object("c", "o", b"x" * 250)
        splits = connector.discover_partitions("c")
        assert [s.length for s in splits] == [100, 100, 50]
        assert [s.start for s in splits] == [0, 100, 200]
        assert all(s.object_size == 250 for s in splits)

    def test_multiple_objects_indexed_sequentially(self, rig):
        connector, client = rig
        client.put_object("c", "a", b"x" * 150)
        client.put_object("c", "b", b"x" * 90)
        splits = connector.discover_partitions("c")
        assert [s.index for s in splits] == [0, 1, 2]
        assert [s.name for s in splits] == ["a", "a", "b"]

    def test_prefix_filters_objects(self, rig):
        connector, client = rig
        client.put_object("c", "keep/o", b"x" * 10)
        client.put_object("c", "skip/o", b"x" * 10)
        splits = connector.discover_partitions("c", prefix="keep/")
        assert [s.name for s in splits] == ["keep/o"]

    def test_empty_objects_skipped(self, rig):
        connector, client = rig
        client.put_object("c", "empty", b"")
        assert connector.discover_partitions("c") == []

    def test_split_properties(self, rig):
        connector, client = rig
        client.put_object("c", "o", b"x" * 250)
        first, middle, last = connector.discover_partitions("c")
        assert first.is_first and not first.is_last
        assert not middle.is_first and not middle.is_last
        assert last.is_last and last.end == 249

    def test_invalid_chunk_size_raises(self, rig):
        _connector, client = rig
        with pytest.raises(ValueError):
            StocatorConnector(client, chunk_size=0)

    def test_dataset_size(self, rig):
        connector, client = rig
        client.put_object("c", "a", b"x" * 70)
        client.put_object("c", "b", b"y" * 30)
        requests = client.stats.requests
        assert connector.dataset_size("c") == 100
        # One sized listing, however many objects.
        assert client.stats.requests - requests == 1


class TestSplitReads:
    DATA = b"".join(f"row-{i:04d},value-{i}\n".encode() for i in range(40))

    def test_records_cover_exactly_once(self, rig):
        connector, client = rig
        client.put_object("c", "o", self.DATA)
        all_lines = []
        for split in connector.discover_partitions("c"):
            all_lines.extend(connector.read_split_records(split))
        expected = self.DATA.rstrip(b"\n").split(b"\n")
        assert all_lines == expected

    def test_metrics_track_plain_transfers(self, rig):
        connector, client = rig
        client.put_object("c", "o", self.DATA)
        for split in connector.discover_partitions("c"):
            connector.read_split_raw(split)
        assert connector.metrics.requests == len(
            connector.discover_partitions("c")
        )
        assert connector.metrics.bytes_requested == len(self.DATA)
        assert connector.metrics.pushdown_requests == 0
        # Plain reads transfer at least the whole dataset (plus lookahead).
        assert connector.metrics.bytes_transferred >= len(self.DATA)

    def test_pushdown_read_transfers_less(self, rig):
        connector, client = rig
        schema = Schema.of("name", "value")
        client.put_object("c", "o", self.DATA)
        task = PushdownTask(
            schema=schema,
            columns=["name"],
            filters=[EqualTo("name", "row-0003")],
        )
        total = b""
        for split in connector.discover_partitions("c"):
            total += connector.read_split_raw(split, task)
        assert total == b"row-0003\n"
        assert connector.metrics.pushdown_requests > 0
        assert (
            connector.metrics.bytes_transferred
            < connector.metrics.bytes_requested
        )

    def test_noop_task_falls_back_to_plain_read(self, rig):
        connector, client = rig
        schema = Schema.of("name", "value")
        client.put_object("c", "o", self.DATA)
        task = PushdownTask(schema=schema)  # nothing to discard
        for split in connector.discover_partitions("c"):
            connector.read_split_raw(split, task)
        assert connector.metrics.pushdown_requests == 0

    def test_savings_ratio(self, rig):
        connector, _client = rig
        connector.metrics.record(25, 100, pushdown=True)
        assert connector.metrics.savings_ratio() == pytest.approx(0.75)
        connector.metrics.reset()
        assert connector.metrics.savings_ratio() == 0.0


class TestUpload:
    def test_upload_creates_container(self, rig):
        connector, client = rig
        connector.upload("newc", "o", b"data")
        assert client.list_objects("newc") == ["o"]


class TestCoverageProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        row_count=st.integers(min_value=0, max_value=60),
        chunk_size=st.integers(min_value=7, max_value=300),
    )
    def test_any_chunk_size_covers_all_records(self, row_count, chunk_size):
        cluster = SwiftCluster(storage_node_count=2, disks_per_node=1)
        client = SwiftClient(cluster, "AUTH_prop")
        connector = StocatorConnector(client, chunk_size=chunk_size)
        client.put_container("c")
        data = b"".join(
            f"record-{i},{i * 3}\n".encode() for i in range(row_count)
        )
        if not data:
            return
        client.put_object("c", "o", data)
        collected = []
        for split in connector.discover_partitions("c"):
            collected.extend(connector.read_split_records(split))
        assert collected == data.rstrip(b"\n").split(b"\n")


class TestMissingEngineFailure:
    def test_pushdown_without_engine_fails_loudly(self):
        """A pushdown GET against a store with no storlet middleware must
        raise, not silently return unfiltered data."""
        from repro.swift.exceptions import SwiftError

        cluster = SwiftCluster(storage_node_count=2, disks_per_node=1)
        client = SwiftClient(cluster, "AUTH_bare")
        connector = StocatorConnector(client, chunk_size=100)
        client.put_container("c")
        client.put_object("c", "o", b"a,b\nc,d\n")
        task = PushdownTask(schema=Schema.of("x", "y"), columns=["x"])
        split = connector.discover_partitions("c")[0]
        with pytest.raises(SwiftError):
            connector.read_split_raw(split, task)


class TestSkippedObjects:
    """Partition discovery must surface objects it cannot split --
    counted in the connector's registry and logged -- instead of
    silently dropping them."""

    def test_zero_length_object_counted_and_logged(self, rig, caplog):
        import logging

        connector, client = rig
        client.put_object("c", "empty", b"")
        client.put_object("c", "data", b"x" * 10)
        with caplog.at_level(logging.WARNING, logger="repro.connector"):
            splits = connector.discover_partitions("c")
        assert [s.name for s in splits] == ["data"]
        assert connector.skipped_objects == [("c", "empty", "zero-length")]
        assert (
            connector.registry.counter_value(
                "connector.objects_skipped", reason="zero-length"
            )
            == 1
        )
        assert "empty" in caplog.text and "zero-length" in caplog.text

    def test_listing_entry_without_size_counted(self, rig, monkeypatch):
        connector, client = rig
        client.put_object("c", "weird", b"x" * 5)
        client.put_object("c", "data", b"x" * 10)
        real_listing = client.list_objects_sized

        def sizeless(container, **kwargs):
            entries = real_listing(container, **kwargs)
            for entry in entries:
                if entry["name"] == "weird":
                    del entry["bytes"]
            return entries

        monkeypatch.setattr(client, "list_objects_sized", sizeless)
        requests = client.stats.requests
        splits = connector.discover_partitions("c")
        assert [s.name for s in splits] == ["data"]
        # The listing and one HEAD, for "data": a skipped object costs none.
        assert client.stats.requests - requests == 2
        assert connector.skipped_objects == [("c", "weird", "missing-size")]
        assert (
            connector.registry.counter_value(
                "connector.objects_skipped", reason="missing-size"
            )
            == 1
        )

    def test_skips_accumulate_across_discoveries(self, rig):
        connector, client = rig
        client.put_object("c", "empty", b"")
        connector.discover_partitions("c")
        connector.discover_partitions("c")
        assert len(connector.skipped_objects) == 2
