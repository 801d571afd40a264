"""Failure-injection tests: queries under partial store damage.

End-to-end scenarios: replica loss mid-dataset, missing pushdown filter,
corrupted objects, device failure + recovery -- the query layer must
either transparently survive or fail loudly (never silently corrupt).
"""

import pytest

from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset
from repro.swift.exceptions import SwiftError
from repro.swift.replicator import Replicator

SPEC = DatasetSpec(meters=15, intervals=80, objects=3)
SQL = (
    "SELECT vid, sum(index) AS total FROM t "
    "WHERE city LIKE 'P%' GROUP BY vid ORDER BY vid"
)


@pytest.fixture
def rig(fresh_scoop):
    upload_dataset(fresh_scoop.client, "meters", SPEC)
    fresh_scoop.register_csv_table("t", "meters", schema=METER_SCHEMA)
    return fresh_scoop


class TestReplicaLoss:
    def test_query_survives_loss_of_one_node(self, rig):
        baseline = rig.sql(SQL).collect()
        victim = next(iter(rig.cluster.object_servers.values()))
        for store in victim.devices.values():
            store.clear()
        assert rig.sql(SQL).collect() == baseline

    def test_query_survives_loss_of_two_nodes(self, rig):
        baseline = rig.sql(SQL).collect()
        victims = list(rig.cluster.object_servers.values())[:2]
        for victim in victims:
            for store in victim.devices.values():
                store.clear()
        assert rig.sql(SQL).collect() == baseline

    def test_total_data_loss_is_loud(self, rig):
        for server in rig.cluster.object_servers.values():
            for store in server.devices.values():
                store.clear()
        with pytest.raises(SwiftError):
            rig.sql(SQL).collect()

    def test_repair_then_query(self, rig):
        baseline = rig.sql(SQL).collect()
        victim = next(iter(rig.cluster.object_servers.values()))
        for store in victim.devices.values():
            store.clear()
        Replicator(rig.cluster).run_until_stable()
        assert Replicator(rig.cluster).audit() == {}
        assert rig.sql(SQL).collect() == baseline


class TestMissingFilter:
    # Every scan storlet: whichever format REPRO_FORMAT selects, and
    # whether or not REPRO_PLACEMENT arms GROUP-BY pushdown, the active
    # data plane loses its pushdown filter.
    SCAN_STORLETS = ("csvstorlet", "columnarstorlet", "aggstorlet")

    def _undeploy_scan_storlets(self, rig):
        for name in self.SCAN_STORLETS:
            rig.engine.undeploy(name)

    def test_undeployed_storlet_fails_loudly(self, rig):
        self._undeploy_scan_storlets(rig)
        with pytest.raises(SwiftError):
            rig.sql(SQL).collect()

    def test_redeploy_restores_service(self, rig):
        from repro.storlets import CsvStorlet
        from repro.storlets.agg_storlet import AggregatingStorlet
        from repro.storlets.columnar_storlet import ColumnarStorlet

        baseline = rig.sql(SQL).collect()
        self._undeploy_scan_storlets(rig)
        with pytest.raises(SwiftError):
            rig.sql(SQL).collect()
        rig.engine.deploy(CsvStorlet(), rig.client)
        rig.engine.deploy(ColumnarStorlet(), rig.client)
        rig.engine.deploy(AggregatingStorlet(), rig.client)
        assert rig.sql(SQL).collect() == baseline


class TestCorruption:
    def test_garbage_object_rows_dropped_not_crashing(self, rig):
        rig.client.put_object(
            "meters",
            "zz-corrupt.csv",
            b"\xff\xfe totally not csv \x00\x01\n" * 20,
        )
        # Re-register so partition discovery sees the new object.
        rig.register_csv_table("t2", "meters", schema=METER_SCHEMA)
        rows = rig.sql(SQL.replace("FROM t", "FROM t2")).collect()
        baseline = rig.sql(SQL).collect()
        assert rows == baseline

    def test_partially_corrupt_object_keeps_valid_rows(self, rig):
        good = b"M99999,2015-01-01 00:00:00,5.0,1.0,4.0,123,Paris,FRA,48.8,2.3\n"
        rig.client.put_container("mixed")
        rig.client.put_object(
            "mixed", "d.csv", b"garbage line\n" + good + b"another,bad\n"
        )
        rig.register_csv_table("mixed", "mixed", schema=METER_SCHEMA)
        rows = rig.sql("SELECT vid FROM mixed").collect()
        assert rows == [("M99999",)]


class TestDeviceFailureRecovery:
    def test_fail_rebalance_replicate_query(self, rig):
        baseline = rig.sql(SQL).collect()
        victim_device = next(iter(rig.cluster.object_ring.devices))
        rig.cluster.fail_device(victim_device)
        rig.cluster.ring_builder.rebalance()
        rig.cluster.refresh_ring()
        Replicator(rig.cluster).run_until_stable()
        # New relation (ring changed; discovery is fine either way).
        rig.register_csv_table("t3", "meters", schema=METER_SCHEMA)
        assert (
            rig.sql(SQL.replace("FROM t", "FROM t3")).collect() == baseline
        )


class TestCrashingFilterPipeline:
    def test_pipeline_crash_is_loud_and_object_unharmed(self, rig):
        from repro.storlets import IStorlet

        class Bomb(IStorlet):
            name = "bomb"

            def process(self, in_stream, parameters, logger, metadata):
                raise RuntimeError("mid-stream failure")
                yield

        rig.engine.deploy(Bomb())
        with pytest.raises(SwiftError):
            rig.client.get_object(
                "meters",
                rig.client.list_objects("meters")[0],
                headers={"x-run-storlet": "bomb"},
            )
        # The object itself is untouched.
        _headers, body = rig.client.get_object(
            "meters", rig.client.list_objects("meters")[0]
        )
        assert len(body) > 0
