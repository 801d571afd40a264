"""Microbenchmarks of the functional substrates (repeated-round timing):
CSV storlet throughput, ring lookups, SQL parse/execute, flow network
reallocation, end-to-end pushdown query."""

import json

import pytest

from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator
from repro.perfmodel.flow import FlowNetwork
from repro.perfmodel.kernel import Environment
from repro.sql import (
    EqualTo,
    StringStartsWith,
    execute_query,
    filters_to_json,
    parse_query,
)
from repro.storlets import CsvStorlet
from repro.swift.http import DEFAULT_CHUNK_SIZE, chunk_bytes
from repro.swift.ring import RingBuilder
from tests.storlet_harness import run_storlet


@pytest.fixture(scope="module")
def meter_csv() -> bytes:
    generator = MeterDataGenerator(DatasetSpec(meters=50, intervals=100))
    return b"".join(generator.csv_lines())


@pytest.fixture(scope="module")
def meter_rows():
    generator = MeterDataGenerator(DatasetSpec(meters=50, intervals=100))
    return list(generator.rows())


#: Paris is in about one record in seven: its needle narrows every block.
CITY_AND_DATE = [EqualTo("city", "Paris"), StringStartsWith("date", "2015-01")]
#: Every record holds the one literal: the needle is dense and each
#: block is read whole, so this case times what the search costs.
DATE_ONLY = [StringStartsWith("date", "2015-01")]


@pytest.mark.parametrize(
    "chunk_size, filters",
    [
        (DEFAULT_CHUNK_SIZE, CITY_AND_DATE),
        (None, CITY_AND_DATE),
        (DEFAULT_CHUNK_SIZE, DATE_ONLY),
        (None, DATE_ONLY),
    ],
    ids=["64KiB-chunks", "one-chunk", "64KiB-chunks-date-only", "one-chunk-date-only"],
)
def test_bench_csv_storlet_filter_throughput(benchmark, meter_csv, chunk_size, filters):
    """Bytes/second through the pushdown filter (selection+projection),
    fed as the object backend feeds it and as one whole-object chunk --
    the reader's cost must not depend on which."""
    chunks = (
        [meter_csv]
        if chunk_size is None
        else list(chunk_bytes(meter_csv, chunk_size))
    )
    parameters = {
        "schema": METER_SCHEMA.to_header(),
        "columns": json.dumps(["vid", "date", "index"]),
        "filters": filters_to_json(filters),
    }

    def run():
        return len(run_storlet(CsvStorlet(), chunks, dict(parameters)).body)

    written = benchmark(run)
    assert written > 0
    benchmark.extra_info["input_bytes"] = len(meter_csv)


def test_bench_ring_lookup(benchmark):
    builder = RingBuilder(part_power=14, replica_count=3)
    for node in range(8):
        for disk in range(4):
            builder.add_device(zone=node % 4, weight=1.0, node=f"n{node}", disk=disk)
    ring = builder.get_ring()

    def lookups():
        for i in range(1000):
            ring.get_nodes("AUTH_bench", "container", f"object-{i}")
        return True

    assert benchmark(lookups)


def test_bench_ring_rebalance(benchmark):
    def rebalance():
        builder = RingBuilder(part_power=10, replica_count=3)
        for node in range(10):
            builder.add_device(zone=node % 5, weight=1.0, node=f"n{node}")
        return builder.rebalance()

    moved = benchmark(rebalance)
    assert moved == 0 or moved > 0


def test_bench_sql_parse(benchmark):
    sql = (
        "SELECT SUBSTRING(date, 0, 10) as sDate, vid, min(sumHC) as minHC, "
        "max(sumHC) as maxHC, min(sumHP) as minHP, max(sumHP) as maxHP "
        "FROM largeMeter WHERE state LIKE 'FRA' AND date LIKE '2015-01-%' "
        "GROUP BY SUBSTRING(date, 0, 10), vid "
        "ORDER BY SUBSTRING(date, 0, 10), vid"
    )
    query = benchmark(parse_query, sql)
    assert query.table == "largeMeter"


def test_bench_sql_aggregate_execution(benchmark, meter_rows):
    sql = (
        "SELECT vid, sum(index) as total, first_value(city) as city "
        "FROM t WHERE date LIKE '2015-01%' GROUP BY vid ORDER BY vid"
    )

    def run():
        _schema, rows = execute_query(sql, METER_SCHEMA, meter_rows)
        return len(rows)

    count = benchmark(run)
    assert count == 50


def test_bench_flow_network_reallocation(benchmark):
    """Cost of max-min reallocation with many concurrent flows."""

    def run():
        env = Environment()
        network = FlowNetwork(env)
        resources = [network.add_resource(f"r{i}", 100.0) for i in range(20)]
        finished = []

        def launch(index):
            flow = network.start_flow(
                50.0,
                {
                    resources[index % 20]: 1.0,
                    resources[(index + 7) % 20]: 0.5,
                },
            )
            yield flow.done
            finished.append(index)

        for index in range(60):
            env.process(launch(index))
        env.run()
        return len(finished)

    assert benchmark(run) == 60


def test_bench_end_to_end_pushdown_query(benchmark):
    """Whole-stack latency: SQL in, filtered+aggregated rows out."""
    from repro.core import ScoopContext
    from repro.gridpocket import upload_dataset

    ctx = ScoopContext(chunk_size=128 * 1024)
    upload_dataset(
        ctx.client, "meters", DatasetSpec(meters=30, intervals=60, objects=2)
    )
    ctx.register_csv_table("largeMeter", "meters", schema=METER_SCHEMA)
    sql = (
        "SELECT vid, sum(index) as total FROM largeMeter "
        "WHERE city LIKE 'Paris' GROUP BY vid ORDER BY vid"
    )

    def run():
        return len(ctx.sql(sql).collect())

    count = benchmark(run)
    assert count >= 0
