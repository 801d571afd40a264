"""Tests for the SparkSession planner, DataFrames and data sources."""

import pytest

from repro.connector import StocatorConnector
from repro.spark import SparkContext, SparkSession
from repro.spark.csv_source import CsvRelation, infer_csv_schema
from repro.spark.datasources import TableScan
from repro.sql import Schema
from repro.sql.errors import SqlAnalysisError
from repro.sql.types import DataType
from repro.swift import SwiftClient, SwiftCluster

from tests.fake_rdd import SCHEMA, FakeRDD


@pytest.fixture
def rig():
    cluster = SwiftCluster(storage_node_count=2, disks_per_node=1)
    client = SwiftClient(cluster, "AUTH_sql")
    connector = StocatorConnector(client, chunk_size=64 * 1024)
    client.put_container("data")
    client.put_object(
        "data",
        "t.csv",
        b"m1,2015-01-01,10.5,Rotterdam\n"
        b"m2,2015-01-02,3.0,Paris\n"
        b"m3,2015-02-01,7.5,Rotterdam\n",
    )
    session = SparkSession(SparkContext("t", 2))
    schema = Schema.of("vid", "date", "index:float", "city")
    relation = CsvRelation(
        session.context, connector, "data", schema=schema, pushdown=False
    )
    session.register_table("t", relation)
    return session, connector, schema


class TestSessionSql:
    def test_simple_query(self, rig):
        session, _connector, _schema = rig
        rows = session.sql("SELECT vid FROM t ORDER BY vid").collect()
        assert rows == [("m1",), ("m2",), ("m3",)]

    def test_aggregation_query(self, rig):
        session, _connector, _schema = rig
        rows = session.sql(
            "SELECT city, sum(index) FROM t GROUP BY city ORDER BY city"
        ).collect()
        assert rows == [("Paris", 3.0), ("Rotterdam", 18.0)]

    def test_unknown_table_raises(self, rig):
        session, _connector, _schema = rig
        with pytest.raises(SqlAnalysisError):
            session.sql("SELECT a FROM ghost").collect()

    def test_last_pushdown_spec_recorded(self, rig):
        session, _connector, _schema = rig
        session.sql("SELECT vid FROM t WHERE city = 'Paris'").collect()
        spec = session.last_pushdown
        assert spec is not None
        assert spec.required_columns == ["vid"]  # city: filter-only
        assert len(spec.filters) == 1
        assert spec.handled == spec.filters

    def test_table_method_validates(self, rig):
        session, _connector, _schema = rig
        assert session.table("t").count() == 3
        with pytest.raises(SqlAnalysisError):
            session.table("ghost")


class TestDataFrame:
    def test_fluent_select_where(self, rig):
        session, _connector, _schema = rig
        frame = (
            session.table("t")
            .select("vid", "index")
            .where("index > 5")
            .order_by("index desc")
        )
        assert frame.collect() == [("m1", 10.5), ("m3", 7.5)]

    def test_where_merges_conjunctively(self, rig):
        session, _connector, _schema = rig
        frame = (
            session.table("t")
            .where("city = 'Rotterdam'")
            .where("index > 8")
            .select("vid")
        )
        assert frame.collect() == [("m1",)]

    def test_limit(self, rig):
        session, _connector, _schema = rig
        assert session.table("t").limit(2).count() == 2

    def test_to_dicts(self, rig):
        session, _connector, _schema = rig
        dicts = session.table("t").select("vid", "city").limit(1).to_dicts()
        assert dicts == [{"vid": "m1", "city": "Rotterdam"}]

    def test_show_renders_table(self, rig):
        session, _connector, _schema = rig
        rendered = session.table("t").select("vid").show()
        assert "vid" in rendered and "m1" in rendered

    def test_show_truncates(self, rig):
        session, _connector, _schema = rig
        rendered = session.table("t").show(limit=1)
        assert "showing 1 of 3 rows" in rendered

    def test_iteration_and_len(self, rig):
        session, _connector, _schema = rig
        frame = session.table("t").select("vid")
        assert len(frame) == 3
        assert list(frame) == [("m1",), ("m2",), ("m3",)]

    def test_explain_mentions_pushdown(self, rig):
        session, _connector, _schema = rig
        text = session.sql(
            "SELECT vid FROM t WHERE city = 'Paris'"
        ).explain()
        assert "Pushdown" in text
        assert "city" in text

    def test_result_cached_per_frame(self, rig):
        session, connector, _schema = rig
        frame = session.table("t").select("vid")
        frame.collect()
        requests_after_first = connector.metrics.requests
        frame.collect()
        assert connector.metrics.requests == requests_after_first


class TestRegisterTable:
    def test_a_table_scan_relation_answers_sql(self):
        class OneRowRelation(TableScan):
            def __init__(self, context):
                self.context = context

            def schema(self):
                return SCHEMA

            def build_scan(self):
                return FakeRDD(self.context, [[42]])

        session = SparkSession(SparkContext("t4", 1))
        session.register_table("one", OneRowRelation(session.context))
        assert session.sql("SELECT i FROM one").collect() == [(42,)]
        assert "OneRowRelation via TableScan" in session.sql("SELECT i FROM one").explain()


class TestSchemaInference:
    def test_infers_names_from_header(self, rig):
        _session, connector, _schema = rig
        connector.client.put_container("inferred")
        connector.client.put_object(
            "inferred",
            "h.csv",
            b"id,score,label\n1,2.5,yes\n2,3.5,no\n",
        )
        schema = infer_csv_schema(connector, "inferred", has_header=True)
        assert schema.names == ["id", "score", "label"]
        assert schema.field("id").dtype is DataType.INT
        assert schema.field("score").dtype is DataType.FLOAT
        assert schema.field("label").dtype is DataType.STRING

    def test_generates_names_without_header(self, rig):
        _session, connector, _schema = rig
        schema = infer_csv_schema(connector, "data")
        assert schema.names == ["_c0", "_c1", "_c2", "_c3"]
        assert schema.field("_c2").dtype is DataType.FLOAT

    def test_quoted_newlines_are_framed_as_the_scan_frames_them(self, rig):
        session, connector, _schema = rig
        connector.client.put_container("notes")
        body = b"".join(
            b'%d,"note %d\nb,c",%d\n' % (i, i, 2 * i) for i in range(5)
        )
        connector.client.put_object("notes", "n.csv", body)
        schema = infer_csv_schema(connector, "notes")
        assert [fld.dtype for fld in schema.fields] == [
            DataType.INT, DataType.STRING, DataType.INT,
        ]
        session.register_table(
            "notes", CsvRelation(session.context, connector, "notes")
        )
        rows = session.sql("SELECT * FROM notes").collect()
        assert sorted(rows) == [(i, f"note {i}\nb,c", 2 * i) for i in range(5)]

    def test_a_head_cut_inside_a_record_drops_the_fragment(self, rig):
        """The sampled head stops inside the last record's ``1e5``: its
        fragment ``1e`` is no FLOAT, and is not sampled."""
        _session, connector, _schema = rig
        connector.client.put_container("long")
        head_bytes = 256 * 1024 + 1
        body = (b"f" * 2614 + b",1,2.5\n") * 100
        tail = b",7,1e5\n"
        body += b"y" * (head_bytes - len(body) - tail.index(b"5")) + tail
        assert body[:head_bytes].endswith(b",7,1e")
        connector.client.put_object("long", "l.csv", body)
        schema = infer_csv_schema(connector, "long")
        assert [fld.dtype for fld in schema.fields] == [
            DataType.STRING, DataType.INT, DataType.FLOAT,
        ]

    def test_empty_container_raises(self, rig):
        _session, connector, _schema = rig
        connector.client.put_container("void")
        with pytest.raises(ValueError):
            infer_csv_schema(connector, "void")

    def test_an_empty_first_object_is_passed_over(self, rig):
        _session, connector, _schema = rig
        connector.client.put_container("sparse")
        connector.client.put_object("sparse", "a.csv", b"")
        connector.client.put_object("sparse", "b.csv", b"1,x\n2,y\n")
        registry = connector.client.registry
        gets = registry.counter_total("client.requests")
        schema = infer_csv_schema(connector, "sparse")
        assert schema.names == ["_c0", "_c1"]
        assert [fld.dtype for fld in schema.fields] == [DataType.INT, DataType.STRING]
        # One listing, one ranged GET of the object that has bytes.
        assert registry.counter_total("client.requests") - gets == 2

    def test_only_empty_objects_raise(self, rig):
        _session, connector, _schema = rig
        connector.client.put_container("hollow")
        for name in ("a.csv", "b.csv"):
            connector.client.put_object("hollow", name, b"")
        with pytest.raises(ValueError, match="cannot infer schema: .* empty"):
            infer_csv_schema(connector, "hollow")


class TestFluentGroupBy:
    def test_group_by_agg(self, rig):
        session, _connector, _schema = rig
        frame = (
            session.table("t")
            .group_by("city")
            .agg("sum(index) AS total", "count(*) AS n")
            .order_by("city")
        )
        assert frame.schema.names == ["city", "total", "n"]
        assert frame.collect() == [("Paris", 3.0, 1), ("Rotterdam", 18.0, 2)]

    def test_group_by_expression_key(self, rig):
        session, _connector, _schema = rig
        frame = (
            session.table("t")
            .group_by("SUBSTRING(date, 0, 7)")
            .agg("count(*) AS n")
        )
        assert sorted(frame.collect()) == [("2015-01", 2), ("2015-02", 1)]

    def test_group_by_respects_where(self, rig):
        session, _connector, _schema = rig
        frame = (
            session.table("t")
            .where("city = 'Rotterdam'")
            .group_by("city")
            .agg("max(index) AS peak")
        )
        assert frame.collect() == [("Rotterdam", 10.5)]

    def test_agg_requires_single_item_per_string(self, rig):
        session, _connector, _schema = rig
        with pytest.raises(ValueError):
            session.table("t").group_by("city").agg("sum(index), count(*)")
