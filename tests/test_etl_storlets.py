"""Tests for the PUT-path ETL storlets (cleansing, column split)."""

import json

import pytest

from repro.sql import Schema
from repro.storlets import (
    CleansingStorlet,
    ColumnSplitStorlet,
    StorletException,
)
from tests import storlet_harness

SCHEMA = Schema.of("vid", "date", "index:float")


def run_storlet(storlet, data: bytes, parameters: dict) -> tuple:
    out = storlet_harness.run_storlet(storlet, data, parameters)
    return out.body, out.metadata


class TestCleansing:
    PARAMS = {"schema": SCHEMA.to_header()}

    def test_valid_rows_pass(self):
        data = b"m1,2015-01-01,1.5\nm2,2015-01-02,2.0\n"
        result, _meta = run_storlet(CleansingStorlet(), data, self.PARAMS)
        assert result == data

    def test_malformed_rows_dropped(self):
        data = b"m1,2015-01-01,1.5\nonly,two\nm2,2015-01-02,2.0\n"
        result, meta = run_storlet(CleansingStorlet(), data, self.PARAMS)
        assert b"only,two" not in result
        assert meta["x-object-meta-etl-dropped"] == "1"
        assert meta["x-object-meta-etl-kept"] == "2"

    def test_untypable_rows_dropped(self):
        data = b"m1,2015-01-01,notanumber\nm2,2015-01-02,2.0\n"
        result, _meta = run_storlet(CleansingStorlet(), data, self.PARAMS)
        assert result == b"m2,2015-01-02,2.0\n"

    def test_fields_trimmed(self):
        data = b"  m1 , 2015-01-01 , 1.5 \n"
        result, _meta = run_storlet(CleansingStorlet(), data, self.PARAMS)
        assert result == b"m1,2015-01-01,1.5\n"

    def test_trim_disabled(self):
        data = b"m1 ,2015-01-01,1.5\n"
        result, _meta = run_storlet(
            CleansingStorlet(), data, {**self.PARAMS, "trim": "false"}
        )
        assert result == b"m1 ,2015-01-01,1.5\n"

    def test_empty_rows_dropped(self):
        data = b"m1,2015-01-01,1.5\n,,\n"
        result, _meta = run_storlet(CleansingStorlet(), data, self.PARAMS)
        assert result == b"m1,2015-01-01,1.5\n"

    def test_header_preserved(self):
        data = b"vid,date,index\nm1,2015-01-01,1.5\n"
        result, _meta = run_storlet(
            CleansingStorlet(), data, {**self.PARAMS, "has_header": "true"}
        )
        assert result.startswith(b"vid,date,index\n")

    def test_missing_schema_raises(self):
        with pytest.raises(StorletException):
            run_storlet(CleansingStorlet(), b"x\n", {})


class TestColumnSplit:
    def test_split_timestamp_into_date_and_time(self):
        data = b"m1,2015-01-01 10:20:00,1.5\n"
        result, _meta = run_storlet(
            ColumnSplitStorlet(), data, {"column": "1", "parts": "2"}
        )
        assert result == b"m1,2015-01-01,10:20:00,1.5\n"

    def test_missing_separator_pads_empty(self):
        data = b"m1,2015-01-01,1.5\n"
        result, _meta = run_storlet(
            ColumnSplitStorlet(), data, {"column": "1", "parts": "2"}
        )
        assert result == b"m1,2015-01-01,,1.5\n"

    def test_excess_parts_joined_into_last(self):
        data = b"m1,a b c d,1.5\n"
        result, _meta = run_storlet(
            ColumnSplitStorlet(), data, {"column": "1", "parts": "2"}
        )
        assert result == b"m1,a,b c d,1.5\n"

    def test_custom_separator(self):
        data = b"m1,2015-01-01T10:20,1.5\n"
        result, _meta = run_storlet(
            ColumnSplitStorlet(),
            data,
            {"column": "1", "parts": "2", "separator": "T"},
        )
        assert result == b"m1,2015-01-01,10:20,1.5\n"

    def test_header_renamed(self):
        data = b"vid,stamp,index\nm1,2015-01-01 10:00:00,1.5\n"
        result, _meta = run_storlet(
            ColumnSplitStorlet(),
            data,
            {
                "column": "1",
                "parts": "2",
                "has_header": "true",
                "header_names": json.dumps(["date", "time"]),
            },
        )
        lines = result.splitlines()
        assert lines[0] == b"vid,date,time,index"
        assert lines[1] == b"m1,2015-01-01,10:00:00,1.5"

    def test_out_of_range_column_passthrough(self):
        data = b"m1,x\n"
        result, _meta = run_storlet(
            ColumnSplitStorlet(), data, {"column": "9", "parts": "2"}
        )
        assert result == data

    def test_missing_column_parameter_raises(self):
        with pytest.raises(StorletException):
            run_storlet(ColumnSplitStorlet(), b"x\n", {})


class TestEndToEndEtlPolicy:
    def test_cleansing_enforced_on_upload(self, fresh_scoop):
        from repro.gridpocket import METER_SCHEMA

        schema = Schema.of("vid", "date", "index:float")
        fresh_scoop.upload_csv(
            "raw",
            "data.csv",
            b"m1,2015-01-01,1.5\nbad,row\nm2,2015-01-02,2.0\n",
            etl_schema=schema,
        )
        _headers, body = fresh_scoop.client.get_object("raw", "data.csv")
        assert body == b"m1,2015-01-01,1.5\nm2,2015-01-02,2.0\n"

    def test_split_then_query_pipeline(self, fresh_scoop):
        """ETL reshapes on upload; queries then run on the new schema."""
        from repro.storlets.engine import StorletPolicy

        fresh_scoop.client.put_container("shaped")
        fresh_scoop.engine.set_policy(
            fresh_scoop.client.account,
            "shaped",
            StorletPolicy(
                storlet=ColumnSplitStorlet.name,
                method="PUT",
                parameters={"column": "1", "parts": "2"},
            ),
        )
        fresh_scoop.client.put_object(
            "shaped", "d.csv", b"m1,2015-01-01 10:00:00,5.0\n"
        )
        schema = Schema.of("vid", "day", "time", "index:float")
        fresh_scoop.register_csv_table("shaped", "shaped", schema=schema)
        frame, _report = fresh_scoop.run_query(
            "SELECT vid, day FROM shaped WHERE day LIKE '2015%'"
        )
        assert frame.collect() == [("m1", "2015-01-01")]
