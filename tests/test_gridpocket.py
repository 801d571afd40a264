"""Tests for the GridPocket generator, queries and synthetic workload."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gridpocket import (
    DatasetSpec,
    GRIDPOCKET_QUERIES,
    METER_SCHEMA,
    MeterDataGenerator,
    measure_selectivities,
    synthetic_query,
)
from repro.gridpocket.queries import query_by_name
from repro.gridpocket.workload import SelectivityMeasurement
from repro.sql.catalyst import extract_pushdown
from repro.sql.parser import parse_query

from tests.row_at_a_time import filter_judge


def reference_measurement(sql, rows):
    """Row-at-a-time selectivity: render every row, count its bytes."""
    pushdown = extract_pushdown(parse_query(sql), METER_SCHEMA)
    predicate = filter_judge(pushdown.filters, METER_SCHEMA)
    positions = [METER_SCHEMA.index_of(name) for name in pushdown.required_columns]
    counts = [0, 0, 0, 0]
    for row in rows:
        rendered = METER_SCHEMA.render_row(row)
        counts[0] += 1
        counts[2] += sum(len(text) + 1 for text in rendered)
        if predicate(row):
            counts[1] += 1
            counts[3] += sum(len(rendered[i]) + 1 for i in positions)
    return SelectivityMeasurement(*counts)


class TestGenerator:
    SPEC = DatasetSpec(meters=10, intervals=20)

    def test_row_count(self):
        rows = list(MeterDataGenerator(self.SPEC).rows())
        assert len(rows) == 200

    def test_deterministic_given_seed(self):
        first = list(MeterDataGenerator(self.SPEC).rows())
        second = list(MeterDataGenerator(self.SPEC).rows())
        assert first == second

    def test_different_seed_differs(self):
        other_spec = DatasetSpec(meters=10, intervals=20, seed=99)
        first = list(MeterDataGenerator(self.SPEC).rows())
        second = list(MeterDataGenerator(other_spec).rows())
        assert first != second

    def test_rows_conform_to_schema(self):
        for row in MeterDataGenerator(self.SPEC).rows():
            assert len(row) == len(METER_SCHEMA)
            rendered = METER_SCHEMA.render_row(row)
            assert METER_SCHEMA.parse_row(rendered) == row

    def test_index_is_cumulative_per_meter(self):
        rows = list(MeterDataGenerator(self.SPEC).rows())
        per_meter = {}
        for row in rows:
            vid, index = row[0], row[2]
            if vid in per_meter:
                assert index > per_meter[vid]
            per_meter[vid] = index

    def test_hc_plus_hp_equals_index(self):
        for row in MeterDataGenerator(self.SPEC).rows():
            _vid, _date, index, hc, hp = row[:5]
            assert hc + hp == pytest.approx(index, abs=0.01)

    def test_timestamps_advance_by_interval(self):
        spec = DatasetSpec(meters=1, intervals=3, interval_minutes=10)
        dates = [row[1] for row in MeterDataGenerator(spec).rows()]
        assert dates == [
            "2015-01-01 00:00:00",
            "2015-01-01 00:10:00",
            "2015-01-01 00:20:00",
        ]

    def test_interval_minutes_respected(self):
        spec = DatasetSpec(meters=1, intervals=2, interval_minutes=1440)
        dates = [row[1] for row in MeterDataGenerator(spec).rows()]
        assert dates[1].startswith("2015-01-02")

    def test_code_column_roughly_uniform(self):
        spec = DatasetSpec(meters=50, intervals=100)
        codes = [row[5] for row in MeterDataGenerator(spec).rows()]
        assert all(0 <= code < 10000 for code in codes)
        below_half = sum(1 for code in codes if code < 5000)
        assert 0.45 < below_half / len(codes) < 0.55

    def test_meter_attributes_stable(self):
        rows = list(MeterDataGenerator(self.SPEC).rows())
        cities = {}
        for row in rows:
            vid, city = row[0], row[6]
            assert cities.setdefault(vid, city) == city

    def test_objects_partition_all_rows(self):
        spec = DatasetSpec(meters=10, intervals=20, objects=3)
        objects = list(MeterDataGenerator(spec).csv_objects())
        assert len(objects) == 3
        total_lines = sum(data.count(b"\n") for _name, data in objects)
        assert total_lines == spec.total_rows()

    def test_csv_lines_parse_back(self):
        generator = MeterDataGenerator(self.SPEC)
        for line, row in zip(generator.csv_lines(), generator.rows()):
            fields = line.decode().rstrip("\n").split(",")
            assert METER_SCHEMA.parse_row(fields) == row


class TestQueries:
    def test_seven_queries(self):
        assert len(GRIDPOCKET_QUERIES) == 7

    def test_query_by_name(self):
        assert query_by_name("showday").name == "Showday"
        with pytest.raises(KeyError):
            query_by_name("nope")

    def test_table_substitution(self):
        sql = query_by_name("ShowMapCons").sql("myTable")
        assert "FROM myTable" in sql
        assert "{table}" not in sql

    def test_paper_selectivities_recorded(self):
        for query in GRIDPOCKET_QUERIES:
            assert query.paper_data_selectivity > 99.0


class TestSyntheticWorkload:
    def test_synthetic_query_no_selection(self):
        assert synthetic_query(0.0) == "SELECT * FROM largeMeter"

    def test_synthetic_query_threshold(self):
        sql = synthetic_query(0.25)
        assert "code < 7500" in sql

    def test_invalid_selectivity_raises(self):
        with pytest.raises(ValueError):
            synthetic_query(1.5)

    def test_columns_rendered(self):
        sql = synthetic_query(0.5, columns=["vid", "city"])
        assert sql.startswith("SELECT vid, city FROM")

    @pytest.mark.parametrize("target", [0.1, 0.5, 0.95])
    def test_measured_row_selectivity_tracks_target(self, target):
        (measurement,) = measure_selectivities(
            [synthetic_query(target)],
            spec=DatasetSpec(meters=40, intervals=80),
        )
        assert measurement.row_selectivity == pytest.approx(target, abs=0.05)

    def test_measurement_components_consistent(self):
        (measurement,) = measure_selectivities(
            [synthetic_query(0.5, columns=["vid", "code"])],
            spec=DatasetSpec(meters=20, intervals=40),
        )
        # data selectivity combines row and column effects:
        # kept = (1 - row_sel) * (1 - col_sel)
        expected = 1.0 - (1.0 - measurement.row_selectivity) * (
            1.0 - measurement.column_selectivity
        )
        assert measurement.data_selectivity == pytest.approx(
            expected, abs=0.01
        )

    def test_shared_widths_match_row_at_a_time_counts(self):
        spec = DatasetSpec(
            meters=12, intervals=400, interval_minutes=1440, start="2014-06-01"
        )
        rows = list(MeterDataGenerator(spec).rows())
        sqls = [query.sql("largeMeter") for query in GRIDPOCKET_QUERIES] + [
            synthetic_query(0.5, columns=["vid", "code"]),
            synthetic_query(0.0),
        ]
        measured = measure_selectivities(sqls, METER_SCHEMA, rows)
        assert measured == [reference_measurement(sql, rows) for sql in sqls]
        assert any(m.rows_kept for m in measured[:7])

    def test_empty_sample_measures_zero(self):
        assert measure_selectivities(["SELECT vid FROM t"], METER_SCHEMA, []) == [
            SelectivityMeasurement(0, 0, 0, 0)
        ]

    @settings(max_examples=20, deadline=None)
    @given(target=st.floats(min_value=0.0, max_value=0.99))
    def test_row_selectivity_property(self, target):
        (measurement,) = measure_selectivities(
            [synthetic_query(target)],
            spec=DatasetSpec(meters=30, intervals=50),
        )
        assert abs(measurement.row_selectivity - target) < 0.1
