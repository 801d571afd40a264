"""Regression tests for NaN-poisoned min/max statistics.

Pre-fix, ``encode_segment`` fed NaN straight into Python's ``min``/
``max`` -- which are order-dependent under NaN (``min([nan, 1]) = nan``
but ``min([1, nan]) = 1``) -- and ``stripe_may_match`` then treated the
NaN bound as refutation (``hi > value`` is False when ``hi`` is NaN),
silently dropping stripes that contain matching rows.  These tests pin
both orderings (NaN-first poisons both bounds, NaN-last neither) and
assert byte identity with the row oracle through the full columnar
plane; every one of them fails on the pre-fix stats code.
"""

import json
import math

import pytest

from repro.columnar.layout import (
    decode_footer,
    encode_columnar,
    encode_segment,
)
from repro.columnar.pruning import stripe_may_match
from repro.core.scoop import ScoopContext
from repro.sql.filters import EqualTo, GreaterThan, In, LessThan
from repro.sql.types import DataType, Schema

SCHEMA = Schema.of("vid", "index:float", "code:int")

#: The satellite's required filter shapes: >, <, =, IN.
NAN_QUERIES = (
    "SELECT vid, index FROM t WHERE index > 3.0",
    "SELECT vid, index FROM t WHERE index < 2.0",
    "SELECT vid FROM t WHERE index = 3.5",
    "SELECT vid FROM t WHERE index IN (0.5, 3.5)",
)


def _csv_body(nan_position):
    """40 rows with index i/2.0, one row's index replaced by NaN."""
    lines = []
    for i in range(40):
        value = "nan" if i == nan_position else f"{i / 2.0}"
        lines.append(f"v{i},{value},{i}")
    return "\n".join(lines) + "\n"


#: NaN-first poisons min AND max pre-fix; NaN-last poisons neither --
#: both must behave identically post-fix.
ORDERINGS = {"nan-first": 0, "nan-last": 39}


class TestSegmentStats:
    def test_nan_first_yields_finite_bounds_and_flag(self):
        values = [float("nan"), 1.0, 5.0]
        _data, nulls, mn, mx, has_nan = encode_segment(values, DataType.FLOAT)
        assert nulls == 0
        assert (mn, mx) == (1.0, 5.0)
        assert has_nan is True

    def test_nan_last_yields_identical_stats(self):
        values = [1.0, 5.0, float("nan")]
        _data, _nulls, mn, mx, has_nan = encode_segment(values, DataType.FLOAT)
        assert (mn, mx, has_nan) == (1.0, 5.0, True)

    def test_infinities_are_excluded_but_flagged(self):
        values = [float("inf"), 1.0, float("-inf")]
        _data, _nulls, mn, mx, has_nan = encode_segment(values, DataType.FLOAT)
        assert (mn, mx, has_nan) == (1.0, 1.0, True)

    def test_all_non_finite_yields_absent_bounds(self):
        values = [float("nan"), float("inf")]
        _data, _nulls, mn, mx, has_nan = encode_segment(values, DataType.FLOAT)
        assert (mn, mx, has_nan) == (None, None, True)


class TestFooter:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_footer_json_has_no_nan_literal(self, ordering):
        rows = [
            (f"v{i}", float("nan") if i == ORDERINGS[ordering] else i / 2.0, i)
            for i in range(40)
        ]
        data = encode_columnar(SCHEMA, rows)
        footer_len = int(data[-12:-4])
        payload = data[len(data) - 12 - footer_len : len(data) - 12]
        # Strict JSON must parse it; the non-standard literals must not
        # appear anywhere in the footer text.
        json.loads(payload.decode("utf-8"), parse_constant=_reject_constant)
        for literal in (b"NaN", b"Infinity"):
            assert literal not in payload

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_round_trip_preserves_flag_and_values(self, ordering):
        position = ORDERINGS[ordering]
        rows = [
            (f"v{i}", float("nan") if i == position else i / 2.0, i)
            for i in range(40)
        ]
        data = encode_columnar(SCHEMA, rows)
        footer = decode_footer(data)
        segment = footer.stripes[0].columns[SCHEMA.index_of("index")]
        assert segment.has_nan is True
        # NaN-first eats row 0 (index 0.0), so the finite min is 0.5.
        assert segment.min_value == (0.5 if position == 0 else 0.0)
        assert math.isfinite(segment.min_value)
        assert math.isfinite(segment.max_value)
        from repro.columnar.layout import iter_stripe_batches

        decoded = [row for batch in iter_stripe_batches(data) for row in batch.rows]
        assert math.isnan(decoded[position][1])

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_stripe_with_nan_is_never_refuted_on_that_column(self, ordering):
        rows = [
            (f"v{i}", float("nan") if i == ORDERINGS[ordering] else i / 2.0, i)
            for i in range(40)
        ]
        footer = decode_footer(encode_columnar(SCHEMA, rows))
        stripe = footer.stripes[0]
        # Matching rows exist for every one of these; pre-fix the
        # NaN-first ordering refuted all four.
        for item in (
            GreaterThan("index", 3.0),
            LessThan("index", 2.0),
            EqualTo("index", 3.5),
            In("index", [0.5, 3.5]),
        ):
            assert stripe_may_match(stripe, [item], SCHEMA), item

    def test_stale_non_finite_bounds_degrade_to_may_match(self):
        """A pre-fix footer (NaN bounds, no flag) must prune nothing."""
        from repro.columnar.layout import SegmentMeta, StripeMeta

        stripe = StripeMeta(
            rows=4,
            columns=[
                SegmentMeta(offset=4, length=10),
                SegmentMeta(
                    offset=14,
                    length=10,
                    min_value=float("nan"),
                    max_value=float("nan"),
                ),
                SegmentMeta(offset=24, length=10, min_value=0, max_value=3),
            ],
        )
        assert stripe_may_match(stripe, [GreaterThan("index", 3.0)], SCHEMA)
        assert stripe_may_match(stripe, [EqualTo("index", 3.5)], SCHEMA)


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON literal {name} in footer")


@pytest.fixture(scope="module")
def row_baseline():
    """The row-path oracle for both NaN orderings."""
    baselines = {}
    for ordering, position in ORDERINGS.items():
        ctx = ScoopContext(chunk_size=16 * 1024)
        ctx.upload_csv("data", "part-000.csv", _csv_body(position))
        ctx.register_csv_table("t", "data", schema=SCHEMA, format="csv")
        baselines[ordering] = {
            sql: ctx.sql(sql).collect() for sql in NAN_QUERIES
        }
    return baselines


class TestNanByteIdentity:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize(
        "parallelism", [1, 16], ids=["serial", "threads-16"]
    )
    def test_columnar_matches_row_path(
        self, row_baseline, ordering, parallelism
    ):
        ctx = ScoopContext(chunk_size=16 * 1024, parallelism=parallelism)
        ctx.upload_csv("data", "part-000.csv", _csv_body(ORDERINGS[ordering]))
        ctx.register_csv_table("t", "data", schema=SCHEMA, format="columnar")
        for sql, expected in row_baseline[ordering].items():
            assert ctx.sql(sql).collect() == expected, (sql, ordering)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_expected_rows_actually_survive(self, row_baseline, ordering):
        """Guard the oracle itself: the filters do match rows, so a
        pre-fix pruner dropping the stripe loses real output."""
        for sql, expected in row_baseline[ordering].items():
            assert len(expected) > 0, sql
