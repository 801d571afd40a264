"""Tests for source filters: semantics, serialization, composition.

The semantics are those of :class:`repro.sql.kernels.FilterMask`, the one
evaluator every scan runs, each answer also held to the per-row
reference ``tests.row_at_a_time.filter_judge``.
"""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import filters as f
from repro.sql.errors import SqlError
from repro.sql.filters import filter_from_dict, filters_from_json, filters_to_json
from repro.sql.types import Schema

from tests.row_at_a_time import filter_judge, shipped_mask

SCHEMA = Schema.of("name", "age:int", "city")
ROWS = [
    ("alice", 30, "Rotterdam"),
    ("bob", 25, "Paris"),
    ("carol", None, "Rotterdam"),
    (None, 40, "Berlin"),
]


def keep(*filters):
    """The rows passing every filter, by the shipped evaluator."""
    mask = shipped_mask(filters, SCHEMA, ROWS)
    assert mask == bytes(map(filter_judge(filters, SCHEMA), ROWS))
    return list(itertools.compress(ROWS, mask))


class TestSemantics:
    def test_equal_to(self):
        assert keep(f.EqualTo("city", "Rotterdam")) == [ROWS[0], ROWS[2]]

    def test_comparisons(self):
        assert keep(f.GreaterThan("age", 25)) == [ROWS[0], ROWS[3]]
        assert keep(f.GreaterThanOrEqual("age", 30)) == [ROWS[0], ROWS[3]]
        assert keep(f.LessThan("age", 30)) == [ROWS[1]]
        assert keep(f.LessThanOrEqual("age", 25)) == [ROWS[1]]

    def test_null_never_matches_comparison(self):
        assert ROWS[2] not in keep(f.GreaterThan("age", 0))
        assert ROWS[3] not in keep(f.EqualTo("name", "alice"))

    def test_string_filters(self):
        assert keep(f.StringStartsWith("name", "a")) == [ROWS[0]]
        assert keep(f.StringEndsWith("name", "b")) == [ROWS[1]]
        assert keep(f.StringContains("name", "aro")) == [ROWS[2]]

    def test_in(self):
        assert keep(f.In("age", [25, 40])) == [ROWS[1], ROWS[3]]

    def test_null_filters(self):
        assert keep(f.IsNull("age")) == [ROWS[2]]
        assert keep(f.IsNotNull("name")) == ROWS[:3]

    def test_like_pattern(self):
        assert keep(f.LikePattern("city", "R%dam")) == [ROWS[0], ROWS[2]]
        assert keep(f.LikePattern("name", "_ob")) == [ROWS[1]]

    def test_and_or_not(self):
        both = f.And(
            f.EqualTo("city", "Rotterdam"), f.GreaterThan("age", 25)
        )
        assert keep(both) == [ROWS[0]]
        either = f.Or(f.EqualTo("age", 25), f.EqualTo("age", 40))
        assert keep(either) == [ROWS[1], ROWS[3]]
        negated = f.Not(f.EqualTo("city", "Rotterdam"))
        assert keep(negated) == [ROWS[1], ROWS[3]]

    def test_not_is_sql_not(self):
        # NOT of NULL is NULL: carol (age NULL) passes neither polarity.
        assert keep(f.Not(f.GreaterThan("age", 25))) == [ROWS[1]]
        assert keep(f.Not(f.EqualTo("name", "alice"))) == [ROWS[1], ROWS[2]]
        assert keep(f.Not(f.IsNull("age"))) == keep(f.IsNotNull("age"))
        # NOT (a AND b) under Kleene logic: carol's NULL AND True is
        # NULL, so she passes neither it nor its negation.
        both = f.And(f.GreaterThan("age", 25), f.EqualTo("city", "Rotterdam"))
        assert keep(both) == [ROWS[0]]
        assert keep(f.Not(both)) == [ROWS[1], ROWS[3]]

    def test_incomparable_types_never_match(self):
        # age vs string comparison must not blow up, just not match --
        # in either polarity.
        assert keep(f.GreaterThan("age", "not-a-number")) == []
        assert keep(f.Not(f.GreaterThan("age", "not-a-number"))) == []

    def test_references(self):
        composite = f.And(f.EqualTo("a", 1), f.Not(f.IsNull("b")))
        assert composite.references() == {"a", "b"}

    def test_conjunction_predicate_empty_accepts_all(self):
        assert keep() == ROWS

    def test_conjunction_predicate_ands(self):
        assert keep(f.EqualTo("city", "Rotterdam"), f.IsNotNull("age")) == [ROWS[0]]


class TestSerialization:
    SAMPLES = [
        f.EqualTo("a", 1),
        f.EqualTo("a", "text"),
        f.GreaterThan("a", 2.5),
        f.GreaterThanOrEqual("a", 0),
        f.LessThan("a", -1),
        f.LessThanOrEqual("a", 10),
        f.StringStartsWith("s", "pre"),
        f.StringEndsWith("s", "post"),
        f.StringContains("s", "mid"),
        f.In("a", [1, 2, 3]),
        f.IsNull("a"),
        f.IsNotNull("a"),
        f.LikePattern("s", "a%b_c"),
        f.And(f.EqualTo("a", 1), f.EqualTo("b", 2)),
        f.Or(f.IsNull("a"), f.Not(f.EqualTo("b", 0))),
    ]

    @pytest.mark.parametrize("original", SAMPLES, ids=lambda s: s.op)
    def test_dict_round_trip(self, original):
        assert filter_from_dict(original.to_dict()) == original

    def test_json_round_trip_list(self):
        text = filters_to_json(self.SAMPLES)
        restored = filters_from_json(text)
        assert restored == self.SAMPLES

    def test_json_payload_is_plain_json(self):
        payload = json.loads(filters_to_json([f.EqualTo("a", 1)]))
        assert payload == [{"op": "eq", "attr": "a", "value": 1}]

    def test_unknown_op_raises(self):
        with pytest.raises(SqlError):
            filter_from_dict({"op": "frobnicate", "attr": "a"})

    def test_non_list_payload_raises(self):
        with pytest.raises(SqlError):
            filters_from_json('{"op": "eq"}')

    @settings(max_examples=60, deadline=None)
    @given(
        attr=st.sampled_from(["name", "age", "city"]),
        value=st.one_of(
            st.integers(-100, 100),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=15),
        ),
        op_class=st.sampled_from(
            [
                f.EqualTo,
                f.GreaterThan,
                f.GreaterThanOrEqual,
                f.LessThan,
                f.LessThanOrEqual,
                f.StringStartsWith,
                f.StringContains,
            ]
        ),
    )
    def test_round_trip_preserves_semantics(self, attr, value, op_class):
        if op_class in (f.StringStartsWith, f.StringContains):
            value = str(value)
        original = op_class(attr, value)
        restored = filters_from_json(filters_to_json([original]))[0]
        assert keep(original) == keep(restored)
        assert keep(f.Not(original)) == keep(f.Not(restored))
