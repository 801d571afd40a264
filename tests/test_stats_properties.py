"""Property tests for the shared conservative refutation logic.

One soundness contract backs both pruning tiers (stripe pruning inside
an RCF1 object and the object-level data-skipping catalog): a stripe or
object containing at least one row that satisfies the filter conjunction
is NEVER refuted.  The row-level truth is
:class:`repro.sql.kernels.FilterMask` -- exactly what every scan runs
over the surviving splits, held here to the per-row reference
``tests.row_at_a_time.filter_judge`` -- so these properties are the
end-to-end byte-identity argument in miniature: anything the stats
analysis drops, the scan would have dropped anyway.
"""

import itertools
import math

from hypothesis import example, given, settings, strategies as st

from repro.catalog import CatalogBuilder, decode_catalog
from repro.columnar.layout import decode_footer, encode_columnar
from repro.columnar.pruning import stripe_may_match
from repro.sql.filters import (
    And,
    EqualTo,
    GreaterThan,
    GreaterThanOrEqual,
    In,
    IsNotNull,
    IsNull,
    LessThan,
    LessThanOrEqual,
    LikePattern,
    Not,
    Or,
    StringStartsWith,
)
from repro.sql.types import Schema

from tests.row_at_a_time import filter_judge, shipped_mask

SCHEMA = Schema.of("a:float", "b:int", "c")

# Small pools so generated constants actually collide with generated
# data -- otherwise every filter is vacuously selective and the "stripe
# has a matching row" branch never exercises.
FLOATS = st.one_of(
    st.sampled_from([0.0, 1.5, -2.5, 3.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(min_value=-10, max_value=10),
)
INTS = st.integers(min_value=-5, max_value=5)
TEXTS = st.text(alphabet="abz%_", max_size=4)

ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), FLOATS),
        st.one_of(st.none(), INTS),
        st.one_of(st.none(), TEXTS),
    ),
    min_size=0,
    max_size=30,
)

_ATTR = st.sampled_from(["a", "b", "c"])
_SCALAR = st.one_of(FLOATS, INTS, TEXTS)


def _leaf(attribute, kind, value, members):
    if kind == "null":
        return IsNull(attribute)
    if kind == "notnull":
        return IsNotNull(attribute)
    if kind == "in":
        return In(attribute, members)
    if kind == "starts":
        return StringStartsWith(attribute, str(value))
    if kind == "like":
        return LikePattern(attribute, str(value))
    cls = {
        "eq": EqualTo,
        "gt": GreaterThan,
        "gte": GreaterThanOrEqual,
        "lt": LessThan,
        "lte": LessThanOrEqual,
    }[kind]
    return cls(attribute, value)


LEAVES = st.builds(
    _leaf,
    _ATTR,
    st.sampled_from(
        ["eq", "gt", "gte", "lt", "lte", "in", "null", "notnull", "starts", "like"]
    ),
    _SCALAR,
    st.lists(_SCALAR, min_size=1, max_size=3),
)

FILTERS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=6,
)

CONJUNCTION = st.lists(FILTERS, min_size=1, max_size=3)


def _catalog_of(rows):
    builder = CatalogBuilder(SCHEMA)
    if rows:
        builder.add_columns(list(zip(*rows)))
    return builder


def _matching_rows(rows, filters):
    mask = shipped_mask(filters, SCHEMA, rows)
    assert mask == bytes(map(filter_judge(filters, SCHEMA), rows)), filters
    return list(itertools.compress(rows, mask))


@settings(max_examples=120, deadline=None)
@given(rows=ROWS, filters=CONJUNCTION, stripe_rows=st.integers(1, 12))
def test_stripe_with_matching_row_is_never_refuted(rows, filters, stripe_rows):
    """Random data x random stripe boundaries x random filter trees."""
    if not rows:
        return
    footer = decode_footer(encode_columnar(SCHEMA, rows, stripe_rows=stripe_rows))
    for number, stripe in enumerate(footer.stripes):
        start = number * stripe_rows
        chunk = rows[start : start + stripe.rows]
        if _matching_rows(chunk, filters):
            assert stripe_may_match(stripe, filters, SCHEMA), (chunk, filters)


@settings(max_examples=120, deadline=None)
@given(rows=ROWS, filters=CONJUNCTION)
# -0.0 == 0.0: both must hash to one bloom key.
@example(rows=[(-0.0, None, None)], filters=[EqualTo("a", 0.0)])
def test_catalog_with_matching_row_is_never_refuted(rows, filters):
    """Build -> metadata -> decode -> may_match round trip is sound."""
    builder = _catalog_of(rows)
    catalog = decode_catalog(builder.to_metadata())
    assert catalog is not None, "self-built catalog must decode"
    assert catalog.rows == len(rows)
    if _matching_rows(rows, filters):
        assert catalog.may_match(filters), filters


@settings(max_examples=60, deadline=None)
@given(rows=ROWS)
def test_catalog_metadata_is_strict_json(rows):
    """The persisted header never carries NaN/Infinity literals."""
    import json

    builder = _catalog_of(rows)
    for value in builder.to_metadata().values():
        decoded = json.loads(
            value,
            parse_constant=lambda name: (_ for _ in ()).throw(
                AssertionError(f"non-standard literal {name}")
            ),
        )
        assert decoded["rows"] == len(rows)


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, filters=CONJUNCTION, stripe_rows=st.integers(1, 12))
def test_footer_stats_match_stripe_slices(rows, filters, stripe_rows):
    """Footer bounds are finite and consistent with the rows they cover."""
    if not rows:
        return
    footer = decode_footer(encode_columnar(SCHEMA, rows, stripe_rows=stripe_rows))
    total = 0
    for stripe in footer.stripes:
        total += stripe.rows
        for segment in stripe.columns:
            for bound in (segment.min_value, segment.max_value):
                if isinstance(bound, float):
                    assert math.isfinite(bound)
    assert total == len(rows)
