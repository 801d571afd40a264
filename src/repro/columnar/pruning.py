"""Stripe pruning: skip stripes whose footer stats refute the filters.

The footer records min/max/null-count (plus a has-NaN flag) per column
segment.  Before a reader fetches a stripe's segments it asks whether
the pushdown filter conjunction could possibly match any row in the
stripe; a ``False`` answer skips the stripe's byte ranges entirely.

The refutation itself lives in :mod:`repro.columnar.stats` and is
shared with the object-level data-skipping catalog
(:mod:`repro.catalog`); this module only adapts footer
:class:`~repro.columnar.layout.SegmentMeta` entries into
:class:`~repro.columnar.stats.ColumnStats` evidence.  The analysis is
*conservative* in the same direction as filter evaluation itself
(:class:`repro.sql.kernels.FilterMask`): it may answer ``True`` for a stripe with no
matching rows, but never ``False`` for one that has them.  Bounds that
are absent, non-finite (stale footers from a pre-fix encoder), or
flagged incomplete by ``has_nan`` refute nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.columnar.layout import StripeMeta
from repro.columnar.stats import ColumnStats, filters_may_match
from repro.sql.filters import Filter
from repro.sql.types import Schema


def stripe_may_match(
    stripe: StripeMeta, filters: Sequence[Filter], schema: Schema
) -> bool:
    """Whether any row of the stripe could satisfy every filter."""
    if stripe.rows == 0:
        return False

    def resolve(attribute: str) -> Optional[ColumnStats]:
        try:
            segment = stripe.columns[schema.index_of(attribute)]
        except Exception:
            return None
        return ColumnStats(
            rows=stripe.rows,
            nulls=segment.nulls,
            min_value=segment.min_value,
            max_value=segment.max_value,
            has_nan=segment.has_nan,
        )

    return filters_may_match(filters, resolve)
