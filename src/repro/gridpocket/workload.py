"""Synthetic selectivity-controlled queries and selectivity measurement.

"We executed synthetic queries on GridPocket datasets with controlled
fractions of data selectivity.  In particular, we executed specific
experiments to analyze the impact of row, column and mixed data
selectivity" (paper Section VI).  The generator's uniform ``code``
column gives exact row-selectivity control; column selectivity is
controlled by choosing a projection whose byte share of a row matches
the target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.gridpocket.generator import METER_SCHEMA, DatasetSpec, MeterDataGenerator
from repro.sql.catalyst import extract_pushdown
from repro.sql.kernels import FilterMask
from repro.sql.parser import parse_query
from repro.sql.types import Row, Schema


def synthetic_query(
    row_selectivity: float = 0.0,
    columns: Optional[Sequence[str]] = None,
    table: str = "largeMeter",
) -> str:
    """A query discarding ``row_selectivity`` of rows and projecting
    ``columns`` (all when None).

    Row selectivity uses the uniform ``code`` column: keeping rows with
    ``code < (1 - r) * 10000`` discards exactly fraction ``r`` in
    expectation.
    """
    if not 0.0 <= row_selectivity <= 1.0:
        raise ValueError(f"row_selectivity must be in [0, 1]: {row_selectivity}")
    selected = ", ".join(columns) if columns else "*"
    sql = f"SELECT {selected} FROM {table}"
    if row_selectivity > 0.0:
        threshold = int(round((1.0 - row_selectivity) * 10000))
        sql += f" WHERE code < {threshold}"
    return sql


def column_byte_weights(
    spec: Optional[DatasetSpec] = None, sample_rows: int = 500
) -> Dict[str, float]:
    """Mean byte share of each column in rendered CSV rows."""
    generator = MeterDataGenerator(spec or DatasetSpec(meters=20, intervals=30))
    totals = {name: 0 for name in METER_SCHEMA.names}
    sampled = 0
    for row in generator.rows():
        rendered = METER_SCHEMA.render_row(row)
        for name, text in zip(METER_SCHEMA.names, rendered):
            totals[name] += len(text) + 1  # +1 for the delimiter/newline
        sampled += 1
        if sampled >= sample_rows:
            break
    grand_total = sum(totals.values())
    return {name: count / grand_total for name, count in totals.items()}


def columns_for_byte_fraction(
    target_fraction: float,
    weights: Optional[Dict[str, float]] = None,
    mandatory: Sequence[str] = ("vid",),
) -> List[str]:
    """A projection keeping roughly ``target_fraction`` of row bytes.

    Greedy: start from the mandatory columns, add the column that brings
    the kept fraction closest to the target until no addition improves.
    """
    if weights is None:
        weights = column_byte_weights()
    chosen = list(mandatory)
    kept = sum(weights[name] for name in chosen)
    remaining = [name for name in METER_SCHEMA.names if name not in chosen]
    while remaining:
        best = min(
            remaining, key=lambda name: abs(kept + weights[name] - target_fraction)
        )
        if abs(kept + weights[best] - target_fraction) >= abs(
            kept - target_fraction
        ):
            break
        chosen.append(best)
        kept += weights[best]
        remaining.remove(best)
    # Preserve schema order for a well-formed projection.
    return [name for name in METER_SCHEMA.names if name in chosen]


@dataclass
class SelectivityMeasurement:
    """Measured (not estimated) selectivity of a query on a sample."""

    rows_total: int
    rows_kept: int
    bytes_total: int
    bytes_kept: int

    @property
    def row_selectivity(self) -> float:
        if self.rows_total == 0:
            return 0.0
        return 1.0 - self.rows_kept / self.rows_total

    @property
    def data_selectivity(self) -> float:
        if self.bytes_total == 0:
            return 0.0
        return 1.0 - self.bytes_kept / self.bytes_total

    @property
    def column_selectivity(self) -> float:
        """Byte fraction of the discarded columns (on kept rows)."""
        if self.rows_kept == 0 or self.bytes_total == 0:
            return 0.0
        full_share = self.rows_kept / self.rows_total
        if full_share == 0:
            return 0.0
        kept_fraction = (self.bytes_kept / self.bytes_total) / full_share
        return max(0.0, 1.0 - kept_fraction)


def measure_query_selectivity(
    sql: str,
    schema: Schema = METER_SCHEMA,
    rows: Optional[Sequence[Row]] = None,
    spec: Optional[DatasetSpec] = None,
) -> SelectivityMeasurement:
    """Apply a query's pushdown spec to sample rows, counting bytes.

    This is the functional ground truth behind every selectivity number
    in the experiment harness: the *actual* filters and projection that
    Catalyst would push down are evaluated over real generated rows.
    """
    return measure_selectivities([sql], schema, rows, spec)[0]


def measure_selectivities(
    sqls: Sequence[str],
    schema: Schema = METER_SCHEMA,
    rows: Optional[Sequence[Row]] = None,
    spec: Optional[DatasetSpec] = None,
) -> List[SelectivityMeasurement]:
    """:func:`measure_query_selectivity` of several queries over one sample.

    A row's bytes are its rendered CSV cells plus one delimiter (or the
    newline) each.  The cells are rendered once per sample, column by
    column, and every query sums the widths of the rows it keeps.
    """
    if rows is None:
        generator = MeterDataGenerator(
            spec or DatasetSpec(meters=50, intervals=144)
        )
        rows = list(generator.rows())
    columns = list(zip(*rows)) or [()] * len(schema)
    widths = [
        [len(text) + 1 for text in map(f.dtype.render, column)]
        for f, column in zip(schema.fields, columns)
    ]
    bytes_total = sum(map(sum, widths))
    measurements = []
    for sql in sqls:
        pushdown = extract_pushdown(parse_query(sql), schema)
        mask = FilterMask(pushdown.filters, schema).mask(columns, len(rows))
        kept = list(itertools.compress(range(len(rows)), mask))
        bytes_kept = sum(
            widths[schema.index_of(name)][position]
            for name in pushdown.required_columns
            for position in kept
        )
        measurements.append(
            SelectivityMeasurement(len(rows), len(kept), bytes_total, bytes_kept)
        )
    return measurements
