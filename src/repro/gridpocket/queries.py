"""The seven real GridPocket queries of Table I.

Each entry carries the SQL exactly as the paper lists it (modulo the
table name, parameterized so tests can point it at any registered view)
plus the selectivity percentages the paper reports -- the reference
values our Table-I reproduction compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class GridPocketQuery:
    name: str
    description: str
    sql_template: str
    #: Paper-reported selectivities (percent of data discarded).
    paper_column_selectivity: float = 0.0
    paper_row_selectivity: float = 0.0
    paper_data_selectivity: float = 0.0

    def sql(self, table: str = "largeMeter") -> str:
        return self.sql_template.format(table=table)


GRIDPOCKET_QUERIES: List[GridPocketQuery] = [
    GridPocketQuery(
        name="ShowMapCons",
        description=(
            "Per-meter aggregated consumption for a heatmap or per-state "
            "aggregated display."
        ),
        sql_template=(
            "SELECT vid, sum(index) as max, first_value(lat) as lat, "
            "first_value(long) as long, first_value(state) as state "
            "FROM {table} WHERE date LIKE '2015-01%' "
            "GROUP BY SUBSTRING(date, 0, 7), vid "
            "ORDER BY SUBSTRING(date, 0, 7), vid"
        ),
        paper_column_selectivity=92.00,
        paper_row_selectivity=99.62,
        paper_data_selectivity=99.97,
    ),
    GridPocketQuery(
        name="ShowMapMeter",
        description=(
            "Each meter with its info (city, id, ...) for a cluster map."
        ),
        sql_template=(
            "SELECT vid, sum(index) as max, first_value(city) as city, "
            "first_value(lat) as lat, first_value(long) as long, "
            "first_value(state) as state "
            "FROM {table} WHERE date LIKE '2015-01%' "
            "GROUP BY SUBSTRING(date, 0, 7), vid "
            "ORDER BY SUBSTRING(date, 0, 7), vid"
        ),
        paper_column_selectivity=92.00,
        paper_row_selectivity=99.54,
        paper_data_selectivity=99.97,
    ),
    GridPocketQuery(
        name="ShowMapHeatmonth",
        description=(
            "Daily data for a given month, for a per-day slider display."
        ),
        sql_template=(
            "SELECT SUBSTRING(date, 0, 10) as sDate, sum(index) as max, "
            "first_value(lat) as lat, first_value(long) as long "
            "FROM {table} WHERE date LIKE '2015-01%' "
            "GROUP BY SUBSTRING(date, 0, 10), vid "
            "ORDER BY SUBSTRING(date, 0, 10), vid"
        ),
        paper_column_selectivity=92.00,
        paper_row_selectivity=99.54,
        paper_data_selectivity=99.96,
    ),
    GridPocketQuery(
        name="Showgraphcons",
        description="Consumption of Rotterdam meters for January 2015.",
        sql_template=(
            "SELECT SUBSTRING(date, 0, 10) as sDate, sum(index) as max, vid "
            "FROM {table} WHERE city LIKE 'Rotterdam' "
            "AND date LIKE '2015-01-%' "
            "GROUP BY SUBSTRING(date, 0, 10), vid "
            "ORDER BY SUBSTRING(date, 0, 10), vid"
        ),
        paper_column_selectivity=99.99,
        paper_row_selectivity=99.55,
        paper_data_selectivity=99.99,
    ),
    GridPocketQuery(
        name="ShowPiemonth",
        description="Consumption for a specific subset of states.",
        sql_template=(
            "SELECT SUBSTRING(date, 0, 10) as sDate, state as vid, "
            "sum(index) as max "
            "FROM {table} WHERE state LIKE 'U%' AND date LIKE '2015-01-%' "
            "GROUP BY SUBSTRING(date, 0, 10), state "
            "ORDER BY SUBSTRING(date, 0, 10), state"
        ),
        paper_column_selectivity=99.99,
        paper_row_selectivity=99.99,
        paper_data_selectivity=99.99,
    ),
    GridPocketQuery(
        name="ShowGraphHCHP",
        description="Peak versus off-peak hour consumption.",
        sql_template=(
            "SELECT SUBSTRING(date, 0, 10) as sDate, vid, "
            "min(sumHC) as minHC, max(sumHC) as maxHC, "
            "min(sumHP) as minHP, max(sumHP) as maxHP "
            "FROM {table} WHERE state LIKE 'FRA' AND date LIKE '2015-01-%' "
            "GROUP BY SUBSTRING(date, 0, 10), vid "
            "ORDER BY SUBSTRING(date, 0, 10), vid"
        ),
        paper_column_selectivity=99.99,
        paper_row_selectivity=99.94,
        paper_data_selectivity=99.99,
    ),
    GridPocketQuery(
        name="Showday",
        description=(
            "Consumption of any specified hour of a given month."
        ),
        sql_template=(
            "SELECT SUBSTRING(date, 0, 13) as sDate, sum(index) as max, vid "
            "FROM {table} WHERE city LIKE 'Rotterdam' "
            "AND date LIKE '2015-01-%' "
            "GROUP BY SUBSTRING(date, 0, 13), vid "
            "ORDER BY SUBSTRING(date, 0, 13), vid"
        ),
        paper_column_selectivity=99.99,
        paper_row_selectivity=99.99,
        paper_data_selectivity=99.99,
    ),
]


def query_by_name(name: str) -> GridPocketQuery:
    for query in GRIDPOCKET_QUERIES:
        if query.name.lower() == name.lower():
            return query
    raise KeyError(
        f"unknown GridPocket query {name!r}; "
        f"known: {[q.name for q in GRIDPOCKET_QUERIES]}"
    )
