"""Independent oracle for the three hotpath queries.

Expected results are computed once, in plain Python, from the typed rows
the generator yields -- no SQL parser, executor, Spark layer or columnar
decoder is involved, so a bug shared by those layers cannot hide here.
Column positions are hard-coded for the GridPocket layout on purpose:
looking them up through ``repro.sql.types.Schema`` would share code with
the program under test.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

QUERY_NAMES = ("q_selective", "q_half", "q_groupby")

#: Float cells are compared at this relative tolerance: the program sums
#: sequentially in scan order, the oracle sums exactly (``math.fsum``).
REL_TOL = 1e-9

_VID, _DATE, _INDEX, _CODE, _CITY = 0, 1, 2, 5, 6


class Oracle:
    """Expected rows of each query over one generated corpus."""

    def __init__(self, rows: Iterable[tuple]):
        consumption: Dict[Tuple[str, str], List[float]] = {}
        half: List[tuple] = []
        cities: Dict[str, List[int]] = {}
        self.row_count = 0
        for row in rows:
            self.row_count += 1
            date = row[_DATE]
            # city LIKE 'Rotterdam' has no wildcard: plain equality.
            if row[_CITY] == "Rotterdam" and date.startswith("2015-01-"):
                # SUBSTRING(date, 0, 10) follows Spark: position 0 acts
                # like 1, so it is the first ten characters (the day).
                consumption.setdefault((date[:10], row[_VID]), []).append(
                    row[_INDEX]
                )
            if row[_CODE] < 5000:
                half.append((row[_VID], date, row[_INDEX]))
            group = cities.setdefault(row[_CITY], [0, row[_CODE]])
            group[0] += 1
            group[1] = max(group[1], row[_CODE])
        self.expected: Dict[str, List[tuple]] = {
            # SELECT sDate, sum(index), vid ... ORDER BY sDate, vid
            "q_selective": [
                (day, math.fsum(values), vid)
                for (day, vid), values in sorted(consumption.items())
            ],
            # No ORDER BY: SQL leaves the order open, so compare as a
            # multiset ((vid, date) is unique, sorting is total).
            "q_half": sorted(half),
            # SELECT city, count(*), max(code) ... ORDER BY city
            "q_groupby": [
                (city, count, top)
                for city, (count, top) in sorted(cities.items())
            ],
        }

    def matches(self, query: str, actual: Sequence[tuple]) -> bool:
        """True when ``actual`` is the expected result of ``query``."""
        expected = self.expected[query]
        if query == "q_half":
            actual = sorted(actual)
        if len(actual) != len(expected):
            return False
        return all(
            len(got) == len(want) and all(map(_same_cell, got, want))
            for got, want in zip(actual, expected)
        )


def _same_cell(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, (int, float)) and math.isclose(
            got, want, rel_tol=REL_TOL
        )
    return got == want
