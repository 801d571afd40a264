"""The Spark SQL Data Sources API.

"The simplest flavor is called Scan ... A more complex flavor is the
PrunedScan API which takes a selection filter as a parameter ... the
PrunedFilteredScan API flavor takes both a projection and selection
filters" (paper Section V-A; the paper's prose swaps the two parameter
descriptions -- the actual Spark contract, which we follow, is:
PrunedScan takes required columns, PrunedFilteredScan takes required
columns *and* filters).

A relation advertises the richest flavor it implements; the session's
planner calls the best one Catalyst's extraction can feed.  Which
predicates the planner still evaluates upstream is the relation's to
say (``unhandled_filters``, as in Spark): by default all of them, and
only a filter the relation answers for *exactly* leaves the plan -- and
with it any column nothing else reads.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sql.catalyst import count_column
from repro.sql.filters import Filter
from repro.sql.types import Schema
from repro.spark.rdd import RDD


class BaseRelation:
    """A collection of structured data known to Spark SQL."""

    def schema(self) -> Schema:
        raise NotImplementedError

    def unhandled_filters(self, filters: Sequence[Filter]) -> List[Filter]:
        """The filters the planner must re-apply over this relation's
        rows.  Default (Spark's own): every one.  A relation omits a
        filter only if its scan returns *exactly* the rows the filter
        accepts, on every path it can take."""
        return list(filters)

    def count_column(self, filters: Sequence[Filter]) -> str:
        """The column a scan ships when the query reads none
        (``count(*)``): the cheapest the relation can tell."""
        return count_column(self.schema(), filters)


class TableScan(BaseRelation):
    """Flavor 1: return everything."""

    def build_scan(self) -> RDD:
        raise NotImplementedError


class PrunedScan(BaseRelation):
    """Flavor 2: return only the required columns."""

    def build_scan_pruned(self, required_columns: Sequence[str]) -> RDD:
        raise NotImplementedError


class PrunedFilteredScan(BaseRelation):
    """Flavor 3: return required columns of rows passing the filters.

    The relation may apply the filters *best-effort*: it must not drop a
    row any filter accepts, but may return rows that fail them -- the
    planner re-evaluates upstream every predicate ``unhandled_filters``
    does not vouch for.
    """

    def build_scan_filtered(
        self, required_columns: Sequence[str], filters: Sequence[Filter]
    ) -> RDD:
        raise NotImplementedError
