"""A mini Apache Spark: scan RDDs, a task scheduler, Spark SQL's data sources.

The analytics half of Scoop.  Provides the pieces of Spark 1.6 the paper
builds on (Section III-A), cut to what the query path runs.  Above the
connector one batch type moves, :class:`~repro.columnar.batch.ColumnBatch`
(a GROUP-BY pushdown scan hands on lists of partial-aggregation records
instead):

* :mod:`repro.spark.rdd` -- a scan's partitions, each computed lazily as
  a stream of batches (no transformation algebra or shuffle: GROUP BY
  is :mod:`repro.sql.grouping`'s);
* :mod:`repro.spark.scheduler` -- one streaming task runner on a
  bounded pool, round-robin worker placement, retry, per-task metrics;
* :mod:`repro.spark.datasources` -- the Data Sources API
  (``TableScan`` / ``PrunedScan`` / ``PrunedFilteredScan``), the contract
  Catalyst uses to offload projections and selections;
* :mod:`repro.spark.csv_source` -- the Spark-CSV relation, extended (as
  in the paper) to push projections/selections down to the object store;
* :mod:`repro.spark.columnar_source` -- the relation over RCF1, the
  encoded columnar format (read with ``pushdown=False`` it is the
  Parquet-like baseline of the Fig. 8 comparison);
* :mod:`repro.spark.binary_source` -- SQL over binary objects' metadata;
* :mod:`repro.spark.session` / :mod:`repro.spark.dataframe` -- the SQL
  entry point (``session.sql(...)``; a relation becomes a table through
  ``session.register_table``) and DataFrame results.
"""

from repro.spark.dataframe import DataFrame
from repro.spark.datasources import (
    BaseRelation,
    PrunedFilteredScan,
    PrunedScan,
    TableScan,
)
from repro.spark.rdd import RDD
from repro.spark.scheduler import SparkContext, TaskMetrics
from repro.spark.session import SparkSession

__all__ = [
    "BaseRelation",
    "DataFrame",
    "PrunedFilteredScan",
    "PrunedScan",
    "RDD",
    "SparkContext",
    "SparkSession",
    "TableScan",
    "TaskMetrics",
]
