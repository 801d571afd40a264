"""A mini Apache Spark: RDDs, a task scheduler, Spark SQL's data sources.

The analytics half of Scoop.  Provides the pieces of Spark 1.6 the paper
builds on (Section III-A):

* :mod:`repro.spark.rdd` -- lazily evaluated, partitioned, lineage-
  tracked distributed collections with narrow dependencies (no
  shuffle: GROUP BY is :mod:`repro.sql.grouping`'s);
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
* :mod:`repro.spark.session` / :mod:`repro.spark.dataframe` -- SQL entry
  points (``session.sql(...)``) and DataFrame results.
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
