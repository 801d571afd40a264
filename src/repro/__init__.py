"""Scoop: boosting analytics data ingestion from object stores.

A from-scratch Python reproduction of "Too Big to Eat: Boosting
Analytics Data Ingestion from Object Stores with Scoop" (ICDE 2017):
a Swift-like object store with an active storage (storlet) layer, a
mini Spark SQL stack with the Data Sources API, the Scoop pushdown
machinery connecting the two, the GridPocket IoT workload, and a
performance model that reproduces every table and figure of the
paper's evaluation.

Quickstart::

    from repro import ScoopContext
    from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset

    ctx = ScoopContext()
    upload_dataset(ctx.client, "meters", DatasetSpec(meters=50))
    ctx.register_csv_table("largeMeter", "meters", schema=METER_SCHEMA)
    frame, report = ctx.run_query(
        "SELECT vid, sum(index) as total FROM largeMeter "
        "WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid"
    )
    print(frame.show(), report.data_selectivity)
"""

from repro.core import AnalyticsDelegator, PushdownTask, ScoopContext
from repro.spark import SparkContext, SparkSession
from repro.sql import Schema
from repro.swift import SwiftClient, SwiftCluster

__version__ = "1.0.0"

__all__ = [
    "AnalyticsDelegator",
    "PushdownTask",
    "Schema",
    "ScoopContext",
    "SparkContext",
    "SparkSession",
    "SwiftClient",
    "SwiftCluster",
    "__version__",
]
