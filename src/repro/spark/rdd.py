"""Resilient Distributed Datasets, cut to what a scan needs: partitions.

An RDD here is a partition count and ``compute_batches(split)``, the
stream of one partition's batches -- ``ColumnBatch``es for every table
scan, lists of records for a GROUP-BY pushdown scan.  There is no
transformation algebra, lineage or shuffle: a query's only job is its
scan, the scheduler (``SparkContext.iter_batches``) runs one task per
partition, and everything above the scan is the SQL executor's.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sized


class RDD:
    """A partitioned, lazily computed stream of batches."""

    _ids = itertools.count()

    def __init__(self, context):
        self.id = next(RDD._ids)
        self.context = context
        self.name = type(self).__name__

    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute_batches(self, split: int) -> Iterator[Sized]:
        """One partition's batches, pulled one at a time by its task
        (which is what lets a satisfied LIMIT stop the scan, and the
        underlying GET, mid-partition).  A batch is counted with
        ``len`` and cut with ``batch[start:]``; computing a partition
        twice must yield the same rows, however they are cut."""
        raise NotImplementedError
