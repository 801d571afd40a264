"""A scan stand-in for the scheduler's tests.

:class:`FakeRDD` computes partitions the way a scan RDD does -- a
stream of ``ColumnBatch``es, or of lists of records for a GROUP-BY
pushdown scan -- from rows held in memory, with a hook where a test
makes an attempt fail, block or meet other tasks.  The scheduler sees
nothing but ``num_partitions``, ``compute_batches``, ``len`` and
``batch[start:]``.
"""

from __future__ import annotations

from collections import Counter

from repro.columnar.batch import ColumnBatch
from repro.spark.rdd import RDD
from repro.sql.types import Schema

SCHEMA = Schema.of("i:int")


def column_batch(values):
    """The rows ``(v,)`` of ``values`` as one ``ColumnBatch`` of :data:`SCHEMA`."""
    return ColumnBatch(SCHEMA, [list(values)], len(values))


def rows_of(batches):
    """The rows of a stream of ``ColumnBatch``es (or record lists)."""
    return [row for batch in batches for row in batch]


class FakeRDD(RDD):
    """Partition ``p`` yields the values of ``partitions[p]``.

    Attempt ``a`` (1-based, counted per partition) cuts them into batches
    of the sizes ``cut(a)`` -- an int ``cut`` is every attempt's batch
    size -- each made by ``carrier(values)``.  ``hook(split, attempt,
    done)`` runs before each batch and after the last, ``done`` being the
    values yielded so far in this attempt: it may raise, to fail the
    attempt there, or block.
    """

    def __init__(self, context, partitions, cut=4, carrier=column_batch, hook=None):
        super().__init__(context)
        self.name = "Fake"
        self.partitions = [list(values) for values in partitions]
        self.cut = cut
        self.carrier = carrier
        self.hook = hook
        self.attempts = Counter()

    def num_partitions(self):
        return len(self.partitions)

    def _sizes(self, values, attempt):
        if callable(self.cut):
            return self.cut(attempt)
        return [self.cut] * -(-len(values) // self.cut)

    def compute_batches(self, split):
        self.attempts[split] += 1
        attempt = self.attempts[split]
        values = self.partitions[split]
        done = 0
        for size in self._sizes(values, attempt):
            if self.hook is not None:
                self.hook(split, attempt, done)
            chunk = values[done : done + size]
            if not chunk:
                break
            yield self.carrier(chunk)
            done += len(chunk)
        if self.hook is not None:
            self.hook(split, attempt, done)


def split_evenly(values, partitions):
    """``values`` cut into ``partitions`` contiguous parts."""
    size = len(values)
    return [
        values[index * size // partitions : (index + 1) * size // partitions]
        for index in range(partitions)
    ]
