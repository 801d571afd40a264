"""The hash aggregate's table: a batch in, a group at a time.

One routine accumulates GROUP BY for the executor
(:func:`repro.sql.executor.execute_plan`) and for the partial
aggregation GROUP-BY pushdown runs at the store and in its compute-side
fallback (:func:`repro.storlets.aggregation.partial_aggregate`).  Per
batch the rows are bucketed by group once -- the only per-row work --
and every accumulator then takes its group's inputs in one
:meth:`~repro.sql.functions.Accumulator.add_many` call, in row order.
Under GROUP-BY pushdown the executor's table is filled from the
stage's records instead (:meth:`GroupTable.add_records`): their states
merge into the same accumulators.

A packed column (:class:`~repro.columnar.batch.PackedColumn`, an RCF1
carrier) is fed where it stands when the accumulator reading it can
reduce its raw offsets (``Accumulator.offset_kinds``, settled once per
table): the offsets are gathered in group order and MIN / MAX take one
``min`` / ``max`` over a group's offsets and unpack that one cell,
COUNT takes their number and SUM / AVG over an int column add
``sum(offsets) + base * n``.  That is exact: a carrier holds no NULL,
an int cell is ``base + offset`` and a decimal cell
``(base + offset) / 10**e`` never falls as its offset grows, so the
least offset is the least cell (and neither holds NaN or -0.0).  A
float64 view, SUM / AVG of decimals (summed as the floats they are),
DISTINCT and every other aggregate read cells, and each input is
counted by how it was read (:attr:`GroupTable.inputs`).

Keys stay as they arrive.  A lone dictionary-coded key column
(:class:`~repro.columnar.batch.DictColumn`) is bucketed by its *codes*:
entries are hashed once each to fold equal ones (a kernel such as
``SUBSTRING`` maps entries and may make them repeat) and a key is
decoded once per group; any other key list is zipped and hashed row by
row.  Either way a group's key is the key of its first
row, groups are met in first-row order, and equality is the ``dict``'s,
so the table ends in the state the row-at-a-time loop would leave.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.columnar.batch import DictColumn, PackedColumn, materialize, take_column
from repro.sql.functions import Accumulator, CountAccumulator

Key = Tuple[Any, ...]


def _folded_codes(column: DictColumn) -> bytes:
    """``column.codes`` with the code of every entry that equals an
    earlier one replaced by that earlier code."""
    first: Dict[Any, int] = {}
    table = bytes(first.setdefault(entry, code) for code, entry in enumerate(column.entries))
    if len(first) == len(table):
        return column.codes
    return column.codes.translate(table.ljust(256, b"\0"))


def _buckets(key_vectors: Sequence[Sequence[Any]], n: int) -> Iterable[Sequence[int]]:
    """The row positions of each group of a batch, groups in first-row
    order and positions ascending."""
    if not key_vectors:
        return [range(n)]
    if len(key_vectors) > 1:
        ids: Iterable[Any] = zip(*key_vectors)
    elif isinstance(key_vectors[0], DictColumn):
        ids = _folded_codes(key_vectors[0])
    else:
        ids = key_vectors[0]
    positions: Dict[Any, List[int]] = {}
    for position, group in enumerate(ids):
        try:
            positions[group].append(position)
        except KeyError:
            positions[group] = [position]
    return positions.values()


class GroupTable:
    """Accumulators per group key, groups in first-seen order.

    ``new_group`` makes one group's fresh accumulator list.  With
    ``max_groups`` the table is bounded: a key first met while the table
    is full is not admitted and :meth:`add_batch` hands its rows back
    (partial aggregation ships each of them alone).  ``first_seen[key]`` is the
    ordinal, over every row fed so far, of the row that created the
    group.
    """

    def __init__(
        self,
        new_group: Callable[[], List[Accumulator]],
        max_groups: Optional[int] = None,
    ):
        self.groups: Dict[Key, List[Accumulator]] = {}
        self.first_seen: Dict[Key, int] = {}
        self.rows = 0
        #: Aggregate inputs fed so far, by how they were read: ``offsets``
        #: (a packed column reduced on its raw offsets) or
        #: ``materialized`` (as cells).
        self.inputs: Dict[str, int] = {"offsets": 0, "materialized": 0}
        self._new_group = new_group
        self._max_groups = max_groups
        # Which packed column kinds each aggregate reduces on offsets.
        self._offset_kinds = [accumulator.offset_kinds for accumulator in new_group()]

    def add_batch(
        self,
        key_vectors: Sequence[Sequence[Any]],
        input_vectors: Sequence[Optional[Sequence[Any]]],
        n: int,
    ) -> List[int]:
        """Accumulate ``n`` rows; returns the positions, ascending, of
        the rows whose group was not admitted.

        ``input_vectors[j]`` feeds aggregate ``j``; ``None`` stands for
        ``*``: a one per row.
        """
        groups = self.groups
        admitted: List[Tuple[List[Accumulator], Sequence[int]]] = []
        spilled: List[int] = []
        for positions in _buckets(key_vectors, n):
            first = positions[0]
            key = tuple(vector[first] for vector in key_vectors)
            accumulators = groups.get(key)
            if accumulators is None:
                if self._max_groups is not None and len(groups) >= self._max_groups:
                    spilled.extend(positions)
                    continue
                accumulators = groups[key] = self._new_group()
                self.first_seen[key] = self.rows + first
            admitted.append((accumulators, positions))
        self.rows += n

        whole = len(admitted) == 1 and not spilled
        if not whole:
            # One gather per input vector, group after group; a group's
            # inputs are then a slice of it.
            order = list(
                itertools.chain.from_iterable(positions for _, positions in admitted)
            )
        for index, column in enumerate(input_vectors):
            offsets = (
                column.__class__ is PackedColumn and column.kind in self._offset_kinds[index]
            )
            cells = None
            if column is not None:
                self.inputs["offsets" if offsets else "materialized"] += 1
                cells = column.view if offsets else materialize(column)
                if not whole:
                    cells = take_column(cells, order)
                elif offsets:
                    cells = cells.tolist()
            start = 0
            for accumulators, positions in admitted:
                accumulator = accumulators[index]
                stop = start + len(positions)
                if offsets:
                    accumulator.add_offsets(cells[start:stop], column)
                elif cells is not None:
                    accumulator.add_many(cells[start:stop])
                elif accumulator.__class__ is CountAccumulator:
                    accumulator.merge(stop - start)  # COUNT(*) is the bucket size
                else:
                    accumulator.add_many([1] * (stop - start))
                start = stop
        spilled.sort()
        return spilled

    def add_records(self, records: Iterable[Sequence[Any]]) -> None:
        """Fill the table from a GROUP-BY pushdown scan's records
        (:class:`~repro.spark.store_source.AggregationScanRDD`): each
        ``(split, ordinal, key, states)`` merges state ``j`` into the
        group's accumulator ``j``.

        The groups end in the order of their creation points, the
        ``(split, ordinal)`` of the row that created each: first-seen
        order over the partitions concatenated, as :meth:`add_batch`
        over the rows themselves leaves it.  Records arrive in partition
        order, and within a partition a key is one record or one record
        per spilled row in ordinal order, so a key's first record
        carries its creation point -- and every accumulator merges in
        row order.
        """
        created: Dict[Key, Tuple[int, int]] = {}
        for split, ordinal, key, states in records:
            key = tuple(key)
            accumulators = self.groups.get(key)
            if accumulators is None:
                accumulators = self.groups[key] = self._new_group()
                created[key] = (split, ordinal)
            for accumulator, state in zip(accumulators, states):
                accumulator.merge(state)
        self.groups = {
            key: self.groups[key] for key in sorted(self.groups, key=created.__getitem__)
        }
