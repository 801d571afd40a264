"""The hash aggregate's table: a batch in, a group at a time.

One routine accumulates GROUP BY for the executor
(:func:`repro.sql.executor.execute_plan`) and for the
aggregating storlet and its compute-side twin
(:func:`repro.storlets.agg_storlet.tagged_partial_aggregate`).  Per
batch the rows are bucketed by group once -- the only per-row work --
and every accumulator then takes its group's inputs in one
:meth:`~repro.sql.functions.Accumulator.add_many` call, in row order.

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

from repro.columnar.batch import DictColumn, materialize, take_column
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
    (the storlet's spill-to-compute).  ``first_seen[key]`` is the
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
        self._new_group = new_group
        self._max_groups = max_groups

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
        for index, vector in enumerate(input_vectors):
            if vector is not None:
                vector = materialize(vector)
                if not whole:
                    vector = take_column(vector, order)
            start = 0
            for accumulators, positions in admitted:
                accumulator = accumulators[index]
                stop = start + len(positions)
                if vector is not None:
                    accumulator.add_many(vector[start:stop])
                elif accumulator.__class__ is CountAccumulator:
                    accumulator.merge(stop - start)  # COUNT(*) is the bucket size
                else:
                    accumulator.add_many([1] * (stop - start))
                start = stop
        spilled.sort()
        return spilled
