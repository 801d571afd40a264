"""Record-aligned split planning for CSV objects.

Hadoop-style partitioning cuts an object at every multiple of the chunk
size.  Here the cut moves to a record start instead: for each chunk
grid point a split starts at the first quote-aware record start at or
after it.  Grid points that land on the same record start merge, and
a grid point after which no record starts -- inside the object's last
record, or inside a quote that never closes -- adds no split.  A CSV
split is therefore exactly its records: it starts at a record start,
ends where the next split starts, and no reader decides which records
it owns.
"""

from __future__ import annotations

from typing import List

from repro.csvscan import find_record_end


def plan_split_starts(data: bytes, chunk_size: int) -> List[int]:
    """Ascending split starts of a CSV object: ``0``, then for each
    grid point ``k * chunk_size`` the first record start at or after it.

    A record start is offset ``0`` or the byte after a ``\\n`` outside
    quotes, quotes toggling as :func:`repro.csvscan.find_record_end`
    counts them -- the same framing every reader uses, so each split
    frames from its first byte with ``in_quotes=False``.
    """
    size = len(data)
    starts = [0]
    quoted = b'"' in data
    quotes = 0  # quotes before ``counted``, which is outside quotes at 0
    counted = 0
    for point in range(chunk_size, size, chunk_size):
        if point <= starts[-1]:
            continue  # the first record start at or after it is the last one
        if quoted:
            quotes += data.count(b'"', counted, point)
            counted = point
        in_quotes = quotes % 2 == 1
        if not in_quotes and data[point - 1] == 0x0A:
            start = point
        else:
            newline, _pos, _quotes = find_record_end(data, point, in_quotes)
            if newline < 0:
                break  # no record terminates after ``point``
            start = newline + 1
        if start >= size:
            break
        starts.append(start)
    return starts
