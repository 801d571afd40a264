"""Quote-aware split planning for CSV objects.

Hadoop-style partitioning cuts an object into chunk-size byte ranges at
arbitrary offsets.  For RFC 4180 CSV that is almost always fine -- the
reader discards the partial first line and the previous range finishes
it -- but a boundary landing *inside a quoted field* used to be
unrecoverable: the scanner entering mid-field cannot know it is inside
quotes, so framing desynchronizes.

:func:`plan_quote_safe_starts` closes that gap at discovery time.  It
keeps every boundary that provably falls *outside* quoted fields exactly
where chunk arithmetic put it (so unquoted data plans byte-identically
to the legacy planner), and slides a boundary that lands inside a quoted
field forward to the next record start, where the scanner's
``in_quotes = False`` assumption holds.  An object whose quoting never
closes (an unterminated quote running through EOF) cannot be aligned at
all and is demoted to a single split by the caller, with a counted,
logged reason.
"""

from __future__ import annotations

from typing import List, Optional

from repro.csvscan import find_record_end


def plan_quote_safe_starts(
    data: bytes, chunk_size: int
) -> Optional[List[int]]:
    """Split-start offsets for a CSV object, never inside a quoted field.

    Returns the ascending list of split starts (always beginning with
    ``0``), or ``None`` when a chunk boundary falls inside a quoted
    field that never terminates before end-of-object -- the caller must
    then demote the object to a single split.

    Boundaries at offsets with even quote parity are kept verbatim, so
    objects without quoted fields plan exactly like the plain
    ``range(0, size, chunk_size)`` arithmetic.
    """
    size = len(data)
    starts = [0]
    if b'"' not in data:
        starts.extend(range(chunk_size, size, chunk_size))
        return starts
    quotes_before = 0
    prev = 0
    for target in range(chunk_size, size, chunk_size):
        quotes_before += data.count(b'"', prev, target)
        prev = target
        if target <= starts[-1]:
            # An earlier boundary already slid past this grid point.
            continue
        if quotes_before % 2 == 0:
            starts.append(target)
            continue
        # Inside a quoted field: slide forward to the next record start,
        # where a scanner starting with in_quotes=False is correct.
        newline, _pos, _quotes = find_record_end(data, target, True)
        if newline < 0:
            return None
        boundary = newline + 1
        if boundary < size and boundary > starts[-1]:
            starts.append(boundary)
    return starts
