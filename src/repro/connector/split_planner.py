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

:func:`plan_read_ends` uses the same bytes to say where each planned
split's plain read must stop: at the end of the last record the split
owns, which is the record crossing (or starting at) the next split's
start.  A plain read then ends exactly where its records do -- no
lookahead guess, and a record of any length is read whole.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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


def plan_read_ends(data: bytes, starts: Sequence[int]) -> List[int]:
    """Inclusive last byte each split of ``starts`` must read.

    A split owns every record starting at or before the next split's
    start (:mod:`repro.csvscan`'s ownership rule), so its read ends at
    the terminator of the record crossing that start.  A split whose
    discarded first record already runs past that start owns nothing,
    and reading its own range is what shows it.  Every planned start
    sits outside quotes, so the quote-aware scan starts there with
    ``in_quotes=False``; a last record without terminator runs to the
    object's end, as the last split always does.
    """
    last = len(data) - 1
    ends = []
    for start, boundary in zip(starts, starts[1:]):
        newline, _pos, _quotes = find_record_end(data, boundary, False)
        if start > 0:
            first, _pos, _quotes = find_record_end(data, start, False)
            if first == newline:
                newline = boundary - 1
        ends.append(newline if newline >= 0 else last)
    ends.append(last)
    return ends
