"""Object-aware metadata extraction from binary objects.

Section VII: "one can imagine different types of Spark jobs ingesting
information from non-textual data thanks to Scoop pushdown filters;
examples include bringing EXIF metadata from JPEGs or text from PDF
documents."

We define a simple binary image-like container format (in lieu of real
JPEG/EXIF, which would need an image library):

.. code-block:: text

    IMG1                     4-byte magic
    tag_count                2 bytes big-endian
    tag_count x entries:     key_len(1) key val_len(2) val   (UTF-8)
    payload                  the "pixels" -- arbitrarily large

:class:`MetadataExtractorStorlet` reads only the header, emits one CSV
record of the requested tag values, and never streams the payload --
so cataloguing a container of gigabyte "images" costs a few hundred
bytes per object.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterator, Optional, Tuple

from repro.csvscan import render_record
from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletInputStream,
    StorletLogger,
)

MAGIC = b"IMG1"
MAX_TAGS = 512


def encode_image(
    tags: Dict[str, str], payload: bytes = b"", payload_size: Optional[int] = None
) -> bytes:
    """Build a binary image-like object with an EXIF-ish tag header."""
    if len(tags) > MAX_TAGS:
        raise ValueError(f"too many tags: {len(tags)} > {MAX_TAGS}")
    body = bytearray(MAGIC)
    body.extend(struct.pack(">H", len(tags)))
    for key, value in tags.items():
        key_bytes = key.encode("utf-8")
        value_bytes = str(value).encode("utf-8")
        if len(key_bytes) > 255:
            raise ValueError(f"tag key too long: {key!r}")
        if len(value_bytes) > 65535:
            raise ValueError(f"tag value too long for {key!r}")
        body.append(len(key_bytes))
        body.extend(key_bytes)
        body.extend(struct.pack(">H", len(value_bytes)))
        body.extend(value_bytes)
    if payload_size is not None:
        payload = bytes(payload_size)
    body.extend(payload)
    return bytes(body)


def decode_tags(data: bytes) -> Tuple[Dict[str, str], int]:
    """Parse the tag header; returns (tags, payload offset)."""
    if data[: len(MAGIC)] != MAGIC:
        raise StorletException("bad magic: not an IMG1 object")
    if len(data) < len(MAGIC) + 2:
        raise StorletException("truncated IMG1 header")
    (count,) = struct.unpack_from(">H", data, len(MAGIC))
    if count > MAX_TAGS:
        raise StorletException(f"implausible tag count: {count}")
    offset = len(MAGIC) + 2
    tags: Dict[str, str] = {}
    try:
        for _ in range(count):
            if offset >= len(data):
                raise StorletException("truncated IMG1 tag table")
            key_length = data[offset]
            offset += 1
            key = data[offset : offset + key_length].decode("utf-8")
            offset += key_length
            (value_length,) = struct.unpack_from(">H", data, offset)
            offset += 2
            if offset + value_length > len(data):
                raise StorletException("truncated IMG1 tag value")
            value = data[offset : offset + value_length].decode("utf-8")
            offset += value_length
            tags[key] = value
    except (struct.error, IndexError, UnicodeDecodeError) as error:
        raise StorletException(f"corrupt IMG1 tag table: {error}") from error
    return tags, offset


class MetadataExtractorStorlet(IStorlet):
    """Emits one CSV record of tag values from a binary object's header.

    Parameters:

    ``tags``
        Required JSON list of tag keys to extract (missing tags become
        empty fields).
    ``include_size``
        "true" to append the payload size as a final field.
    """

    name = "metaextract"

    #: Upper bound on the header bytes we are willing to read.
    HEADER_BUDGET = 256 * 1024

    def process(
        self,
        in_stream: StorletInputStream,
        parameters: Dict[str, str],
        logger: StorletLogger,
        metadata: Dict[str, str],
    ) -> Iterator[bytes]:
        if not parameters.get("tags"):
            raise StorletException("metaextract requires a 'tags' parameter")
        wanted = json.loads(parameters["tags"])
        include_size = parameters.get("include_size", "false") == "true"

        head = in_stream.read(self.HEADER_BUDGET)
        tags, payload_offset = decode_tags(head)
        fields = [tags.get(key, "") for key in wanted]
        if include_size:
            # Remaining payload = what we over-read past the header plus
            # whatever is still in the stream (counted, not copied).
            remaining = max(0, len(head) - payload_offset)
            for chunk in in_stream.iter_chunks():
                remaining += len(chunk)
            fields.append(str(remaining))
        yield render_record(fields, ",")
        logger.emit(f"metaextract: {len(wanted)} tags extracted")
