"""Build, serialize and decode per-object data-skipping catalog entries.

A catalog entry is one JSON document stored under the
:data:`CATALOG_HEADER` user-metadata header of the object it describes::

    {"v": 1, "rows": N, "cols": {
        "<column>": {"min": ..., "max": ..., "nulls": n,
                     "nan": true,            # only when bounds incomplete
                     "bloom": "<hex>", "bb": bits, "bh": hashes}}}

``min``/``max`` hold only finite values (non-finite data raises the
``nan`` flag instead, mirroring the stripe footer fix), so the document
serializes with ``allow_nan=False`` -- a builder bug can never smuggle a
non-standard ``NaN``/``Infinity`` literal into the metadata tier.  The
optional bloom filter covers columns with a bounded distinct-value set
and sharpens equality/IN refutation beyond what min/max can prove.

Decoding is strictly best-effort: any missing header, parse failure,
unexpected shape, or version mismatch yields ``None``, which callers
treat as "no evidence -- the object may match".  A stale or corrupt
catalog can therefore only cost a wasted GET, never a missing row.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Sequence, Set

from repro.columnar.stats import (
    DEFAULT_BLOOM_BITS,
    DEFAULT_BLOOM_HASHES,
    BloomFilter,
    ColumnStats,
    canonical_bloom_key,
    column_stats,
    filters_may_match,
)
from repro.sql.filters import Filter
from repro.sql.types import Schema

#: The Swift user-metadata header carrying one object's catalog entry.
CATALOG_HEADER = "x-object-meta-scoop-catalog"

#: Bump on any change a decoder of this version could misread.
CATALOG_VERSION = 1

#: Distinct-key cap per column: the bloom is kept iff the column holds
#: at most this many distinct canonical keys (and no unkeyable value);
#: past it the bloom would saturate into uselessness anyway.
MAX_BLOOM_KEYS = 256


class _ColumnAccumulator:
    """One column's running catalog entry: the merge of the statistics
    of every vector folded so far, plus its distinct bloom keys."""

    def __init__(self) -> None:
        self.nulls = 0
        self.min_value: Any = None
        self.max_value: Any = None
        self.has_nan = False
        #: Distinct canonical keys, or ``None`` once the bloom is off
        #: (more than the cap, or an unkeyable value was seen).
        self.keys: Optional[Set[bytes]] = set()

    def merge(self, stats: Any, values: Sequence[Any]) -> None:
        """Fold one vector given its statistics (anything carrying
        ``nulls`` / ``min_value`` / ``max_value`` / ``has_nan``)."""
        self.nulls += stats.nulls
        self.has_nan = self.has_nan or stats.has_nan
        if stats.min_value is not None:
            if self.min_value is None or stats.min_value < self.min_value:
                self.min_value = stats.min_value
            if self.max_value is None or stats.max_value > self.max_value:
                self.max_value = stats.max_value
        if self.keys is None:
            return
        # Keyed from the value *set*: whether the bloom survives depends
        # on the column's content, never on its row order.
        distinct = set(values)
        distinct.discard(None)
        for value in distinct:
            key = canonical_bloom_key(value)
            if key is not None:
                self.keys.add(key)
            if key is None or len(self.keys) > MAX_BLOOM_KEYS:
                self.keys = None
                return

    def to_payload(self) -> dict:
        """This column's catalog document fragment."""
        entry: dict = {
            "min": self.min_value,
            "max": self.max_value,
            "nulls": self.nulls,
        }
        if self.has_nan:
            entry["nan"] = True
        if self.keys:
            bloom = BloomFilter()
            for key in sorted(self.keys):
                bloom.add_key(key)
            entry["bloom"] = bloom.to_hex()
            entry["bb"] = bloom.bits
            entry["bh"] = bloom.hashes
        return entry


class CatalogBuilder:
    """Accumulates a catalog entry from column vectors of typed rows.

    The PUT-path storlets feed every row they emit (post-cleansing, so
    the catalog describes exactly the stored content) and merge
    :meth:`to_metadata` into their storlet metadata, which the engine
    persists onto the stored object.
    """

    def __init__(self, schema: Schema):
        """Track one accumulator per schema column (lowercased names)."""
        self._schema = schema
        self._columns = [_ColumnAccumulator() for _ in schema.fields]
        self._rows = 0

    def add_columns(self, columns: Sequence[Sequence[Any]]) -> None:
        """Fold a run of rows, one schema-typed value vector per column,
        computing their statistics here."""
        stats = [
            column_stats(column, fld.dtype)
            for fld, column in zip(self._schema.fields, columns)
        ]
        self.add_stripe(len(columns[0]), columns, stats)

    def add_stripe(
        self,
        rows: int,
        values: Sequence[Sequence[Any]],
        stats: Sequence[Any],
    ) -> None:
        """Fold ``rows`` rows given their per-column statistics and, per
        column, any vector holding the column's distinct values (only
        the value *set* is read, for the bloom): what the RCF1 encoder
        hands over per stripe, so no cell is hashed a second time where
        it already built a dictionary."""
        self._rows += rows
        for accumulator, entry, column in zip(self._columns, stats, values):
            accumulator.merge(entry, column)

    def to_payload(self) -> dict:
        """The complete catalog JSON document."""
        return {
            "v": CATALOG_VERSION,
            "rows": self._rows,
            "cols": {
                fld.name.lower(): accumulator.to_payload()
                for fld, accumulator in zip(self._schema.fields, self._columns)
            },
        }

    def to_metadata(self) -> Dict[str, str]:
        """The catalog as object user metadata (one header)."""
        text = json.dumps(
            self.to_payload(), separators=(",", ":"), allow_nan=False
        )
        return {CATALOG_HEADER: text}


class ObjectCatalog:
    """One object's decoded catalog entry, ready to probe with filters."""

    def __init__(self, rows: int, columns: Dict[str, ColumnStats]):
        """Wrap decoded per-column stats keyed by lowercased name."""
        self.rows = rows
        self.columns = columns

    def may_match(self, filters: Sequence[Filter]) -> bool:
        """Whether any row of the object could satisfy every filter.

        ``False`` is a proof (modulo the catalog describing the stored
        content, which the PUT-path construction guarantees) that no row
        matches, so the whole object can be skipped without a GET.
        """
        if not filters:
            return True
        if self.rows == 0:
            return False
        return filters_may_match(
            filters, lambda attribute: self.columns.get(attribute.lower())
        )


def _decode_column(entry: Any, rows: int) -> ColumnStats:
    """Decode one column fragment; raises on any unexpected shape."""
    if not isinstance(entry, dict):
        raise ValueError("catalog column entry is not an object")
    nulls = entry.get("nulls", 0)
    if not isinstance(nulls, int) or nulls < 0:
        raise ValueError("catalog null count is not a non-negative int")
    bloom = None
    if "bloom" in entry:
        bloom = BloomFilter.from_hex(
            entry["bloom"],
            bits=int(entry.get("bb", DEFAULT_BLOOM_BITS)),
            hashes=int(entry.get("bh", DEFAULT_BLOOM_HASHES)),
        )
    return ColumnStats(
        rows=rows,
        nulls=nulls,
        min_value=entry.get("min"),
        max_value=entry.get("max"),
        has_nan=bool(entry.get("nan", False)),
        bloom=bloom,
    )


def decode_catalog(headers: Mapping[str, Any]) -> Optional[ObjectCatalog]:
    """Decode an object's catalog entry from its response headers.

    Returns ``None`` -- "no evidence, the object may match" -- for a
    missing header, malformed JSON, a version this decoder does not
    understand, or any structurally unexpected document.  Never raises.
    """
    text = headers.get(CATALOG_HEADER)
    if text is None:
        # Plain dicts may carry unnormalized keys; match tolerantly the
        # way header maps do (case-insensitive, dash/underscore alike).
        wanted = CATALOG_HEADER.replace("_", "-")
        for key, value in headers.items():
            if str(key).lower().replace("_", "-") == wanted:
                text = value
                break
    if text is None:
        return None
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("v") != CATALOG_VERSION:
            return None
        rows = payload["rows"]
        if not isinstance(rows, int) or rows < 0:
            return None
        cols = payload.get("cols", {})
        if not isinstance(cols, dict):
            return None
        columns = {
            str(name).lower(): _decode_column(entry, rows)
            for name, entry in cols.items()
        }
    except Exception:
        return None
    return ObjectCatalog(rows=rows, columns=columns)
